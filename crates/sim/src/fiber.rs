//! Stack switching: what a [`crate::vtime::VirtualLab`] handover is made
//! of where the target has one.
//!
//! A [`Context`] is an execution that is not running: a stack and, on
//! it, the callee-saved registers and the return address of the
//! [`switch`] that left it. `switch(from, to, pass)` saves the caller
//! into `from` and resumes `to`, whose own `switch` then returns `pass`.
//! Everything stays on the calling OS thread — no kernel, no scheduler,
//! sixteen instructions.
//!
//! Only x86-64 System V has the switch; elsewhere, and under Miri (which
//! has no inline assembly), [`SUPPORTED`] is `false`, nothing here is to
//! be called, and the lab hosts every task on an OS thread.

/// Usable bytes of a task's stack: what the lab's tasks got as threads.
pub(crate) const STACK_BYTES: usize = 512 * 1024;

/// What ends a context's body: the switch away from it that is never
/// switched back from. The body returns it instead of making it, so that
/// by then nothing it owned is left on the stack about to be unmapped.
// (Built, never read, where there is no switch to make.)
#[cfg_attr(not(all(target_arch = "x86_64", unix, not(miri))), allow(dead_code))]
pub(crate) struct Handover {
    /// Where the dying context is saved; never resumed.
    pub from: *mut Context,
    /// The context that runs next (and frees `from`).
    pub to: *const Context,
    /// What `to`'s `switch` returns.
    pub pass: u64,
}

pub(crate) use imp::{switch, thread_token, Context, SUPPORTED};

#[cfg(all(target_arch = "x86_64", unix, not(miri)))]
mod imp {
    use super::{Handover, STACK_BYTES};
    use std::ffi::c_void;
    use std::ptr::NonNull;

    pub(crate) const SUPPORTED: bool = true;

    /// x86-64 has no smaller page, and a guard wants no larger one.
    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 1 | 2;
    const MAP_PRIVATE: i32 = 2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MAP_ANONYMOUS: i32 = 0x20;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MAP_ANONYMOUS: i32 = 0x1000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A private mapping of `PAGE + STACK_BYTES`: an inaccessible guard
    /// page below the stack, so running off its end is a SIGSEGV and not
    /// a write into a neighbour. Pages are committed as they are touched
    /// and returned when the mapping is dropped.
    struct Stack {
        base: NonNull<u8>,
    }

    // SAFETY: the mapping is owned by this value alone and is plain
    // memory; nothing about it is tied to the thread that mapped it.
    unsafe impl Send for Stack {}

    impl Stack {
        const LEN: usize = PAGE + STACK_BYTES;

        fn map() -> Stack {
            // SAFETY: a fresh anonymous mapping at an address of the
            // kernel's choosing aliases nothing.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    Self::LEN,
                    PROT_READ_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is (void *) -1.
            assert!(
                base as isize != -1 && !base.is_null(),
                "mmap of a virtual task's stack failed: {}",
                std::io::Error::last_os_error()
            );
            let stack = Stack {
                base: NonNull::new(base.cast()).expect("checked above"),
            };
            // SAFETY: the first page of the mapping made above, which
            // nothing uses yet.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert!(
                rc == 0,
                "mprotect of a stack guard page failed: {}",
                std::io::Error::last_os_error()
            );
            stack
        }

        /// One past the highest byte; 16-byte aligned (page aligned).
        fn top(&self) -> *mut usize {
            // SAFETY: `LEN` is the length of the mapping at `base`.
            unsafe { self.base.as_ptr().add(Self::LEN).cast() }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: exactly the mapping `map` made. The owner (the lab)
            // drops a stack only when nothing runs on it and nothing
            // will: see `Context`.
            let rc = unsafe { munmap(self.base.as_ptr().cast(), Self::LEN) };
            debug_assert_eq!(rc, 0, "munmap of a virtual task's stack failed");
        }
    }

    /// A suspended execution; see the module docs.
    pub(crate) struct Context {
        /// Stack pointer [`switch`] saved, below it six registers and a
        /// return address. Meaningless while the context runs.
        sp: usize,
        /// Unmapped with the context. `None`: the OS thread's own stack
        /// (the context `switch` saves the lab's root into).
        _stack: Option<Stack>,
    }

    /// What a fresh context runs.
    type Body = Box<dyn FnOnce() -> Handover>;

    impl Context {
        /// The context of whoever is running on a stack of its own (the
        /// thread's): filled in by the first `switch` away from it.
        pub(crate) fn running() -> Context {
            Context {
                sp: 0,
                _stack: None,
            }
        }

        /// A context on a fresh stack whose first resumption calls `body`
        /// and makes the switch it returns. Dropping it un-resumed leaks
        /// `body`; dropping it suspended midway forgets what it owned.
        pub(crate) fn new(body: Body) -> Context {
            let stack = Stack::map();
            let arg = Box::into_raw(Box::new(body));
            // What `switch` pops, lowest address first, then two zero
            // words: the trampoline starts on a 16-byte boundary as the
            // ABI wants before a `call`, and a frame walk that gets past
            // `enter` reads a null return address there and stops.
            let frame: [usize; 9] = [
                0,                                // r15
                0,                                // r14
                enter as *const () as usize,      // r13
                arg as usize,                     // r12
                0,                                // rbx
                0,                                // rbp: ends a frame-pointer chain
                trampoline as *const () as usize, // return address
                0,
                0,
            ];
            // SAFETY: the nine words below `top` are inside the mapping
            // (it is 512 KiB long), writable, aligned, and ours alone.
            let sp = unsafe {
                let sp = stack.top().sub(frame.len());
                sp.cast::<[usize; 9]>().write(frame);
                sp
            };
            Context {
                sp: sp as usize,
                _stack: Some(stack),
            }
        }
    }

    /// First frame of a fresh context: `switch` "returns" here with the
    /// registers `Context::new` laid out.
    ///
    /// # Safety
    ///
    /// Not to be called: reached only by the `ret` of `switch_stacks`
    /// into a frame laid out by `Context::new` (`r12` the argument, `r13`
    /// the function, the stack pointer 16-byte aligned).
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() -> ! {
        core::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
    }

    /// The Rust end of the trampoline: run the body, make its handover.
    extern "C" fn enter(arg: *mut Body) -> ! {
        // SAFETY: `arg` is the `Box::into_raw` of `Context::new`, and a
        // context is entered once.
        let body = unsafe { Box::from_raw(arg) };
        // A panic out of `body` would unwind out of an `extern "C"`
        // function: an abort, which is right — there is no frame above
        // to catch it. The lab's bodies catch their own.
        let Handover { from, to, pass } = body();
        // SAFETY: the body vouches for the handover it returns. Nothing
        // with a destructor is live in this frame any more.
        unsafe { switch(from, to, pass) };
        unreachable!("a finished context was resumed");
    }

    /// Suspend the caller into `from` and resume `to`; returns, once
    /// somebody switches to `from`, the `pass` of that switch.
    ///
    /// # Safety
    ///
    /// * `from` and `to` are valid and distinct. `to` stays so until it
    ///   has switched away again, `from` until it is resumed (if it never
    ///   is, nothing reads it again).
    /// * `to` is suspended: made by `Context::new` and never resumed, or
    ///   the `from` of a `switch` that has not returned. Nobody else
    ///   resumes it.
    /// * `to` was suspended on the calling OS thread ([`thread_token`]):
    ///   compiled code caches thread-local addresses across calls.
    /// * Whatever the caller relies on across the call — locks held,
    ///   `thread_local!` state, `RefCell` borrows — holds up while other
    ///   contexts run on this thread in between.
    pub(crate) unsafe fn switch(from: *mut Context, to: *const Context, pass: u64) -> u64 {
        // SAFETY: per the contract both are valid; `to.sp` is where an
        // earlier `switch_stacks` (or `Context::new`) left the frame
        // `switch_stacks` pops.
        unsafe { switch_stacks(&raw mut (*from).sp, (*to).sp, pass) }
    }

    /// Push the callee-saved registers, swap stack pointers, pop them.
    /// MXCSR and the x87 control word are callee-saved too, but nothing
    /// in a Rust program changes them.
    ///
    /// # Safety
    ///
    /// `save_sp` is writable, and `to_sp` is what an earlier call stored
    /// through its `save_sp` (or what `Context::new` computed) for a
    /// context nothing has resumed since; the rest is [`switch`]'s
    /// contract.
    #[unsafe(naked)]
    unsafe extern "C" fn switch_stacks(save_sp: *mut usize, to_sp: usize, pass: u64) -> u64 {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "mov rax, rdx",
            "ret",
        )
    }

    /// A value that differs between live OS threads: contexts must be
    /// resumed on the thread they were suspended on.
    #[expect(
        clippy::disallowed_types,
        reason = "the address of a thread-local is the token; its value is never read"
    )]
    pub(crate) fn thread_token() -> usize {
        thread_local!(static HERE: u8 = const { 0 });
        HERE.with(|here| std::ptr::from_ref(here) as usize)
    }
}

#[cfg(not(all(target_arch = "x86_64", unix, not(miri))))]
mod imp {
    use super::Handover;

    pub(crate) const SUPPORTED: bool = false;

    /// Never constructed on this target.
    pub(crate) struct Context(());

    impl Context {
        pub(crate) fn running() -> Context {
            unreachable!("no stack switch on this target")
        }

        pub(crate) fn new(_body: Box<dyn FnOnce() -> Handover>) -> Context {
            unreachable!("no stack switch on this target")
        }
    }

    /// # Safety
    ///
    /// Never called: there is no `Context` to pass.
    pub(crate) unsafe fn switch(_from: *mut Context, _to: *const Context, _pass: u64) -> u64 {
        unreachable!("no stack switch on this target")
    }

    pub(crate) fn thread_token() -> usize {
        0
    }
}

#[cfg(all(test, target_arch = "x86_64", unix, not(miri)))]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn contexts_pass_values_back_and_forth_and_keep_their_locals() {
        let mut main = Context::running();
        let main_ptr: *mut Context = &mut main;
        let seen = Rc::new(Cell::new(0));
        // Filled in once the child exists; read by the child only after
        // that (it runs no earlier than the first switch below).
        let child_ptr: Rc<Cell<*mut Context>> = Rc::new(Cell::new(std::ptr::null_mut()));
        let mut child = Context::new(Box::new({
            let (seen, child_ptr) = (seen.clone(), child_ptr.clone());
            move || {
                let mine = child_ptr.get();
                let mut local = 1u64;
                for _ in 0..3 {
                    // SAFETY: `main` is suspended in the test body's
                    // `switch`, on this thread, and outlives the child.
                    let got = unsafe { switch(mine, main_ptr, local) };
                    local += got;
                    seen.set(local);
                }
                Handover {
                    from: mine,
                    to: main_ptr,
                    pass: u64::MAX,
                }
            }
        }));
        child_ptr.set(&mut child);
        // SAFETY: `child` is fresh, then suspended in its own `switch`
        // each time control comes back here; both contexts live to the
        // end of the test.
        unsafe {
            assert_eq!(switch(main_ptr, child_ptr.get(), 0), 1);
            assert_eq!(switch(main_ptr, child_ptr.get(), 10), 11);
            assert_eq!(seen.get(), 11);
            assert_eq!(switch(main_ptr, child_ptr.get(), 100), 111);
            assert_eq!(switch(main_ptr, child_ptr.get(), 1_000), u64::MAX);
        }
        assert_eq!(seen.get(), 1_111);
        // The body returned: its captures are dropped.
        assert_eq!(Rc::strong_count(&seen), 1);
    }

    #[test]
    fn thread_tokens_tell_live_threads_apart() {
        let here = thread_token();
        assert_eq!(here, thread_token());
        // This thread is alive (blocked in `join`) while the other takes
        // its token.
        let there = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(here, there);
    }
}
