//! Memory regions, the memory translation table (MTT) and the memory
//! protection table (MPT).
//!
//! A registered [`MemoryRegion`] owns real heap memory in [`PAGE`]-sized
//! pages, each committed at the first write that puts a nonzero byte in
//! it: a page nothing has written reads as zeros and holds no heap
//! memory, so a region registered but never written (a lane's staging
//! MR, DESIGN.md §5j) costs nothing resident, and a written one costs the
//! pages that hold bytes. A consumer frees what it has read with
//! [`Pages::consume`], which hands a page back once its zeroing reaches
//! the page's end and the page reads all zeros; the region keeps the
//! page as a spare for its next commit while it holds no more than two
//! pages, and frees it otherwise. A ring that cycles through a region
//! thus holds the pages in flight, and at most two when drained, and a
//! ring with one message in flight allocates nothing once it has
//! cycled. Remote operations name a region by
//! `(rkey, virtual address)`; the node's [`MrTable`] finds it by key (a
//! hash map, not a scan), validates the rkey against the MPT (access
//! rights) and translates the address via the MTT (bounds). Local
//! operations use the `lkey`.
//!
//! Pages are guarded by a `parking_lot::RwLock`, serializing concurrent
//! DMA against host access. Real RDMA permits torn concurrent access; the
//! lock is a strictly stronger (safe) model, and the canary protocol built
//! on top of it is still exercised logically by the Flock layer. The
//! region's doorbell lives under the same lock: a DMA takes one lock per
//! region and rings the destination's doorbell before it lets go, so a
//! poller woken by it finds the lock free a moment later, never the
//! bytes half written. A host-side poll that reads, checks and consumes
//! a ring slot does all three under one [`MemoryRegion::with_pages`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flock_sync::clock::Event;
use flock_sync::Counter;
use parking_lot::RwLock;

use crate::types::{FabricError, KeyMap, Lkey, Result, Rkey};

/// Access rights for a memory region (the MPT entry contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access(u8);

impl Access {
    /// Local read/write only (the implicit minimum).
    pub const LOCAL: Access = Access(0);
    /// Remote hosts may issue RDMA reads.
    pub const REMOTE_READ: Access = Access(1);
    /// Remote hosts may issue RDMA writes.
    pub const REMOTE_WRITE: Access = Access(2);
    /// Remote hosts may issue RDMA atomics.
    pub(crate) const REMOTE_ATOMIC: Access = Access(4);
    /// All remote rights.
    pub const REMOTE_ALL: Access = Access(7);

    /// Union of two access sets.
    pub(crate) const fn union(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    /// Whether all rights in `needed` are present.
    pub(crate) const fn allows(self, needed: Access) -> bool {
        self.0 & needed.0 == needed.0
    }
}

impl std::ops::BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        self.union(rhs)
    }
}

/// Bytes per page: the unit in which a region commits heap memory.
pub const PAGE: usize = 4096;

/// What a committed page is compared with before it is handed back.
static ZERO_PAGE: [u8; PAGE] = [0; PAGE];

/// A region keeps a page handed back to it for its next commit while it
/// holds no more pages than this, committed and kept together: the most
/// a ring with one message in flight needs, so that such a ring stops
/// allocating once it has cycled.
const KEPT: usize = 2;

/// A registered memory region backed by real pages.
#[derive(Debug)]
pub struct MemoryRegion {
    base: u64,
    len: usize,
    lkey: Lkey,
    rkey: Rkey,
    access: Access,
    buf: RwLock<Buffer>,
}

/// A region's pages and its doorbell, under one lock.
#[derive(Debug)]
struct Buffer {
    pages: Pages,
    /// Notified after every DMA into the region ([`MemoryRegion::dma_to`])
    /// while installed: how the task that polls a ring in this region
    /// learns that the NIC wrote to it.
    doorbell: Option<Arc<Event>>,
}

impl Buffer {
    /// Ring the doorbell, if one is installed, after a DMA into these
    /// bytes.
    fn ring(&self) {
        if let Some(event) = &self.doorbell {
            event.notify_all();
        }
    }
}

/// The bytes of a region as a table of [`PAGE`]-sized pages (the last
/// one may be shorter), each committed at the first write that puts a
/// nonzero byte in it; a page nothing has committed reads as zeros and
/// holds no memory. [`MemoryRegion::with_pages`] lends it out under the
/// region's lock.
#[derive(Debug)]
pub struct Pages {
    /// The region's address, for the errors of out-of-bounds accesses.
    base: u64,
    len: usize,
    table: Box<[Option<Box<[u8]>>]>,
    /// Pages handed back by [`Pages::consume`] and kept for the next
    /// commits of pages of their length.
    spares: Vec<Box<[u8]>>,
    /// Pages the region holds: committed ones and spares.
    held: usize,
}

/// The pieces of `span` that lie in one page each: the page, the range
/// within it and the range within the span.
fn pieces(span: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut at = span.start;
    std::iter::from_fn(move || {
        (at < span.end).then(|| {
            let (page, off) = (at / PAGE, at % PAGE);
            let n = (PAGE - off).min(span.end - at);
            let done = at - span.start;
            at += n;
            (page, off..off + n, done..done + n)
        })
    })
}

impl Pages {
    fn new(base: u64, len: usize) -> Pages {
        Pages {
            base,
            len,
            table: (0..len.div_ceil(PAGE)).map(|_| None).collect(),
            spares: Vec::new(),
            held: 0,
        }
    }

    /// The range of `len` bytes at byte `offset`, if it lies inside the
    /// region.
    fn span(&self, offset: usize, len: usize) -> Result<Range<usize>> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => Ok(offset..end),
            _ => Err(FabricError::AccessViolation {
                addr: self.base.wrapping_add(offset as u64),
                len,
            }),
        }
    }

    /// Page `i`'s bytes for writing: committed now unless they were
    /// before, from a spare when one has the page's length.
    fn commit(&mut self, i: usize) -> &mut [u8] {
        let len = PAGE.min(self.len - i * PAGE);
        let (spares, held) = (&mut self.spares, &mut self.held);
        self.table[i].get_or_insert_with(|| {
            spares.pop_if(|page| page.len() == len).unwrap_or_else(|| {
                *held += 1;
                vec![0u8; len].into_boxed_slice()
            })
        })
    }

    /// Copy `src` (zeros when `None`) into `within` of page `i`. Zeros
    /// landing on an uncommitted page commit nothing.
    fn put(&mut self, i: usize, within: Range<usize>, src: Option<&[u8]>) {
        match (src, &mut self.table[i]) {
            (Some(src), Some(page)) => page[within].copy_from_slice(src),
            (None, Some(page)) => page[within].fill(0),
            (Some(src), None) if src != &ZERO_PAGE[..src.len()] => {
                self.commit(i)[within].copy_from_slice(src)
            }
            (_, None) => {}
        }
    }

    /// The `len` bytes at byte `offset` if they lie in one committed
    /// page: the fast path of every access.
    fn in_page(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let start = offset % PAGE;
        let page = self.table.get(offset / PAGE)?.as_deref()?;
        page.get(start..start.checked_add(len)?)
    }

    /// [`Pages::in_page`], for writing.
    fn in_page_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        let start = offset % PAGE;
        let page = self.table.get_mut(offset / PAGE)?.as_deref_mut()?;
        page.get_mut(start..start.checked_add(len)?)
    }

    /// Copy `data` into the region at byte `offset`.
    fn write(&mut self, offset: usize, data: &[u8]) -> Result<()> {
        if let Some(bytes) = self.in_page_mut(offset, data.len()) {
            bytes.copy_from_slice(data);
            return Ok(());
        }
        for (page, within, part) in pieces(self.span(offset, data.len())?) {
            self.put(page, within, Some(&data[part]));
        }
        Ok(())
    }

    /// Copy from the region at byte `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        if let Some(bytes) = self.in_page(offset, out.len()) {
            out.copy_from_slice(bytes);
            return Ok(());
        }
        for (page, within, part) in pieces(self.span(offset, out.len())?) {
            match &self.table[page] {
                Some(bytes) => out[part].copy_from_slice(&bytes[within]),
                None => out[part].fill(0),
            }
        }
        Ok(())
    }

    /// Append the `len` bytes at byte `offset` to `out`.
    pub fn append_to(&self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<()> {
        if let Some(bytes) = self.in_page(offset, len) {
            out.extend_from_slice(bytes);
            return Ok(());
        }
        self.span(offset, len)?;
        let from = out.len();
        out.resize(from + len, 0);
        self.read(offset, &mut out[from..])
    }

    /// Zero the `len` bytes at byte `offset` the way a consumer frees
    /// what it has read: a page whose end the span reaches and which
    /// then reads all zeros is handed back ([`KEPT`]).
    pub fn consume(&mut self, offset: usize, len: usize) -> Result<()> {
        for (page, within, _) in pieces(self.span(offset, len)?) {
            let Some(bytes) = &mut self.table[page] else {
                continue;
            };
            bytes[within.clone()].fill(0);
            if within.end == bytes.len() {
                self.hand_back(page);
            }
        }
        Ok(())
    }

    /// Hand page `i` back if it reads all zeros: keep it as a spare
    /// while the region holds no more than [`KEPT`] pages, free it
    /// otherwise.
    #[cold]
    fn hand_back(&mut self, i: usize) {
        let Some(bytes) = &self.table[i] else { return };
        if **bytes == ZERO_PAGE[..bytes.len()] {
            let page = self.table[i].take().expect("committed");
            if self.held <= KEPT {
                self.spares.push(page);
            } else {
                self.held -= 1;
            }
        }
    }

    /// Replace the 8-byte little-endian word `w` at `offset` (8-byte
    /// aligned) with `f(w)`; returns `w`. A word left zero on an
    /// uncommitted page commits nothing.
    fn update_u64(&mut self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(FabricError::Misaligned(
                self.base.wrapping_add(offset as u64),
            ));
        }
        self.span(offset, 8)?;
        let (page, at) = (offset / PAGE, offset % PAGE);
        let old = match &self.table[page] {
            Some(bytes) => u64::from_le_bytes(bytes[at..at + 8].try_into().expect("one word")),
            None => 0,
        };
        let new = f(old);
        if new != old {
            self.commit(page)[at..at + 8].copy_from_slice(&new.to_le_bytes());
        }
        Ok(old)
    }

    /// Copy the `n` bytes at `from` to `to` within these pages, with
    /// `n` no more than a page: through a bounce page, so the two spans
    /// may overlap.
    fn copy_within(&mut self, from: usize, to: usize, n: usize) {
        let mut bounce = [0u8; PAGE];
        self.read(from, &mut bounce[..n]).expect("in bounds");
        self.write(to, &bounce[..n]).expect("in bounds");
    }

    /// Drop every page, the spares too: the region reads as zeros and
    /// holds no pages.
    fn clear(&mut self) {
        self.table.iter_mut().for_each(|page| *page = None);
        self.spares.clear();
        self.held = 0;
    }
}

/// The pieces of a copy of `len` bytes from offset `from` to offset
/// `to` that cross no page boundary on either side, `(from, to, n)`;
/// last piece first when `backward`.
fn copy_pieces(
    from: usize,
    to: usize,
    len: usize,
    backward: bool,
) -> impl Iterator<Item = (usize, usize, usize)> {
    // Bytes `lo..hi` of the copy are still to go.
    let (mut lo, mut hi) = (0, len);
    std::iter::from_fn(move || {
        (lo < hi).then(|| {
            if backward {
                let n = (hi - lo)
                    .min((from + hi - 1) % PAGE + 1)
                    .min((to + hi - 1) % PAGE + 1);
                hi -= n;
                (from + hi, to + hi, n)
            } else {
                let n = (hi - lo)
                    .min(PAGE - (from + lo) % PAGE)
                    .min(PAGE - (to + lo) % PAGE);
                lo += n;
                (from + lo - n, to + lo - n, n)
            }
        })
    })
}

impl MemoryRegion {
    /// Install (or with `None` remove) the event the NIC notifies after
    /// it writes into this region. The owner of a leased region installs
    /// the event its poller idles on; [`crate::Node::release_mr`] removes
    /// it.
    pub fn set_doorbell(&self, event: Option<Arc<Event>>) {
        self.buf.write().doorbell = event;
    }

    /// Synthetic virtual base address of the region.
    pub fn addr(&self) -> u64 {
        self.base
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Local key.
    pub fn lkey(&self) -> Lkey {
        self.lkey
    }

    /// Remote key.
    pub fn rkey(&self) -> Rkey {
        self.rkey
    }

    /// Granted access rights.
    pub fn access(&self) -> Access {
        self.access
    }

    /// Translate a `(virtual address, length)` pair into a buffer offset,
    /// validating bounds (the MTT lookup).
    pub fn translate(&self, addr: u64, len: usize) -> Result<usize> {
        let end = addr.checked_add(len as u64);
        if addr < self.base || end.is_none() || end.unwrap() > self.base + self.len as u64 {
            return Err(FabricError::AccessViolation { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    /// Fail unless the `len` bytes at byte `offset` lie inside the
    /// region.
    fn check(&self, offset: usize, len: usize) -> Result<()> {
        self.translate(self.base.wrapping_add(offset as u64), len)
            .map(drop)
    }

    /// Whether any page of the region holds bytes: something has
    /// written it since it was registered or last zeroed
    /// ([`MemoryRegion::zero`]), and not every written page has been
    /// consumed back to zeros since.
    pub fn committed(&self) -> bool {
        self.buf.read().pages.table.iter().any(Option::is_some)
    }

    /// Heap bytes the region holds in pages: committed ones and spares.
    pub fn resident_bytes(&self) -> usize {
        let buf = self.buf.read();
        let pages = buf.pages.table.iter().flatten().chain(&buf.pages.spares);
        pages.map(|page| page.len()).sum()
    }

    /// Zero the region by dropping its pages: it reads as zeros and
    /// holds no heap memory until the next write.
    pub fn zero(&self) {
        self.buf.write().pages.clear();
    }

    /// Copy `data` into the region at byte `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.buf.write().pages.write(offset, data)
    }

    /// [`MemoryRegion::write`] by the NIC (an inline write's payload):
    /// the destination's doorbell rings under its guard, as after
    /// [`MemoryRegion::dma_to`].
    pub(crate) fn dma_in(&self, offset: usize, data: &[u8]) -> Result<()> {
        let mut buf = self.buf.write();
        buf.pages.write(offset, data)?;
        buf.ring();
        Ok(())
    }

    /// Copy from the region at byte `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        self.buf.read().pages.read(offset, out)
    }

    /// Copy `len` bytes out of the region as a fresh vector.
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Read a little-endian `u64` at byte `offset` (used by pollers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(offset, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` at byte `offset`.
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Run `f` over the region's pages under one lock of them: what a
    /// ring poll uses to read, check and consume a slot at once.
    pub fn with_pages<R>(&self, f: impl FnOnce(&mut Pages) -> R) -> R {
        f(&mut self.buf.write().pages)
    }

    /// Whether the region grants every right in `needed` (the MPT check
    /// of a remote access).
    pub(crate) fn allow(&self, needed: Access) -> Result<()> {
        if !self.access.allows(needed) {
            return Err(FabricError::AccessViolation {
                addr: self.base,
                len: 0,
            });
        }
        Ok(())
    }

    /// DMA `len` bytes from this region at `src_off` into `dst` at
    /// `dst_off` — the engine's zero-copy data path: guarded copies
    /// between the two regions' pages, one per piece that crosses no
    /// page boundary of either, with no intermediate `Vec` materialized
    /// per verb.
    ///
    /// When the regions are distinct, the two buffer guards are taken in
    /// a consistent global order keyed by object identity (pointer
    /// address), *not* by the synthetic virtual base: bases collide
    /// across nodes because every `MrTable` hands them out from the same
    /// origin. That ordering makes concurrent opposite-direction copies
    /// (lane A copies X→Y while lane B copies Y→X) deadlock-free.
    /// A same-region copy takes one write guard and copies its pieces in
    /// the order that keeps an overlap safe. An uncommitted source page
    /// copies zeros, which commit nothing on an uncommitted destination
    /// page. The destination's doorbell rings under its guard.
    pub fn dma_to(
        &self,
        src_off: usize,
        dst: &MemoryRegion,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.check(src_off, len)?;
        dst.check(dst_off, len)?;
        let copy = |src: &Pages, d: &mut Buffer| {
            for (from, to, n) in copy_pieces(src_off, dst_off, len, false) {
                let page = src.table[from / PAGE].as_deref();
                let bytes = page.map(|p| &p[from % PAGE..from % PAGE + n]);
                d.pages.put(to / PAGE, to % PAGE..to % PAGE + n, bytes);
            }
            d.ring();
        };
        if std::ptr::eq(self, dst) {
            let mut d = self.buf.write();
            for (from, to, n) in copy_pieces(src_off, dst_off, len, dst_off > src_off) {
                d.pages.copy_within(from, to, n);
            }
            d.ring();
        } else if (self as *const MemoryRegion as usize) < (dst as *const MemoryRegion as usize) {
            let src = self.buf.read();
            copy(&src.pages, &mut dst.buf.write());
        } else {
            let mut d = dst.buf.write();
            copy(&self.buf.read().pages, &mut d);
        }
        Ok(())
    }

    /// Atomically fetch the 8-byte value at `offset` and add `delta`.
    /// Returns the prior value. `offset` must be 8-byte aligned.
    pub fn fetch_add_u64(&self, offset: usize, delta: u64) -> Result<u64> {
        self.update_u64(offset, |old| old.wrapping_add(delta))
    }

    /// Atomically compare-and-swap the 8-byte value at `offset`.
    /// Returns the prior value (swap succeeded iff it equals `expect`).
    pub fn cmp_swap_u64(&self, offset: usize, expect: u64, swap: u64) -> Result<u64> {
        self.update_u64(offset, |old| if old == expect { swap } else { old })
    }

    /// Atomically replace the 8-byte value `w` at `offset` with `f(w)`.
    /// Returns `w`. `offset` must be 8-byte aligned.
    pub fn update_u64(&self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        self.buf.write().pages.update_u64(offset, f)
    }
}

/// Per-node registry of memory regions: MTT + MPT.
#[derive(Debug)]
pub struct MrTable {
    /// By key: a region's lkey and rkey are the same number.
    regions: RwLock<KeyMap<u32, Arc<MemoryRegion>>>,
    next_key: Counter,
    next_base: Counter,
    /// The fabric's table generation, bumped by every register and
    /// deregister.
    tables: Arc<AtomicU64>,
}

impl Default for MrTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MrTable {
    /// Create an empty table. Synthetic virtual addresses start at a
    /// non-zero base so that address 0 is never valid.
    pub fn new() -> Self {
        Self::with_generation(Arc::default())
    }

    /// [`MrTable::new`] for a node of a fabric whose table generation
    /// is `tables`.
    pub(crate) fn with_generation(tables: Arc<AtomicU64>) -> Self {
        MrTable {
            regions: RwLock::default(),
            next_key: Counter::new(1),
            next_base: Counter::new(0x1000_0000),
            tables,
        }
    }

    /// Register a zeroed region of `len` bytes with the given remote
    /// rights (each page committed at its first write).
    pub fn register(&self, len: usize, access: Access) -> Arc<MemoryRegion> {
        let key = u32::try_from(self.next_key.add(1)).expect("memory keys are 32 bits wide");
        // Pad region spacing so adjacent regions never abut (catches
        // off-by-one overruns as violations rather than silent bleed).
        let base = self
            .next_base
            .add((len as u64 + 4096).next_multiple_of(4096));
        let mr = Arc::new(MemoryRegion {
            base,
            len,
            lkey: Lkey(key),
            rkey: Rkey(key),
            access,
            buf: RwLock::new(Buffer {
                pages: Pages::new(base, len),
                doorbell: None,
            }),
        });
        self.regions.write().insert(key, Arc::clone(&mr));
        self.tables.fetch_add(1, Ordering::Release);
        mr
    }

    /// The region an lkey or rkey names (MPT lookup; rights are the
    /// caller's to check, [`MemoryRegion::allow`]).
    pub(crate) fn lookup(&self, key: u32) -> Option<Arc<MemoryRegion>> {
        self.regions.read().get(&key).cloned()
    }

    /// Deregister the region with local key `lkey` (verbs
    /// `ibv_dereg_mr`). Future lookups by either key fail; existing `Arc`
    /// handles keep their buffer alive but the NIC will no longer resolve
    /// the keys.
    pub fn deregister(&self, lkey: Lkey) -> bool {
        let removed = self.regions.write().remove(&lkey.0).is_some();
        if removed {
            self.tables.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.read().len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_flag_algebra() {
        let rw = Access::REMOTE_READ | Access::REMOTE_WRITE;
        assert!(rw.allows(Access::REMOTE_READ));
        assert!(rw.allows(Access::REMOTE_WRITE));
        assert!(!rw.allows(Access::REMOTE_ATOMIC));
        assert!(Access::REMOTE_ALL.allows(rw));
        assert!(rw.allows(Access::LOCAL));
    }

    #[test]
    fn a_default_table_starts_where_a_new_one_does() {
        let mr = MrTable::default().register(16, Access::LOCAL);
        assert_ne!(mr.lkey().0, 0);
        assert_ne!(mr.addr(), 0);
        let fresh = MrTable::new().register(16, Access::LOCAL);
        assert_eq!((mr.lkey(), mr.addr()), (fresh.lkey(), fresh.addr()));
    }

    #[test]
    fn register_and_rw_roundtrip() {
        let t = MrTable::new();
        let mr = t.register(1024, Access::REMOTE_ALL);
        mr.write(10, b"hello").unwrap();
        let mut out = [0u8; 5];
        mr.read(10, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn bounds_are_enforced() {
        let t = MrTable::new();
        let mr = t.register(16, Access::REMOTE_ALL);
        assert!(mr.write(12, b"abcde").is_err());
        let mut out = [0u8; 8];
        assert!(mr.read(9, &mut out).is_err());
        assert!(mr.read(8, &mut out).is_ok());
    }

    #[test]
    fn huge_offsets_are_access_violations() {
        let t = MrTable::new();
        let (a, b) = (t.register(16, Access::LOCAL), t.register(16, Access::LOCAL));
        let huge = usize::MAX - 2;
        let violation = |r: Result<()>| matches!(r, Err(FabricError::AccessViolation { .. }));
        assert!(violation(a.write(huge, b"abcd")));
        assert!(violation(a.read(huge, &mut [0u8; 4])));
        assert!(violation(a.dma_to(huge, &b, 0, 4)));
        assert!(violation(a.dma_to(0, &b, huge, 4)));
        assert!(a.fetch_add_u64(usize::MAX - 7, 1).is_err());
    }

    #[test]
    fn an_unwritten_region_reads_zeros_and_commits_nothing() {
        let t = MrTable::new();
        let (a, b) = (t.register(64, Access::LOCAL), t.register(64, Access::LOCAL));
        let mut out = [1u8; 8];
        a.read(4, &mut out).unwrap();
        assert_eq!(out, [0u8; 8]);
        assert_eq!(a.read_vec(0, 64).unwrap(), vec![0u8; 64]);
        assert_eq!(a.read_u64(56).unwrap(), 0);
        b.write(0, &[9u8; 64]).unwrap();
        a.dma_to(8, &b, 16, 8).unwrap();
        assert_eq!(
            b.read_vec(8, 24).unwrap(),
            [[9u8; 8], [0; 8], [9; 8]].concat()
        );
        a.dma_to(0, &a, 32, 16).unwrap();
        assert!(!a.committed(), "reads and DMAs out of a region commit it");
        a.write(0, b"x").unwrap();
        assert!(a.committed());
        assert_eq!(a.read_vec(0, 2).unwrap(), b"x\0");
        a.zero();
        assert!(!a.committed());
        assert_eq!(a.read_vec(0, 2).unwrap(), [0, 0]);
    }

    #[test]
    fn a_consumed_page_is_kept_while_the_region_holds_two() {
        let t = MrTable::new();
        let mr = t.register(4 * PAGE, Access::LOCAL);
        mr.write(PAGE - 4, &[7u8; 2 * PAGE + 8]).unwrap();
        assert_eq!(mr.resident_bytes(), 4 * PAGE, "pages 0 to 3 hold bytes");
        let consume = |offset, len| mr.with_pages(|pages| pages.consume(offset, len)).unwrap();
        // Zeroing that stops short of a page's end hands nothing back.
        consume(PAGE - 4, 2);
        assert_eq!(mr.resident_bytes(), 4 * PAGE);
        // Pages 0 and 1 are handed back while the region holds more
        // than two pages: freed.
        consume(PAGE - 2, PAGE + 2);
        assert_eq!(mr.resident_bytes(), 2 * PAGE);
        // Page 2 is kept as a spare beside page 3, which still holds
        // zeros short of its end.
        consume(2 * PAGE, PAGE + 4);
        assert_eq!(mr.resident_bytes(), 2 * PAGE);
        assert!(mr.committed());
        // The next commit takes the spare; the one after allocates.
        mr.write(0, &[1u8; PAGE + 1]).unwrap();
        assert_eq!(mr.resident_bytes(), 3 * PAGE);
        assert_eq!(mr.read_vec(PAGE - 1, 3).unwrap(), [1, 1, 0]);
        mr.zero();
        assert_eq!(mr.resident_bytes(), 0);
        assert!(!mr.committed());
    }

    #[test]
    fn translate_validates_address_range() {
        let t = MrTable::new();
        let mr = t.register(256, Access::REMOTE_ALL);
        let base = mr.addr();
        assert_eq!(mr.translate(base, 256).unwrap(), 0);
        assert_eq!(mr.translate(base + 10, 1).unwrap(), 10);
        assert!(mr.translate(base - 1, 1).is_err());
        assert!(mr.translate(base + 1, 256).is_err());
        assert!(mr.translate(u64::MAX, 2).is_err());
    }

    #[test]
    fn rkey_lookup_checks_rights() {
        let t = MrTable::new();
        let ro = t.register(64, Access::REMOTE_READ);
        let found = t.lookup(ro.rkey().0).expect("registered");
        assert!(found.allow(Access::REMOTE_READ).is_ok());
        assert!(matches!(
            found.allow(Access::REMOTE_WRITE),
            Err(FabricError::AccessViolation { .. })
        ));
        assert!(t.lookup(999).is_none());
    }

    #[test]
    fn lkey_lookup() {
        let t = MrTable::new();
        let mr = t.register(64, Access::LOCAL);
        assert!(Arc::ptr_eq(&t.lookup(mr.lkey().0).unwrap(), &mr));
        assert!(t.lookup(12345).is_none());
        assert!(t.deregister(mr.lkey()));
        assert!(t.lookup(mr.lkey().0).is_none());
    }

    #[test]
    fn regions_do_not_overlap() {
        let t = MrTable::new();
        let a = t.register(100, Access::LOCAL);
        let b = t.register(100, Access::LOCAL);
        let a_end = a.addr() + a.len() as u64;
        assert!(b.addr() >= a_end, "regions overlap");
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let t = MrTable::new();
        let mr = t.register(64, Access::REMOTE_ALL);
        mr.write_u64(8, 41).unwrap();
        assert_eq!(mr.fetch_add_u64(8, 1).unwrap(), 41);
        assert_eq!(mr.read_u64(8).unwrap(), 42);
    }

    #[test]
    fn cmp_swap_semantics() {
        let t = MrTable::new();
        let mr = t.register(64, Access::REMOTE_ALL);
        mr.write_u64(0, 7).unwrap();
        // Successful swap.
        assert_eq!(mr.cmp_swap_u64(0, 7, 9).unwrap(), 7);
        assert_eq!(mr.read_u64(0).unwrap(), 9);
        // Failed swap leaves value intact, returns current.
        assert_eq!(mr.cmp_swap_u64(0, 7, 11).unwrap(), 9);
        assert_eq!(mr.read_u64(0).unwrap(), 9);
    }

    #[test]
    fn atomics_require_alignment() {
        let t = MrTable::new();
        let mr = t.register(64, Access::REMOTE_ALL);
        assert!(matches!(
            mr.fetch_add_u64(4, 1),
            Err(FabricError::Misaligned(_))
        ));
        assert!(mr.fetch_add_u64(60, 1).is_err()); // out of bounds
    }

    #[test]
    fn dma_to_copies_between_regions() {
        let t = MrTable::new();
        let a = t.register(64, Access::REMOTE_ALL);
        let b = t.register(64, Access::REMOTE_ALL);
        a.write(3, b"payload").unwrap();
        a.dma_to(3, &b, 40, 7).unwrap();
        assert_eq!(b.read_vec(40, 7).unwrap(), b"payload");
        // Bounds violations on either side fail cleanly.
        assert!(a.dma_to(60, &b, 0, 8).is_err());
        assert!(a.dma_to(0, &b, 60, 8).is_err());
    }

    #[test]
    fn dma_to_same_region_handles_overlap() {
        let t = MrTable::new();
        let a = t.register(32, Access::LOCAL);
        a.write(0, b"abcdefgh").unwrap();
        a.dma_to(0, &a, 4, 8).unwrap();
        assert_eq!(a.read_vec(4, 8).unwrap(), b"abcdefgh");
    }

    #[test]
    fn dma_to_opposite_directions_do_not_deadlock() {
        let t = MrTable::new();
        let a = t.register(1 << 12, Access::REMOTE_ALL);
        let b = t.register(1 << 12, Access::REMOTE_ALL);
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let fwd = std::thread::spawn(move || {
            for _ in 0..2000 {
                a2.dma_to(0, &b2, 0, 1 << 12).unwrap();
            }
        });
        for _ in 0..2000 {
            b.dma_to(0, &a, 0, 1 << 12).unwrap();
        }
        fwd.join().unwrap();
    }

    #[test]
    fn u64_helpers_roundtrip() {
        let t = MrTable::new();
        let mr = t.register(64, Access::LOCAL);
        mr.write_u64(16, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(mr.read_u64(16).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }
}
