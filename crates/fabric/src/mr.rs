//! Memory regions, the memory translation table (MTT) and the memory
//! protection table (MPT).
//!
//! A registered [`MemoryRegion`] owns a real heap buffer. Remote operations
//! name it by `(rkey, virtual address)`; the node's [`MrTable`] validates
//! the rkey against the MPT (access rights) and translates the address via
//! the MTT (bounds). Local operations use the `lkey`.
//!
//! Buffers are guarded by a `parking_lot::RwLock`, serializing concurrent
//! DMA against host access. Real RDMA permits torn concurrent access; the
//! lock is a strictly stronger (safe) model, and the canary protocol built
//! on top of it is still exercised logically by the Flock layer.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use flock_sync::clock::Event;
use parking_lot::RwLock;

use crate::types::{FabricError, Lkey, Result, Rkey};

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

    /// The raw rights bitmap — a stable discriminant for keying caches
    /// by region layout (the MR cache keys on `(len, access bits)`).
    pub(crate) const fn bits(self) -> u8 {
        self.0
    }
}

impl std::ops::BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        self.union(rhs)
    }
}

/// A registered memory region backed by a real buffer.
#[derive(Debug)]
pub struct MemoryRegion {
    base: u64,
    len: usize,
    lkey: Lkey,
    rkey: Rkey,
    access: Access,
    buf: RwLock<Box<[u8]>>,
    /// Notified after every DMA into the region ([`MemoryRegion::dma_to`])
    /// while installed: how the task that polls a ring in this region
    /// learns that the NIC wrote to it.
    doorbell: RwLock<Option<Arc<Event>>>,
}

impl MemoryRegion {
    /// Install (or with `None` remove) the event the NIC notifies after
    /// it writes into this region. The owner of a leased region installs
    /// the event its poller idles on; [`crate::Node::release_mr`] removes
    /// it.
    pub fn set_doorbell(&self, event: Option<Arc<Event>>) {
        *self.doorbell.write() = event;
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

    /// Copy `data` into the region at byte `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        if offset + data.len() > self.len {
            return Err(FabricError::AccessViolation {
                addr: self.base + offset as u64,
                len: data.len(),
            });
        }
        self.buf.write()[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Copy from the region at byte `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        if offset + out.len() > self.len {
            return Err(FabricError::AccessViolation {
                addr: self.base + offset as u64,
                len: out.len(),
            });
        }
        out.copy_from_slice(&self.buf.read()[offset..offset + out.len()]);
        Ok(())
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

    /// Run `f` over a mutable view of the whole buffer.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.buf.write())
    }

    /// DMA `len` bytes from this region at `src_off` into `dst` at
    /// `dst_off` — the engine's zero-copy data path: one guarded
    /// `memcpy` between the two buffers, with no intermediate `Vec`
    /// materialized per verb.
    ///
    /// When the regions are distinct, the two buffer guards are taken in
    /// a consistent global order keyed by object identity (pointer
    /// address), *not* by the synthetic virtual base: bases collide
    /// across nodes because every `MrTable` hands them out from the same
    /// origin. That ordering makes concurrent opposite-direction copies
    /// (lane A copies X→Y while lane B copies Y→X) deadlock-free.
    /// A same-region copy takes one write guard and uses `copy_within`
    /// (overlap-safe).
    pub(crate) fn dma_to(
        &self,
        src_off: usize,
        dst: &MemoryRegion,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        if src_off + len > self.len {
            return Err(FabricError::AccessViolation {
                addr: self.base + src_off as u64,
                len,
            });
        }
        if dst_off + len > dst.len {
            return Err(FabricError::AccessViolation {
                addr: dst.base + dst_off as u64,
                len,
            });
        }
        if std::ptr::eq(self, dst) {
            self.buf
                .write()
                .copy_within(src_off..src_off + len, dst_off);
        } else if (self as *const MemoryRegion as usize) < (dst as *const MemoryRegion as usize) {
            let src = self.buf.read();
            let mut d = dst.buf.write();
            d[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
        } else {
            let mut d = dst.buf.write();
            let src = self.buf.read();
            d[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
        }
        // Buffer guards are released: the poller may run at once.
        if let Some(event) = &*dst.doorbell.read() {
            event.notify_all();
        }
        Ok(())
    }

    /// Atomically fetch the 8-byte value at `offset` and add `delta`.
    /// Returns the prior value. `offset` must be 8-byte aligned.
    pub fn fetch_add_u64(&self, offset: usize, delta: u64) -> Result<u64> {
        self.atomic_rmw(offset, |old| old.wrapping_add(delta))
    }

    /// Atomically compare-and-swap the 8-byte value at `offset`.
    /// Returns the prior value (swap succeeded iff it equals `expect`).
    pub fn cmp_swap_u64(&self, offset: usize, expect: u64, swap: u64) -> Result<u64> {
        self.atomic_rmw(offset, |old| if old == expect { swap } else { old })
    }

    fn atomic_rmw(&self, offset: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(FabricError::Misaligned(self.base + offset as u64));
        }
        if offset + 8 > self.len {
            return Err(FabricError::AccessViolation {
                addr: self.base + offset as u64,
                len: 8,
            });
        }
        let mut guard = self.buf.write();
        let bytes: &mut [u8] = &mut guard[offset..offset + 8];
        let old = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
        let new = f(old);
        bytes.copy_from_slice(&new.to_le_bytes());
        Ok(old)
    }
}

/// Per-node registry of memory regions: MTT + MPT.
#[derive(Debug, Default)]
pub struct MrTable {
    regions: RwLock<Vec<Arc<MemoryRegion>>>,
    next_key: AtomicU32,
    next_base: AtomicU64,
}

impl MrTable {
    /// Create an empty table. Synthetic virtual addresses start at a
    /// non-zero base so that address 0 is never valid.
    pub fn new() -> Self {
        MrTable {
            regions: RwLock::new(Vec::new()),
            next_key: AtomicU32::new(1),
            next_base: AtomicU64::new(0x1000_0000),
        }
    }

    /// Register a zeroed region of `len` bytes with the given remote rights.
    pub fn register(&self, len: usize, access: Access) -> Arc<MemoryRegion> {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        // Pad region spacing so adjacent regions never abut (catches
        // off-by-one overruns as violations rather than silent bleed).
        let base = self.next_base.fetch_add(
            (len as u64 + 4096).next_multiple_of(4096),
            Ordering::Relaxed,
        );
        let mr = Arc::new(MemoryRegion {
            base,
            len,
            lkey: Lkey(key),
            rkey: Rkey(key),
            access,
            buf: RwLock::new(vec![0u8; len].into_boxed_slice()),
            doorbell: RwLock::new(None),
        });
        self.regions.write().push(Arc::clone(&mr));
        mr
    }

    /// MPT lookup by remote key, checking `needed` rights.
    pub(crate) fn lookup_rkey(&self, rkey: Rkey, needed: Access) -> Result<Arc<MemoryRegion>> {
        let regions = self.regions.read();
        let mr = regions
            .iter()
            .find(|m| m.rkey == rkey)
            .cloned()
            .ok_or(FabricError::BadRkey(rkey))?;
        if !mr.access.allows(needed) {
            return Err(FabricError::AccessViolation {
                addr: mr.base,
                len: 0,
            });
        }
        Ok(mr)
    }

    /// Lookup by local key.
    pub(crate) fn lookup_lkey(&self, lkey: Lkey) -> Result<Arc<MemoryRegion>> {
        self.regions
            .read()
            .iter()
            .find(|m| m.lkey == lkey)
            .cloned()
            .ok_or(FabricError::BadLkey(lkey))
    }

    /// Deregister the region with local key `lkey` (verbs
    /// `ibv_dereg_mr`). Future lookups by either key fail; existing `Arc`
    /// handles keep their buffer alive but the NIC will no longer resolve
    /// the keys.
    pub fn deregister(&self, lkey: Lkey) -> bool {
        let mut regions = self.regions.write();
        let before = regions.len();
        regions.retain(|m| m.lkey != lkey);
        regions.len() != before
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
        assert!(t.lookup_rkey(ro.rkey(), Access::REMOTE_READ).is_ok());
        assert!(matches!(
            t.lookup_rkey(ro.rkey(), Access::REMOTE_WRITE),
            Err(FabricError::AccessViolation { .. })
        ));
        assert!(matches!(
            t.lookup_rkey(Rkey(999), Access::LOCAL),
            Err(FabricError::BadRkey(_))
        ));
    }

    #[test]
    fn lkey_lookup() {
        let t = MrTable::new();
        let mr = t.register(64, Access::LOCAL);
        assert!(t.lookup_lkey(mr.lkey()).is_ok());
        assert!(matches!(
            t.lookup_lkey(Lkey(12345)),
            Err(FabricError::BadLkey(_))
        ));
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
