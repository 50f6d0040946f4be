//! The hydralist backend bridge and its one-sided leaf mirror.
//!
//! [`register_hydra_backend`] puts a [`flock_hydralist::HydraList`]
//! behind the same GET/SET/PING RPC contract [`crate::register_kv_backend`]
//! uses for the hash store, so every edge protocol (memcached, RESP,
//! ping) works unchanged over an ordered index — values are 8-byte LE
//! `u64`s, the paper's §8.6 workload shape.
//!
//! [`HydraMirror`] adds the one-sided leg: the data-layer leaf list is
//! mirrored into an exported segment, one seqlock slot per arena node,
//! encoded as
//!
//! ```text
//! [min_key: u64][next: u64, u64::MAX = NIL][count: u32][pad: u32][(key, value) × count]
//! ```
//!
//! Every insert republishes exactly the touched nodes (via
//! [`flock_hydralist::HydraList::insert_watch`]), new split node first
//! so a forward-walking reader never follows a `next` into an
//! unpublished slot. [`HydraReader`] is that reader: it chases the leaf
//! chain from node 0 with raw READs, validating each leaf's version
//! word, and stops as soon as the next leaf's `min_key` proves the key
//! cannot be further right — the same stale-search-layer tolerance the
//! server-side lookup has, minus the search layer.

use std::sync::Arc;

use flock_core::error::Result;
use flock_core::onesided::{OneSidedReader, ReadStats, SegmentWriter, SlotLayout};
use flock_core::server::FlockServer;
use flock_core::{ConnectionHandle, FlThread, FlockError};
use flock_hydralist::HydraList;

use crate::rpc::{RPC_GET, RPC_PING, RPC_SET, TAG_HIT, TAG_MISS};

/// Export name of the mirrored leaf segment.
const HYDRA_SEGMENT: &str = "hydra-leaves";

/// Encoded-leaf sentinel for "no next node".
const NEXT_NIL: u64 = u64::MAX;

/// Fixed part of the leaf encoding preceding the entries.
const LEAF_HEADER: usize = 24;

/// Bytes of one `(key, value)` entry.
const ENTRY_BYTES: usize = 16;

/// Register GET/SET/PING handlers backed by `hydra`. GET replies
/// `[TAG_HIT, value × 8]` or `[TAG_MISS]`; SET takes `[key × 8, value × 8]`.
pub fn register_hydra_backend(server: &FlockServer, hydra: Arc<HydraList>) {
    let h_get = Arc::clone(&hydra);
    server.reg_handler(RPC_GET, move |req| {
        let Some(key) = read_u64(req, 0) else {
            return vec![TAG_MISS];
        };
        match h_get.get(key) {
            Some(v) => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_HIT);
                out.extend_from_slice(&v.to_le_bytes());
                out
            }
            None => vec![TAG_MISS],
        }
    });
    server.reg_handler(RPC_SET, move |req| {
        let (Some(key), Some(value)) = (read_u64(req, 0), read_u64(req, 8)) else {
            return vec![TAG_MISS];
        };
        hydra.insert(key, value);
        vec![TAG_HIT]
    });
    server.reg_handler(RPC_PING, |_req| vec![TAG_HIT]);
}

/// Register the same contract with SETs routed through a leaf mirror:
/// the index plus an exported segment one-sided readers traverse.
/// `max_nodes` bounds the mirrored arena (inserts that grow past it
/// still land in the index; the overflow leaves just aren't mirrored
/// and readers fall back to RPC).
pub fn register_hydra_mirror_backend(
    server: &FlockServer,
    hydra: Arc<HydraList>,
    max_nodes: u32,
) -> Result<Arc<HydraMirror>> {
    let mirror = HydraMirror::new(server, Arc::clone(&hydra), max_nodes)?;
    // The plain backend's GET and PING; its SET is replaced below.
    register_hydra_backend(server, hydra);
    let set_mirror = Arc::clone(&mirror);
    server.reg_handler(RPC_SET, move |req| {
        let (Some(key), Some(value)) = (read_u64(req, 0), read_u64(req, 8)) else {
            return vec![TAG_MISS];
        };
        set_mirror.insert(key, value);
        vec![TAG_HIT]
    });
    Ok(mirror)
}

fn read_u64(req: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(req.get(at..at + 8)?.try_into().ok()?))
}

/// A [`HydraList`] whose data-layer leaves are mirrored into an
/// exported one-sided segment, slot = arena index.
pub struct HydraMirror {
    hydra: Arc<HydraList>,
    writer: Arc<SegmentWriter>,
    max_nodes: u32,
}

impl HydraMirror {
    /// Attach and export a leaf segment sized for `max_nodes` nodes of
    /// `hydra`'s configured capacity. Capacities above ~29 overflow the
    /// per-slot READ budget and are rejected by the reader side.
    pub fn new(
        server: &FlockServer,
        hydra: Arc<HydraList>,
        max_nodes: u32,
    ) -> Result<Arc<HydraMirror>> {
        let val_cap = (LEAF_HEADER + ENTRY_BYTES * hydra.node_capacity()) as u32;
        let layout = SlotLayout::for_value_cap(val_cap);
        let idx = server.attach_mreg(layout.stride as usize * max_nodes as usize);
        let mr = server.mem_region(idx).expect("region just attached");
        let writer = Arc::new(SegmentWriter::new(mr, 0, layout, max_nodes)?);
        server.export_segment(HYDRA_SEGMENT, idx, layout.stride, max_nodes, val_cap as u64)?;
        let mirror = Arc::new(HydraMirror {
            hydra,
            writer,
            max_nodes,
        });
        mirror.publish_all()?;
        Ok(mirror)
    }

    /// The mirrored index.
    pub fn hydra(&self) -> &Arc<HydraList> {
        &self.hydra
    }

    /// Insert and republish every touched leaf, newest node first.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let mut touched = [0usize; 4];
        let mut n = 0;
        let prev = self.hydra.insert_watch(key, value, &mut |idx| {
            if n < touched.len() {
                touched[n] = idx;
                n += 1;
            }
        });
        // Callback order is (new, old) on a split: the new node goes
        // live before the shrunken old node that points at it, so a
        // forward-walking reader never follows next into a stale slot.
        for &idx in &touched[..n] {
            let _ = self.publish_node(idx);
        }
        prev
    }

    /// Republish every node currently in the arena (bulk-load path).
    pub(crate) fn publish_all(&self) -> Result<()> {
        for idx in 0..self.hydra.node_count() {
            self.publish_node(idx)?;
        }
        Ok(())
    }

    /// Encode and seqlock-publish one arena node. Nodes past the
    /// mirrored bound are silently skipped.
    pub(crate) fn publish_node(&self, idx: usize) -> Result<()> {
        if idx >= self.max_nodes as usize {
            return Ok(());
        }
        let Some((min_key, next, entries)) = self.hydra.export_node(idx) else {
            return Ok(());
        };
        let mut body = Vec::with_capacity(LEAF_HEADER + ENTRY_BYTES * entries.len());
        body.extend_from_slice(&min_key.to_le_bytes());
        let next_word = match next {
            Some(n) => n as u64,
            None => NEXT_NIL,
        };
        body.extend_from_slice(&next_word.to_le_bytes());
        body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        for (k, v) in &entries {
            body.extend_from_slice(&k.to_le_bytes());
            body.extend_from_slice(&v.to_le_bytes());
        }
        self.writer.publish(idx as u32, &body)?;
        Ok(())
    }
}

/// A borrowed decode of one mirrored leaf.
pub struct LeafView<'a> {
    /// Smallest key the node can hold.
    pub min_key: u64,
    /// Arena index of the next leaf, if any.
    pub next: Option<u32>,
    entries: &'a [u8],
}

impl<'a> LeafView<'a> {
    /// Decode `body` (the slot's value bytes). `None` on any framing
    /// violation — truncated header, count overrunning the body, or an
    /// out-of-range next pointer.
    pub fn decode(body: &'a [u8]) -> Option<LeafView<'a>> {
        if body.len() < LEAF_HEADER {
            return None;
        }
        let min_key = u64::from_le_bytes(body[0..8].try_into().ok()?);
        let next_word = u64::from_le_bytes(body[8..16].try_into().ok()?);
        let count = u32::from_le_bytes(body[16..20].try_into().ok()?) as usize;
        let entries = body.get(LEAF_HEADER..LEAF_HEADER + count * ENTRY_BYTES)?;
        let next = if next_word == NEXT_NIL {
            None
        } else {
            Some(u32::try_from(next_word).ok()?)
        };
        Some(LeafView {
            min_key,
            next,
            entries,
        })
    }

    /// Number of entries in the leaf.
    pub fn count(&self) -> usize {
        self.entries.len() / ENTRY_BYTES
    }

    /// The `i`-th `(key, value)` entry.
    pub fn entry(&self, i: usize) -> (u64, u64) {
        let at = i * ENTRY_BYTES;
        let k = u64::from_le_bytes(self.entries[at..at + 8].try_into().expect("8 bytes"));
        let v = u64::from_le_bytes(self.entries[at + 8..at + 16].try_into().expect("8 bytes"));
        (k, v)
    }

    /// Binary-search the sorted run for `key`.
    pub fn find(&self, key: u64) -> Option<u64> {
        let (mut lo, mut hi) = (0usize, self.count());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (k, v) = self.entry(mid);
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(v),
            }
        }
        None
    }
}

/// Client-side one-sided traversal of the mirrored leaf chain.
///
/// One instance per application thread; the landing buffer is reused so
/// the traversal allocates nothing in steady state.
pub struct HydraReader {
    reader: OneSidedReader,
    buf: Vec<u8>,
    max_hops: u32,
}

impl HydraReader {
    /// Fetch the [`HYDRA_SEGMENT`] lease and build a reader over it.
    pub fn new(handle: &ConnectionHandle) -> Result<HydraReader> {
        let mut leases = handle.fetch_exports(Some(HYDRA_SEGMENT))?;
        let lease = leases
            .pop()
            .ok_or(FlockError::RemoteOpFailed("hydra segment not exported"))?;
        let reader = OneSidedReader::new(lease)?.with_max_retries(64);
        let buf = vec![0u8; reader.layout().stride as usize];
        Ok(HydraReader {
            reader,
            buf,
            max_hops: 256,
        })
    }

    /// One-sided reader counters (verbs, retries, failures).
    pub fn stats(&self) -> ReadStats {
        self.reader.stats()
    }

    /// Look up `key` by chasing the leaf chain from node 0.
    /// `Ok(None)` is an authoritative miss; errors (unpublished slot,
    /// retry exhaustion, chain past the mirrored bound) mean the mirror
    /// cannot answer and the caller should fall back to RPC.
    pub fn get(&mut self, t: &FlThread, key: u64) -> Result<Option<u64>> {
        let mut slot = 0u32;
        for _ in 0..self.max_hops {
            let v = self.reader.read_slot(t, slot, &mut self.buf)?;
            let body = &self.buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len];
            let leaf =
                LeafView::decode(body).ok_or(FlockError::RemoteOpFailed("unpublished leaf"))?;
            if leaf.min_key > key {
                // The previous leaf was the rightmost candidate.
                return Ok(None);
            }
            if let Some(value) = leaf.find(key) {
                return Ok(Some(value));
            }
            match leaf.next {
                None => return Ok(None),
                Some(n) if n < self.reader.slots() => slot = n,
                Some(_) => return Err(FlockError::RemoteOpFailed("leaf beyond mirror")),
            }
        }
        Err(FlockError::RemoteOpFailed("leaf chain too long"))
    }
}
