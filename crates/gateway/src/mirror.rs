//! The mirrored kv backend and its one-sided read client.
//!
//! [`register_kv_mirror_backend`] is [`crate::register_kv_backend`]
//! plus a one-sided mirror: every SET, after updating the store,
//! seqlock-publishes `[key: u64][value]` into a slot of an exported
//! value segment (`flock_core::onesided::SegmentWriter`), carrying the
//! store's own version word so RPC readers and one-sided readers agree
//! on versions. Slots are keyed `key % slots`; on aliasing the slot
//! holds the last writer and the embedded key tells a reader whether
//! the slot is *its* key.
//!
//! [`KvReadClient`] is the client side of the crossover experiment: a
//! GET goes either through the coalesced RPC path or through a raw
//! one-sided READ + validation, steered by
//! [`flock_kvstore::ReadMode`] — `Rpc`, `OneSided`, or `Adaptive`
//! (EWMAs of observed value size, torn-read retry rate, and per-path
//! read latency, [`flock_kvstore::AdaptivePolicy`]). Any one-sided
//! miss — embedded key mismatch, unpublished slot, retry-bound
//! exhaustion — falls back to the authoritative RPC path.

use std::sync::Arc;

use flock_core::error::Result;
use flock_core::onesided::{OneSidedReader, SegmentWriter, SlotLayout};
use flock_core::server::FlockServer;
use flock_core::{ConnectionHandle, FlThread};
use flock_kvstore::{AdaptivePolicy, KvStore, ReadMode};
use flock_sync::clock;

use crate::rpc::{RPC_GET, RPC_PING, RPC_SET, TAG_HIT, TAG_MISS};

/// Export name of the mirrored value segment.
const KV_SEGMENT: &str = "kv-values";

/// Bytes of key prefix inside each mirrored slot value.
const KEY_PREFIX: usize = 8;

/// Register GET/SET/PING handlers backed by `kv`, with SETs mirrored
/// into an exported one-sided segment of `slots` slots holding values
/// up to `max_value` bytes. Returns the writer (tests and warm-up
/// loaders publish through it directly).
pub fn register_kv_mirror_backend(
    server: &FlockServer,
    kv: Arc<KvStore>,
    max_value: u32,
    slots: u32,
) -> Result<Arc<SegmentWriter>> {
    let val_cap = max_value + KEY_PREFIX as u32;
    let layout = SlotLayout::for_value_cap(val_cap);
    let idx = server.attach_mreg(layout.stride as usize * slots as usize);
    let mr = server.mem_region(idx).expect("region just attached");
    let writer = Arc::new(SegmentWriter::new(mr, 0, layout, slots)?);
    server.export_segment(KV_SEGMENT, idx, layout.stride, slots, val_cap as u64)?;

    let kv_get = Arc::clone(&kv);
    server.reg_handler(RPC_GET, move |req| {
        let Some(key) = read_key(req) else {
            return vec![TAG_MISS];
        };
        match kv_get.get(key) {
            Some((value, _version)) => {
                let mut out = Vec::with_capacity(1 + value.len());
                out.push(TAG_HIT);
                out.extend_from_slice(&value);
                out
            }
            None => vec![TAG_MISS],
        }
    });
    let set_writer = Arc::clone(&writer);
    server.reg_handler(RPC_SET, move |req| {
        let Some(key) = read_key(req) else {
            return vec![TAG_MISS];
        };
        let value = &req[8..];
        kv.put(key, value);
        // Mirror with the store's version word: one-sided readers see
        // the same version an RPC validator would. Oversize values
        // publish the bare key (a spill marker) so the slot never
        // retains a stale inline value — readers fall back to RPC.
        let word = kv.version_word(key).unwrap_or(1);
        let slot = (key % u64::from(set_writer.slots())) as u32;
        let inline = if value.len() <= max_value as usize {
            value
        } else {
            &[]
        };
        let mut payload = Vec::with_capacity(KEY_PREFIX + inline.len());
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(inline);
        // A full slot is impossible by construction (val_cap covers
        // the prefix); an error here would mean a corrupt layout.
        let _ = set_writer.publish_with_word(slot, &payload, word);
        vec![TAG_HIT]
    });
    server.reg_handler(RPC_PING, |_req| vec![TAG_HIT]);
    Ok(writer)
}

/// The leading key hash, or `None` for truncated requests.
fn read_key(req: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(req.get(..8)?.try_into().ok()?))
}

/// Per-path read counters a [`KvReadClient`] accumulates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KvReadStats {
    /// GETs served by a validated one-sided READ.
    pub one_sided: u64,
    /// GETs served by the RPC path (chosen or fallen back to).
    pub rpc: u64,
    /// One-sided attempts abandoned to the RPC fallback.
    pub fallbacks: u64,
}

/// A client-side GET/SET front end honoring [`ReadMode`].
///
/// One instance per application thread (it owns the [`FlThread`] and a
/// reusable landing buffer, so the one-sided path stays allocation-free
/// in steady state).
pub struct KvReadClient {
    thread: FlThread,
    reader: OneSidedReader,
    mode: ReadMode,
    policy: AdaptivePolicy,
    buf: Vec<u8>,
    req: Vec<u8>,
    stats: KvReadStats,
}

impl KvReadClient {
    /// Build a client over `handle`: registers a thread and fetches the
    /// [`KV_SEGMENT`] lease over the control path.
    pub fn new(handle: &ConnectionHandle, mode: ReadMode) -> Result<KvReadClient> {
        let thread = handle.register_thread();
        let mut leases = handle.fetch_exports(Some(KV_SEGMENT))?;
        let lease = leases
            .pop()
            .ok_or(flock_core::FlockError::RemoteOpFailed("kv segment not exported"))?;
        let reader = OneSidedReader::new(lease)?.with_max_retries(8);
        let buf = vec![0u8; reader.layout().stride as usize];
        Ok(KvReadClient {
            thread,
            reader,
            mode,
            policy: AdaptivePolicy::new(),
            buf,
            req: Vec::new(),
            stats: KvReadStats::default(),
        })
    }

    /// The underlying Flock thread (for mixing in raw RPCs).
    pub fn thread(&self) -> &FlThread {
        &self.thread
    }

    /// Per-path counters so far.
    pub fn stats(&self) -> KvReadStats {
        self.stats
    }

    /// One-sided reader counters (verbs, retries, failures).
    pub fn reader_stats(&self) -> flock_core::onesided::ReadStats {
        self.reader.stats()
    }

    /// SET through the RPC path (writes always go to the store, which
    /// mirrors into the segment server-side). Reuses the client's
    /// request scratch, so steady-state SETs don't allocate.
    pub fn set(&mut self, key: u64, value: &[u8]) -> Result<()> {
        self.req.clear();
        self.req.extend_from_slice(&key.to_le_bytes());
        self.req.extend_from_slice(value);
        let reply = self.thread.call(RPC_SET, &self.req)?;
        if reply.first() == Some(&TAG_HIT) {
            Ok(())
        } else {
            Err(flock_core::FlockError::RemoteOpFailed("set rejected"))
        }
    }

    /// GET: `out` receives the value bytes on a hit (cleared either
    /// way); returns whether the key was found.
    ///
    /// Under [`ReadMode::Adaptive`] the *whole* GET is timed and the
    /// latency is attributed to the path that was chosen — a fallback's
    /// wasted READ is part of what choosing one-sided cost, and the
    /// value size a fallback learns from the RPC reply still feeds the
    /// size EWMA (the spill marker itself says nothing about size).
    pub fn get(&mut self, key: u64, out: &mut Vec<u8>) -> Result<bool> {
        out.clear();
        let adaptive = self.mode == ReadMode::Adaptive;
        let one_sided = match self.mode {
            ReadMode::Rpc => false,
            ReadMode::OneSided => true,
            ReadMode::Adaptive => self.policy.decide(),
        };
        let start = if adaptive { clock::now_ns() } else { 0 };
        let retries_before = self.reader.stats().retries;
        if one_sided {
            match self.get_one_sided(key, out) {
                Ok(Some(hit)) => {
                    self.stats.one_sided += 1;
                    if adaptive {
                        let spent = (self.reader.stats().retries - retries_before) as u32;
                        self.policy.observe_one_sided(
                            out.len(),
                            spent,
                            clock::now_ns().saturating_sub(start),
                        );
                    }
                    return Ok(hit);
                }
                Ok(None) => {
                    // Alias or unpublished slot: the RPC path decides.
                    self.stats.fallbacks += 1;
                }
                Err(_) => {
                    // Retry bound exhausted under write pressure — the
                    // exact signal Adaptive steers on.
                    self.stats.fallbacks += 1;
                }
            }
        }
        self.stats.rpc += 1;
        let reply = self.thread.call(RPC_GET, &key.to_le_bytes())?;
        let hit = reply.first() == Some(&TAG_HIT);
        if hit {
            out.extend_from_slice(&reply[1..]);
        }
        if adaptive {
            let lat = clock::now_ns().saturating_sub(start);
            if one_sided {
                let spent = (self.reader.stats().retries - retries_before) as u32;
                self.policy.observe_one_sided(out.len(), spent, lat);
            } else {
                self.policy.observe_rpc(out.len(), lat);
            }
        }
        Ok(hit)
    }

    /// The one-sided leg: READ + validate the key's slot. `Ok(Some)` is
    /// an authoritative hit/miss; `Ok(None)` means the slot cannot
    /// answer for this key (aliased or never published).
    fn get_one_sided(&mut self, key: u64, out: &mut Vec<u8>) -> Result<Option<bool>> {
        let slot = (key % u64::from(self.reader.slots())) as u32;
        let v = self.reader.read_slot(&self.thread, slot, &mut self.buf)?;
        // `len == KEY_PREFIX` is the oversize spill marker (and, by the
        // same token, an empty value) — either way the RPC path answers.
        if v.len <= KEY_PREFIX {
            return Ok(None); // never published, or value not inline
        }
        let body = &self.buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len];
        let slot_key = u64::from_le_bytes(body[..KEY_PREFIX].try_into().expect("8 bytes"));
        if slot_key != key {
            return Ok(None); // alias holds a different key
        }
        out.extend_from_slice(&body[KEY_PREFIX..]);
        Ok(Some(true))
    }
}
