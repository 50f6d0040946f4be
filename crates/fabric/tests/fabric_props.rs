//! Property-based tests of the fabric's safety invariants: memory
//! translation bounds, cache behavior against a reference model, and
//! atomics linearization under arbitrary operation sequences.

use proptest::collection::vec;
use proptest::prelude::*;

use flock_fabric::cache::Eviction;
use flock_fabric::{Access, ConnCache, MrTable, PAGE};

proptest! {
    /// `translate` accepts exactly the in-bounds ranges.
    #[test]
    fn mr_translate_is_exact(
        len in 1usize..10_000,
        off in 0u64..20_000,
        n in 0usize..20_000,
    ) {
        let t = MrTable::new();
        let mr = t.register(len, Access::REMOTE_ALL);
        let addr = mr.addr() + off;
        let ok = mr.translate(addr, n).is_ok();
        let expect = (off as usize) + n <= len;
        prop_assert_eq!(ok, expect, "off={} n={} len={}", off, n, len);
    }

    /// Reads and writes round-trip anywhere in bounds; out-of-bounds
    /// accesses error and leave the region unchanged.
    #[test]
    fn mr_rw_roundtrip(ops in vec((0u16..128, vec(any::<u8>(), 1..64)), 1..50)) {
        let t = MrTable::new();
        let mr = t.register(128, Access::REMOTE_ALL);
        let mut model = vec![0u8; 128];
        for (off, data) in ops {
            let off = off as usize;
            let r = mr.write(off, &data);
            if off + data.len() <= 128 {
                prop_assert!(r.is_ok());
                model[off..off + data.len()].copy_from_slice(&data);
            } else {
                prop_assert!(r.is_err());
            }
            let mut all = vec![0u8; 128];
            mr.read(0, &mut all).unwrap();
            prop_assert_eq!(&all, &model);
        }
    }

    /// The LRU cache agrees with a straightforward reference
    /// implementation on hits, misses, and residency.
    #[test]
    fn lru_cache_matches_reference(
        capacity in 1usize..32,
        keys in vec(0u64..64, 1..300),
    ) {
        let mut cache = ConnCache::new(capacity);
        // Reference: vec ordered MRU-first.
        let mut model: Vec<u64> = Vec::new();
        for key in keys {
            let hit = cache.access(key);
            let model_hit = model.contains(&key);
            prop_assert_eq!(hit, model_hit);
            model.retain(|&k| k != key);
            model.insert(0, key);
            model.truncate(capacity);
            prop_assert_eq!(cache.len(), model.len());
            for &k in &model {
                prop_assert!(cache.contains(k));
            }
        }
    }

    /// Random eviction never exceeds capacity and keeps every resident
    /// key accountable.
    #[test]
    fn random_cache_respects_capacity(
        capacity in 1usize..32,
        keys in vec(0u64..256, 1..300),
        seed in any::<u64>(),
    ) {
        let mut cache = ConnCache::with_policy(capacity, Eviction::Random, seed);
        let mut inserted = std::collections::HashSet::new();
        for key in keys {
            let hit = cache.access(key);
            if hit {
                prop_assert!(inserted.contains(&key));
            }
            inserted.insert(key);
            prop_assert!(cache.len() <= capacity);
            prop_assert!(cache.contains(key), "just-accessed key must be resident");
        }
    }

    /// Remote atomics on a region linearize: a fetch-add ladder sums
    /// correctly and CAS succeeds exactly when the expectation matches.
    #[test]
    fn atomics_linearize(ops in vec((any::<bool>(), 0u64..16), 1..100)) {
        let t = MrTable::new();
        let mr = t.register(64, Access::REMOTE_ALL);
        let mut model = 0u64;
        for (is_faa, arg) in ops {
            if is_faa {
                let old = mr.fetch_add_u64(0, arg).unwrap();
                prop_assert_eq!(old, model);
                model = model.wrapping_add(arg);
            } else {
                let old = mr.cmp_swap_u64(0, model, arg).unwrap();
                prop_assert_eq!(old, model);
                model = arg;
            }
            prop_assert_eq!(mr.read_u64(0).unwrap(), model);
        }
    }
}

/// The bytes page `i` of a `len`-byte region covers.
fn page_bytes(len: usize, i: usize) -> std::ops::Range<usize> {
    i * PAGE..len.min((i + 1) * PAGE)
}

/// An offset within 128 bytes of a page edge of a region of `len`, or
/// of the page edge past its end: `edge` picks the edge, `jitter` the
/// distance before or after it.
fn near_edge(len: usize, edge: usize, jitter: usize) -> usize {
    ((edge % (len / PAGE + 2)) * PAGE + jitter).saturating_sub(128)
}

proptest! {
    /// A region of pages behaves like one flat byte array: random
    /// writes, reads, DMAs (across regions and within one, overlapping),
    /// atomics, consumer-style zeroing and whole-region zeroing, at
    /// offsets and lengths that straddle page edges, leave every byte as
    /// a `Vec<u8>` model says; and a page no nonzero byte ever reached is
    /// never committed.
    #[test]
    fn a_paged_region_is_a_flat_byte_array(
        lens in (1usize..3 * PAGE + 200, 1usize..3 * PAGE + 200),
        ops in vec(
            (0u8..10, any::<bool>(), (0usize..8, 0usize..256), (0usize..8, 0usize..256), (0usize..700, any::<u8>())),
            1..60,
        ),
    ) {
        let t = MrTable::new();
        let mrs = [t.register(lens.0, Access::REMOTE_ALL), t.register(lens.1, Access::REMOTE_ALL)];
        let mut models = [vec![0u8; lens.0], vec![0u8; lens.1]];
        // Pages of each region a nonzero byte has reached since its last `zero`.
        let mut touched = [std::collections::BTreeSet::new(), std::collections::BTreeSet::new()];
        for (kind, other, (e1, j1), (e2, j2), (n, val)) in ops {
            let r = usize::from(other);
            let (mr, len) = (&mrs[r], models[r].len());
            let at = near_edge(len, e1, j1);
            let to = near_edge(len, e2, j2);
            // Every eighth length spans pages.
            let n = if n % 8 == 0 { n * 8 } else { n };
            let fits = |off: usize, len: usize| off + n <= len;
            match kind {
                0 | 1 => {
                    // A quarter of the writes are zeros.
                    let byte = |k: usize| if val % 4 == 0 { 0 } else { val ^ k as u8 };
                    let data: Vec<u8> = (0..n).map(byte).collect();
                    prop_assert_eq!(mr.write(at, &data).is_ok(), fits(at, len));
                    if fits(at, len) {
                        models[r][at..at + n].copy_from_slice(&data);
                    }
                }
                2 => {
                    let mut out = vec![1u8; n];
                    prop_assert_eq!(mr.read(at, &mut out).is_ok(), fits(at, len));
                    if fits(at, len) {
                        prop_assert_eq!(&out[..], &models[r][at..at + n]);
                    }
                }
                3 => {
                    let (dst, dlen) = (&mrs[1 - r], models[1 - r].len());
                    let ok = fits(at, len) && fits(to.min(dlen), dlen);
                    let to = to.min(dlen);
                    prop_assert_eq!(mr.dma_to(at, dst, to, n).is_ok(), ok);
                    if ok {
                        let src = models[r][at..at + n].to_vec();
                        models[1 - r][to..to + n].copy_from_slice(&src);
                    }
                }
                4 => {
                    // Within 128 bytes of the source: the spans overlap.
                    let to = (at + j2).saturating_sub(128);
                    let ok = fits(at, len) && fits(to, len);
                    prop_assert_eq!(mr.dma_to(at, mr, to, n).is_ok(), ok);
                    if ok {
                        models[r].copy_within(at..at + n, to);
                    }
                }
                5..=7 => {
                    let word = at / 8 * 8;
                    let current = (word + 8 <= len).then(|| read_word(&models[r], word));
                    let delta = u64::from(val) << (8 * (n % 8));
                    let old = match kind {
                        5 => mr.fetch_add_u64(word, delta),
                        6 => {
                            let expect = if val % 2 == 0 { delta } else { current.unwrap_or(0) };
                            mr.cmp_swap_u64(word, expect, delta)
                        }
                        _ => mr.update_u64(word, |w| w.rotate_left(n as u32) ^ delta),
                    };
                    prop_assert_eq!(old.as_ref().ok(), current.as_ref());
                    if let Ok(old) = old {
                        // Re-derive the new word the way the op did.
                        let new = match kind {
                            5 => old.wrapping_add(delta),
                            6 if val % 2 == 0 => if old == delta { delta } else { old },
                            6 => delta,
                            _ => old.rotate_left(n as u32) ^ delta,
                        };
                        models[r][word..word + 8].copy_from_slice(&new.to_le_bytes());
                    }
                }
                8 => {
                    let consumed = mr.with_pages(|pages| pages.consume(at, n));
                    prop_assert_eq!(consumed.is_ok(), fits(at, len));
                    if fits(at, len) {
                        models[r][at..at + n].fill(0);
                    }
                }
                _ => {
                    mr.zero();
                    models[r].fill(0);
                    touched[r].clear();
                }
            }
            for (i, (mr, model)) in mrs.iter().zip(&models).enumerate() {
                let bytes = mr.read_vec(0, model.len()).unwrap();
                let differs = bytes.iter().zip(model).position(|(b, m)| b != m);
                prop_assert!(differs.is_none(), "region {} differs from its model at byte {:?}", i, differs);
                let len = model.len();
                let nonzero = |&p: &usize| model[page_bytes(len, p)].iter().any(|&b| b != 0);
                touched[i].extend((0..len.div_ceil(PAGE)).filter(nonzero));
                // Committed pages and spares come only from pages a
                // nonzero byte reached.
                let reached: usize = touched[i].iter().map(|&p| page_bytes(len, p).len()).sum();
                let resident = mr.resident_bytes();
                prop_assert!(resident <= reached, "{} resident bytes, {} reached", resident, reached);
            }
        }
    }
}

/// The little-endian word at byte `at` of `model`.
fn read_word(model: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(model[at..at + 8].try_into().unwrap())
}
