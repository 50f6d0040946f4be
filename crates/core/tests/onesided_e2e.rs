//! End-to-end tests of the one-sided fast path and the ALock:
//! export/lease discovery over the control plane, doorbell-batched
//! READ + version validation, torn-read retry against a concurrent
//! publisher, and cohort locking over a real remote CAS word.

use std::sync::Arc;

use flock_core::alock::{ALock, RemoteLockWord};
use flock_core::client::HandleConfig;
use flock_core::onesided::{OneSidedReader, SegmentWriter, SlotLayout};
use flock_core::server::{FlockServer, ServerConfig};
use flock_core::{ConnectionHandle, FlockDomain};
use flock_sync::Stop;

/// A server with one exported value segment (`slots` × `val_cap`) and
/// one exported lock segment (8 words).
fn segment_server(
    domain: &FlockDomain,
    name: &str,
    val_cap: u32,
    slots: u32,
) -> (FlockServer, Arc<SegmentWriter>) {
    let node = domain.add_node(&format!("node-{name}"));
    let server = FlockServer::listen(domain, &node, name, ServerConfig::default());
    let layout = SlotLayout::for_value_cap(val_cap);
    let idx = server.attach_mreg(layout.stride as usize * slots as usize);
    let mr = server.mem_region(idx).expect("region");
    let writer = Arc::new(SegmentWriter::new(mr, 0, layout, slots).expect("writer"));
    server
        .export_segment("values", idx, layout.stride, slots, val_cap as u64)
        .expect("export");
    let lock_idx = server.attach_mreg(64);
    server.export_segment("locks", lock_idx, 8, 8, 0).expect("export");
    (server, writer)
}

#[test]
fn export_lease_roundtrip_and_filter() {
    let domain = FlockDomain::with_defaults();
    let (server, _writer) = segment_server(&domain, "exp", 64, 16);
    let client = domain.add_node("c-exp");
    let handle =
        ConnectionHandle::connect(&domain, &client, "exp", HandleConfig::default()).unwrap();
    let all = handle.fetch_exports(None).unwrap();
    assert_eq!(all.len(), 2);
    assert_eq!(all[0].name, "values");
    assert_eq!(all[1].name, "locks");
    let vals = handle.fetch_exports(Some("values")).unwrap();
    assert_eq!(vals.len(), 1);
    assert_eq!(vals[0].slots, 16);
    assert_eq!(vals[0].meta, 64);
    let layout = SlotLayout::from_lease(&vals[0]);
    assert_eq!(layout, SlotLayout::for_value_cap(64));
    assert!(handle.fetch_exports(Some("nope")).unwrap().is_empty());
    server.shutdown(&domain);
}

#[test]
fn one_sided_reads_see_published_values() {
    let domain = FlockDomain::with_defaults();
    let (server, writer) = segment_server(&domain, "os1", 64, 16);
    for s in 0..16u32 {
        writer.publish(s, format!("value-{s}").as_bytes()).unwrap();
    }
    let client = domain.add_node("c-os1");
    let handle =
        ConnectionHandle::connect(&domain, &client, "os1", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    let lease = handle.fetch_exports(Some("values")).unwrap().remove(0);
    let mut reader = OneSidedReader::new(lease).unwrap();
    let mut buf = vec![0u8; reader.layout().stride as usize];
    for s in 0..16u32 {
        let v = reader.read_slot(&t, s, &mut buf).unwrap();
        assert_eq!(v.word, 1, "first publish is version 1");
        assert_eq!(
            &buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len],
            format!("value-{s}").as_bytes()
        );
    }
    // Republish and observe the version advance.
    writer.publish(3, b"updated").unwrap();
    let v = reader.read_slot(&t, 3, &mut buf).unwrap();
    assert_eq!(v.word, 2);
    assert_eq!(&buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len], b"updated");
    let stats = reader.stats();
    assert_eq!(stats.reads, 17);
    assert_eq!(stats.failures, 0);
    server.shutdown(&domain);
}

#[test]
fn batched_reads_validate_every_slot() {
    let domain = FlockDomain::with_defaults();
    let (server, writer) = segment_server(&domain, "os2", 32, 8);
    for s in 0..8u32 {
        writer.publish(s, &[s as u8; 7]).unwrap();
    }
    let client = domain.add_node("c-os2");
    let handle =
        ConnectionHandle::connect(&domain, &client, "os2", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    let lease = handle.fetch_exports(Some("values")).unwrap().remove(0);
    let mut reader = OneSidedReader::new(lease).unwrap();
    let stride = reader.layout().stride as usize;
    let slots = [6u32, 0, 3];
    let mut buf = vec![0u8; stride * slots.len()];
    let mut out = Vec::new();
    reader.read_slots(&t, &slots, &mut buf, &mut out).unwrap();
    assert_eq!(out.len(), 3);
    for (i, &s) in slots.iter().enumerate() {
        assert_eq!(out[i].len, 7);
        let chunk = &buf[i * stride..][SlotLayout::HEADER..SlotLayout::HEADER + 7];
        assert_eq!(chunk, &[s as u8; 7]);
    }
    server.shutdown(&domain);
}

/// A reader racing a publisher never observes a torn value: every
/// validated read returns a complete published payload (all bytes from
/// the same publish), with retries absorbing in-flight snapshots.
#[test]
fn concurrent_publisher_never_yields_torn_reads() {
    let domain = FlockDomain::with_defaults();
    let (server, writer) = segment_server(&domain, "os3", 64, 2);
    writer.publish(0, &[0u8; 48]).unwrap();
    let stop = Arc::new(Stop::new());
    let publisher = {
        let (writer, stop) = (Arc::clone(&writer), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut fill = 1u8;
            while !stop.is_set() {
                writer.publish(0, &[fill; 48]).unwrap();
                fill = fill.wrapping_add(1);
            }
        })
    };
    let client = domain.add_node("c-os3");
    let handle =
        ConnectionHandle::connect(&domain, &client, "os3", HandleConfig::default()).unwrap();
    let t = handle.register_thread();
    let lease = handle.fetch_exports(Some("values")).unwrap().remove(0);
    let mut reader = OneSidedReader::new(lease).unwrap().with_max_retries(1 << 20);
    let mut buf = vec![0u8; reader.layout().stride as usize];
    let mut last_word = 0;
    for _ in 0..200 {
        let v = reader.read_slot(&t, 0, &mut buf).unwrap();
        assert_eq!(v.len, 48, "torn length escaped validation");
        let val = &buf[SlotLayout::HEADER..SlotLayout::HEADER + v.len];
        assert!(
            val.iter().all(|&b| b == val[0]),
            "torn value escaped validation: {val:?}"
        );
        assert!(v.word >= last_word, "version went backwards");
        last_word = v.word;
    }
    stop.set([]);
    publisher.join().unwrap();
    server.shutdown(&domain);
}

/// Two client threads contend on an ALock whose global word is a real
/// exported server word: mutual exclusion is observable as exact
/// read-modify-write counts on a shared slot, and the cohort amortizes
/// remote CASes via local handoffs.
#[test]
fn alock_over_remote_cas_serializes_writers() {
    let domain = FlockDomain::with_defaults();
    let (server, writer) = segment_server(&domain, "al1", 16, 1);
    writer.publish(0, &0u64.to_le_bytes()).unwrap();
    let client = domain.add_node("c-al1");
    let handle = Arc::new(
        ConnectionHandle::connect(&domain, &client, "al1", HandleConfig::default()).unwrap(),
    );
    // Lock word: word 0 of the "locks" region (mem region index 1).
    let lock = Arc::new(ALock::new(8));
    const PER_THREAD: u64 = 40;
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (handle, lock) = (Arc::clone(&handle), Arc::clone(&lock));
            std::thread::spawn(move || {
                let t = handle.register_thread();
                let word = RemoteLockWord::new(&t, 1, 0, handle.sender_id() as u64 + 1);
                for _ in 0..PER_THREAD {
                    let ticket = lock.acquire(&word).unwrap();
                    // Unprotected read-modify-write on server memory:
                    // only mutual exclusion makes the count exact.
                    let cur = t.read(0, SlotLayout::HEADER as u64, 8).unwrap();
                    let n = u64::from_le_bytes(cur[..8].try_into().unwrap());
                    t.write(0, SlotLayout::HEADER as u64, &(n + 1).to_le_bytes())
                        .unwrap();
                    lock.release(&word, ticket).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let t = handle.register_thread();
    let fin = t.read(0, SlotLayout::HEADER as u64, 8).unwrap();
    assert_eq!(
        u64::from_le_bytes(fin[..8].try_into().unwrap()),
        2 * PER_THREAD,
        "lost update: ALock failed to serialize"
    );
    assert_eq!(
        lock.remote_acquires() + lock.local_handoffs(),
        2 * PER_THREAD
    );
    server.shutdown(&domain);
}
