//! Multi-threaded stress over the sharded record heap.
//!
//! PR 4 replaced the heap's single global allocator mutex with per-thread
//! insertion shards, lock-free (heap-level) `update`/`free` paths, in-page
//! slot reuse, and a recycle queue that hands partially-empty pages back to
//! the allocators. These tests hammer all of it from many threads at once
//! and then check the properties that make the design sound:
//!
//! * every record a thread still owns reads back exactly its bytes — slot
//!   reuse never hands two owners the same storage;
//! * every record a thread freed stays `RecordMissing` forever, even after
//!   its slot (or whole page) is reused — the per-slot generation check;
//! * the live-record gauge, the page gauge, and the store's page
//!   accounting all agree with a ground-truth sweep at quiescence.

use sagiv_blink_repro::pagestore::{PageStore, RecordHeap, StoreConfig, StoreError};
use std::sync::Arc;

fn quick() -> bool {
    std::env::var("QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Deterministic payload: thread, op, and a length that cycles through
/// small / medium / large so reuse sees mixed hole sizes.
fn payload(t: u64, i: u64) -> Vec<u8> {
    let len = 8 + ((t * 31 + i * 7) % 96) as usize;
    let mut v = vec![(t as u8) ^ (i as u8); len];
    v[..8].copy_from_slice(&(t << 32 | i).to_le_bytes());
    v
}

#[test]
fn concurrent_insert_update_free_across_shards() {
    let threads = 8u64;
    let ops = if quick() { 2_000u64 } else { 6_000 };
    let store = PageStore::new(StoreConfig::with_page_size(1024));
    let heap = Arc::new(RecordHeap::with_shards(Arc::clone(&store), 4).unwrap());

    let results: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let heap = Arc::clone(&heap);
            handles.push(scope.spawn(move || {
                let mut owned: Vec<(sagiv_blink_repro::pagestore::RecordId, Vec<u8>)> = Vec::new();
                let mut freed: Vec<sagiv_blink_repro::pagestore::RecordId> = Vec::new();
                for i in 0..ops {
                    let roll = (t * 131 + i * 17) % 10;
                    if roll < 4 || owned.is_empty() {
                        let data = payload(t, i);
                        let rid = heap.insert(&data).expect("insert");
                        owned.push((rid, data));
                    } else if roll < 7 {
                        // Update a record this thread owns (in place when it
                        // fits, moving otherwise — then free the old copy,
                        // exactly like `Db::put` does).
                        let idx = (i as usize * 13) % owned.len();
                        let data = payload(t, i);
                        let old = owned[idx].0;
                        let rid = heap.update(old, &data).expect("update");
                        if rid != old {
                            heap.free(old).expect("free displaced record");
                            freed.push(old);
                        }
                        owned[idx] = (rid, data);
                    } else {
                        let idx = (i as usize * 11) % owned.len();
                        let (rid, _) = owned.swap_remove(idx);
                        heap.free(rid).expect("free");
                        freed.push(rid);
                    }
                    // Every freed id this thread produced must stay dead,
                    // even while other threads churn slots under us.
                    if i % 512 == 0 {
                        for rid in freed.iter().rev().take(8) {
                            assert!(
                                matches!(heap.read(*rid), Err(StoreError::RecordMissing(_))),
                                "freed id resurrected (generation check broken)"
                            );
                        }
                    }
                }
                (owned, freed)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Quiesced: every surviving record reads back its exact bytes, every
    // freed id is still dead.
    let mut survivors = 0u64;
    for (owned, freed) in &results {
        survivors += owned.len() as u64;
        for (rid, want) in owned {
            assert_eq!(&heap.read(*rid).unwrap(), want, "cross-thread clobber");
        }
        for rid in freed {
            assert!(matches!(heap.read(*rid), Err(StoreError::RecordMissing(_))));
        }
    }

    // Gauges agree with ground truth.
    assert_eq!(heap.live_record_count(), survivors);
    assert_eq!(heap.live_records().unwrap().len() as u64, survivors);
    assert_eq!(heap.page_count(), store.live_pages());

    // The run must actually have exercised the new machinery.
    let snap = store.stats().snapshot();
    assert!(
        snap.heap_slots_reused > 0,
        "stress mix must reuse freed slots"
    );
    assert!(
        heap.open_page_count() <= heap.shard_count(),
        "at most one open page per shard"
    );
}

#[test]
fn sharded_churn_does_not_leak_pages() {
    // Insert/free waves: with in-page reuse plus the recycle queue, page
    // count at quiescence must track the live set, not the churn volume.
    let rounds = if quick() { 4 } else { 10 };
    let per_round = 500u64;
    let store = PageStore::new(StoreConfig::with_page_size(1024));
    let heap = Arc::new(RecordHeap::with_shards(Arc::clone(&store), 4).unwrap());
    let mut peak = 0usize;
    for round in 0..rounds {
        let rids: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let heap = Arc::clone(&heap);
                    scope.spawn(move || {
                        (0..per_round)
                            .map(|i| heap.insert(&payload(t, round * per_round + i)).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        peak = peak.max(heap.page_count());
        std::thread::scope(|scope| {
            for chunk in rids.chunks(rids.len() / 4 + 1) {
                let heap = Arc::clone(&heap);
                let chunk = chunk.to_vec();
                scope.spawn(move || {
                    for rid in chunk {
                        heap.free(rid).unwrap();
                    }
                });
            }
        });
    }
    assert_eq!(heap.live_record_count(), 0);
    // Everything was freed; at most the shards' open pages (and queued
    // strays about to be adopted) may remain.
    let leftover = heap.page_count();
    assert!(
        leftover <= heap.shard_count() + heap.queued_page_count(),
        "churn leaked pages: {leftover} left, peak was {peak}"
    );
    assert_eq!(heap.page_count(), store.live_pages());
    // Live release only touches DETACHED empties (OPEN belongs to a shard,
    // QUEUED to the recycle queue); a fresh attach — the recovery path —
    // owns every page and reclaims all of them.
    drop(heap);
    let (heap, inv) = RecordHeap::attach(Arc::clone(&store)).unwrap();
    assert_eq!(inv.empty_pages_released, leftover);
    assert_eq!(store.live_pages(), 0);
    assert_eq!(heap.page_count(), 0);
}
