//! Crash a durable tree mid-workload and watch recovery put it back
//! together.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```
//!
//! The demo builds a tree on the file-backed store, arms the fault
//! injector so the write-ahead log "loses power" after a few thousand more
//! records, keeps inserting until the simulated crash hits, then reopens
//! the directory: the WAL replays, the Fig. 2 repair rebuilds the index
//! levels from the leaf chain, and every committed key is back.

use blink_durable::{create_tree, open_tree, DurableConfig};
use sagiv_blink::{TreeConfig, UnderflowPolicy};

fn main() {
    let dir = std::env::temp_dir().join(format!("blink-crash-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || DurableConfig::new(&dir);
    let tree_cfg = || TreeConfig::with_k_and_policy(8, UnderflowPolicy::Inline);

    println!("== phase 1: build a durable tree, then crash it ==\n");
    let committed = {
        let (store, tree) = create_tree(cfg(), tree_cfg()).expect("create");
        let mut session = tree.session();
        // 2000 inserts land safely...
        for i in 0..2000u64 {
            tree.insert(&mut session, i * 17 % 5000, i).expect("insert");
        }
        // ...then the disk dies 500 WAL records into the rest.
        store.fault().crash_after_wal_records(500);
        let mut committed = 0u64;
        for i in 2000..10_000u64 {
            match tree.insert(&mut session, i * 17 % 5000, i) {
                Ok(_) => committed = i,
                Err(e) => {
                    println!("crash at insert #{i}: {e}");
                    break;
                }
            }
        }
        let snap = store.store().stats().snapshot();
        println!(
            "at crash: {} WAL records in {} fsync batches, {} live pages",
            snap.wal_records,
            snap.fsync_hist.count(),
            store.store().live_pages()
        );
        committed
        // store + tree dropped here: the process "dies".
    };

    println!("\n== phase 2: reopen the directory ==\n");
    let (store, tree, recovery) = open_tree(cfg(), tree_cfg()).expect("recover");
    println!(
        "replayed {} WAL records; repair: {}",
        recovery.wal_records_replayed,
        if recovery.repaired {
            format!(
                "rebuilt {} index nodes over {} leaves, trimmed {}, freed {} orphan pages",
                recovery.rebuilt_internal_nodes,
                recovery.leaves,
                recovery.trimmed_leaves,
                recovery.freed_pages
            )
        } else {
            "not needed (clean shutdown)".into()
        }
    );

    let mut session = tree.session();
    let report = tree.verify(false).expect("verify");
    report.assert_ok();
    println!(
        "verify: OK — height {}, {} leaves, {} pairs",
        report.height, report.leaf_count, report.leaf_pairs
    );
    for i in 0..=committed {
        let key = i * 17 % 5000;
        assert!(
            tree.search(&mut session, key).expect("search").is_some(),
            "committed key {key} lost"
        );
    }
    println!("all inserts up to #{committed} are readable — nothing committed was lost");

    // The recovered tree is a normal tree: keep writing, checkpoint, done.
    for i in 0..100u64 {
        tree.insert(&mut session, 1_000_000 + i, i).expect("insert");
    }
    store.checkpoint().expect("checkpoint");
    println!("post-recovery writes + checkpoint succeeded");

    drop(tree);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
