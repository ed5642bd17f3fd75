//! §5's compression: the space it recovers, the restarts it causes, the
//! passes it needs, and the design details it rests on.
//!
//! * E3 — space behaviour under deletions (figure as a time-series
//!   table). Paper claims (§1, §5): \[8\] wastes space under deletion
//!   ("space may be wasted and the height of the tree may be bigger than
//!   necessary"); Sagiv's compression keeps every node at least half full,
//!   releases empty nodes, and reduces the height. Both compression
//!   deployments (background scanner, queue workers fed by deletions) are
//!   measured. Expected shape: without compression, leaf count stays flat
//!   as pairs drain (fill → 0); with either compression mode, node count
//!   tracks the data and fill stays ≥ ~50%.
//! * E4 — restart frequency under concurrent compression. Paper claim
//!   (§1, §5.2): restarting the occasional process that reaches a wrong
//!   node is cheaper than making everyone take locks, because "it is
//!   reasonable to assume that the problem occurs infrequently". Expected
//!   shape: restarts per 1000 operations stay tiny (≪ 1) even with several
//!   compression workers; merge-pointer follows (the cheap redirect that
//!   avoids a full restart) dominate over full restarts.
//! * E6 — scanner passes to collapse an emptied tree. Paper claim (§5.1):
//!   "One pass of compress-level over all the levels of T is not going to
//!   reduce the tree to a single node; rather, O(log₂ n) passes over the
//!   tree are required, where n is the number of leaves." Expected shape:
//!   passes grow like log₂(leaves) — each pass merges adjacent sibling
//!   pairs, roughly halving the node count per level.
//! * E9 — ablations of two details the paper singles out. **Write
//!   ordering** (§5.2 + acknowledgment): "the child which gains new data
//!   should be rewritten first and then the parent and the other child",
//!   which confines wrong-node restarts to the B→A-shift case; ablation:
//!   always write left child → parent → right child. **Merge pointers**
//!   (§5.2 case 1, after \[4\]): a deleted node points at the node that
//!   absorbed it, so a reader "continues to A instead of having to
//!   restart"; ablation: deleted nodes carry no pointer. Plus the
//!   deployment comparison the abstract offers: queue workers vs
//!   compressing inline after each deletion. Expected shape: ablations
//!   stay correct but pay more restarts; inline compression trades deleter
//!   latency for zero background threads.

use crate::{banner, fresh_store, quick, run_config, sagiv, sagiv_no_compress, sagiv_with, scale};
use blink_baselines::{ConcurrentIndex, LehmanYaoTree};
use blink_harness::runner::run_workload;
use blink_harness::workload::{KeyDist, Mix};
use blink_harness::Table;
use sagiv_blink::{BLinkTree, CompressorPool, TreeConfig, UnderflowPolicy};
use std::sync::Arc;

pub fn exp3() {
    banner(
        "E3: space under delete-heavy load",
        "compression keeps nodes >= half full and shrinks the tree; [8] never does",
    );
    let k = 8;
    let n = scale(100_000);
    let checkpoints = 10u64;

    // Four configurations over an identical delete sequence.
    let s_queue = sagiv(k);
    let s_scan = sagiv_no_compress(k);
    let s_none = sagiv_no_compress(k);
    let ly = LehmanYaoTree::create(fresh_store(), k).unwrap();

    let mut qs = s_queue.session();
    let mut ss = s_scan.session();
    let mut ns = s_none.session();
    let mut ls = ly.session();
    for i in 0..n {
        s_queue.insert(&mut qs, i, i).unwrap();
        s_scan.insert(&mut ss, i, i).unwrap();
        s_none.insert(&mut ns, i, i).unwrap();
        ly.insert(&mut ls, i, i).unwrap();
    }

    let pool = CompressorPool::spawn(&s_queue, 2);

    let mut table = Table::new(vec![
        "deleted %",
        "queue: leaves/fill",
        "scanner: leaves/fill",
        "none: leaves/fill",
        "lehman-yao: leaves/fill",
    ]);

    let fill_of = |t: &Arc<BLinkTree>| {
        let rep = t.verify(false).unwrap();
        (rep.leaf_count, rep.avg_leaf_fill)
    };

    for cp in 1..=checkpoints {
        let lo = (cp - 1) * n / checkpoints;
        let hi = cp * n / checkpoints;
        for i in lo..hi {
            s_queue.delete(&mut qs, i).unwrap();
            s_scan.delete(&mut ss, i).unwrap();
            s_none.delete(&mut ns, i).unwrap();
            ly.delete(&mut ls, i).unwrap();
        }
        // The scanner deployment runs a background pass per checkpoint.
        let mut scan_sess = s_scan.session();
        s_scan.compress_pass(&mut scan_sess).unwrap();
        // Give queue workers a moment to keep up, as a live system would.
        while s_queue.queue_len() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (ql, qf) = fill_of(&s_queue);
        let (sl, sf) = fill_of(&s_scan);
        let (nl, nf) = fill_of(&s_none);
        let (lyl, _, lyf) = ly.leaf_stats().unwrap();
        table.row(vec![
            format!("{}%", cp * 100 / checkpoints),
            format!("{ql} / {qf:.2}"),
            format!("{sl} / {sf:.2}"),
            format!("{nl} / {nf:.2}"),
            format!("{lyl} / {lyf:.2}"),
        ]);
    }
    pool.stop();

    // Final heights after full deletion + a finishing fixpoint for the
    // compressed deployments.
    let mut qs2 = s_queue.session();
    s_queue.compress_drain(&mut qs2, 1_000_000).unwrap();
    s_queue.compress_to_fixpoint(&mut qs2, 64).unwrap();
    let mut ss2 = s_scan.session();
    s_scan.compress_to_fixpoint(&mut ss2, 64).unwrap();

    print!("{table}");
    println!();
    println!(
        "final height after deleting everything: queue={} scanner={} none={} lehman-yao={}",
        s_queue.height().unwrap(),
        s_scan.height().unwrap(),
        s_none.height().unwrap(),
        ly.height().unwrap(),
    );
    println!(
        "pages reclaimed: queue={} scanner={}",
        s_queue.counters().snapshot().reclaimed + s_queue.reclaim().unwrap() as u64,
        s_scan.reclaim().unwrap(),
    );
}

pub fn exp4() {
    banner(
        "E4: traversal restarts under compression",
        "wrong-node restarts are infrequent; redirects via merge pointers are cheap",
    );
    let k = 8;
    let mut table = Table::new(vec![
        "compression workers",
        "ops",
        "restarts/kop",
        "merge-ptr follows/kop",
        "merges done",
        "ops/s",
    ]);

    for workers in [0usize, 1, 2, 4] {
        let tree = sagiv(k);
        let pool = (workers > 0).then(|| CompressorPool::spawn(&tree, workers));
        let index: Arc<dyn ConcurrentIndex> = Arc::clone(&tree) as _;
        // 10s/10i/80d: maximum compression churn.
        let cfg = run_config(
            50_000,
            100_000,
            KeyDist::Uniform,
            Mix::DELETE_HEAVY,
            scale(100_000),
            4,
        );
        let r = run_workload(&index, &cfg);
        if let Some(p) = pool {
            p.stop();
        }
        let c = tree.counters().snapshot();
        table.row(vec![
            workers.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.restarts_per_kop()),
            format!(
                "{:.3}",
                1000.0 * r.sessions.merge_pointer_follows as f64 / r.total_ops as f64
            ),
            c.merges.to_string(),
            format!("{:.0}", r.ops_per_sec()),
        ]);
        assert_eq!(r.errors, 0);
    }
    print!("{table}");
    println!();
    println!("workers=0 keeps the queue idle: it is the no-compression control row.");
}

pub fn exp6() {
    banner(
        "E6: scanner passes to collapse an emptied tree",
        "O(log2 n) passes over the tree are required",
    );
    let k = 2; // small nodes -> tall trees -> clear logarithmic growth
    let sizes: &[u64] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new(vec![
        "keys",
        "leaves before",
        "height before",
        "passes to single leaf",
        "log2(leaves)",
    ]);
    for &n in sizes {
        let t = sagiv_no_compress(k);
        let mut s = t.session();
        for i in 0..n {
            t.insert(&mut s, i, i).unwrap();
        }
        let rep = t.verify(false).unwrap();
        rep.assert_ok();
        let leaves = rep.leaf_count;
        let h = rep.height;
        for i in 0..n {
            t.delete(&mut s, i).unwrap();
        }
        let passes = t.compress_to_fixpoint(&mut s, 1024).unwrap();
        assert_eq!(t.height().unwrap(), 1, "tree must fully collapse");
        t.verify(false).unwrap().assert_ok();
        table.row(vec![
            n.to_string(),
            leaves.to_string(),
            h.to_string(),
            passes.to_string(),
            format!("{:.1}", (leaves as f64).log2()),
        ]);
    }
    print!("{table}");
    println!();
    println!("each pass merges disjoint sibling pairs, halving each level: passes ~ log2.");
}

fn run_variant(name: &str, cfg_tree: TreeConfig, table: &mut Table) {
    let enqueue = matches!(cfg_tree.underflow_policy, UnderflowPolicy::Enqueue);
    let tree = sagiv_with(cfg_tree);
    let workers = enqueue.then(|| CompressorPool::spawn(&tree, 2));
    let index: Arc<dyn ConcurrentIndex> = Arc::clone(&tree) as _;
    // A small, hot key space with small nodes keeps compression racing
    // the readers, which is what the ablated details are about.
    let mix = Mix {
        search_pct: 40,
        insert_pct: 30,
        delete_pct: 30,
    };
    let run = run_config(60_000, 4_000, KeyDist::Zipf { theta: 0.9 }, mix, 4_000, 9);
    let r = run_workload(&index, &run);
    if let Some(p) = workers {
        p.stop();
    }
    assert_eq!(r.errors, 0, "{name}: operations errored");
    let c = tree.counters().snapshot();
    table.row(vec![
        name.to_string(),
        format!("{:.3}", r.restarts_per_kop()),
        format!(
            "{:.3}",
            1000.0 * r.sessions.merge_pointer_follows as f64 / r.total_ops.max(1) as f64
        ),
        c.merges.to_string(),
        c.redistributes.to_string(),
        format!("{:.0}", r.ops_per_sec()),
        format!("{}", r.delete_lat.percentile(99.0) / 1000),
    ]);
    // Ablations must never compromise correctness.
    let mut s = tree.session();
    tree.compress_drain(&mut s, 2_000_000).unwrap();
    tree.verify(false).unwrap().assert_ok();
}

pub fn exp9() {
    banner(
        "E9: design-detail ablations",
        "gainer-first writes confine restarts; merge pointers avoid them; \
         inline compression needs no background threads",
    );
    let k = 2;
    let mut table = Table::new(vec![
        "variant",
        "restarts/kop",
        "merge-ptr/kop",
        "merges",
        "redistr.",
        "ops/s",
        "p99 delete (us)",
    ]);
    let ablated = |gainer_first_writes, merge_pointers| TreeConfig {
        gainer_first_writes,
        merge_pointers,
        ..TreeConfig::with_k(k)
    };
    let variants = [
        ("paper (queue, 2 workers)", ablated(true, true)),
        ("naive write order", ablated(false, true)),
        ("no merge pointers", ablated(true, false)),
        ("both ablated", ablated(false, false)),
        (
            "inline compression",
            TreeConfig::with_k_and_policy(k, UnderflowPolicy::Inline),
        ),
        (
            "no compression ([8])",
            TreeConfig::with_k_and_policy(k, UnderflowPolicy::Ignore),
        ),
    ];
    for (name, cfg) in variants {
        run_variant(name, cfg, &mut table);
    }
    print!("{table}");
}
