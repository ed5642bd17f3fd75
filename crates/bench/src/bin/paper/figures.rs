//! The paper's three figures, rendered from live trees.
//!
//! * F1 — Fig. 1, layout of a typical node: live nodes in the
//!   `p0 v1 p1 v2 … vi pi` layout, showing the Blink extensions (high
//!   value, link) and Sagiv's additions (explicit low value, deletion bit /
//!   merge pointer).
//! * F2 — Fig. 2, "level i+1 is actually repeated at level i": for every
//!   nonleaf level of a random tree, the flat (value, pointer) sequence of
//!   the level side by side with the (high value, link) sequence of the
//!   level below, checked identical — the observation the whole overtaking
//!   argument rests on.
//! * F3 — Fig. 3, a split as two atomic steps: "(a) To insert the key
//!   value 7 and a pointer into the left node A, we first create the new
//!   node B and transfer the required data into it. (b) Then we write the
//!   new data in the old node." After step (a) the tree is unchanged for
//!   everyone (B is unreachable); after step (b) the new node is reachable
//!   *through A's link* before the parent knows about it. A concurrent
//!   reader is run at each step to demonstrate visibility.

use crate::{banner, sagiv, scale};
use sagiv_blink::dump::render_node;
use sagiv_blink::Bound;

pub fn fig1() {
    banner(
        "F1: node layout (paper Fig. 1)",
        "internal node = p0 v1 p1 v2 ... vi pi",
    );
    let t = sagiv(2);
    let mut s = t.session();
    for i in 1..=40u64 {
        t.insert(&mut s, i * 10, i * 100).unwrap();
    }
    let prime = t.prime_snapshot().unwrap();
    println!("an internal node (level 1):");
    let lvl1 = prime.leftmost_at(1).unwrap();
    let node = t.read_node(lvl1).unwrap();
    println!("  {}", render_node(lvl1, &node));
    println!();
    println!("its first two children (leaves, level 0):");
    let c0 = node.pointer(0);
    let c1 = node.pointer(1);
    for pid in [c0, c1] {
        println!("  {}", render_node(pid, &t.read_node(pid).unwrap()));
    }
    println!();
    println!(
        "note: child P{}'s high value equals the value following its pointer in the",
        c0.to_raw()
    );
    println!(
        "parent, and its link points at P{} — the Fig. 2 identification.",
        c1.to_raw()
    );
    println!();
    println!("full tree:");
    print!("{}", t.render().unwrap());
}

pub fn fig2() {
    banner(
        "F2: the level-repetition invariant (paper Fig. 2)",
        "ignore p0 and links: level i+1 = the (high value, link) sequence of level i",
    );
    let t = sagiv(2);
    let mut s = t.session();
    let n = scale(2_000);
    for i in 0..n {
        t.insert(&mut s, (i * 2654435761) % 1_000_000, i).ok();
    }
    // Mix in deletions + compression so the invariant is shown to survive
    // restructuring, not just insertion.
    for i in 0..n / 2 {
        t.delete(&mut s, (i * 2654435761) % 1_000_000).ok();
    }
    t.compress_to_fixpoint(&mut s, 64).unwrap();

    let prime = t.prime_snapshot().unwrap();
    for level in (1..prime.height as u8).rev() {
        // Flat pair sequence at `level` (ignoring each node's p0 and links):
        let mut above: Vec<(Bound, u32)> = Vec::new();
        let mut cur = prime.leftmost_at(level);
        let mut first = true;
        while let Some(pid) = cur {
            let node = t.read_node(pid).unwrap();
            if !first {
                above.push((node.low, node.p0.unwrap().to_raw()));
            }
            first = false;
            for &(k, p) in &node.entries {
                above.push((Bound::Key(k), p as u32));
            }
            cur = node.link;
        }
        // (high, link) sequence at `level - 1`:
        let mut below: Vec<(Bound, u32)> = Vec::new();
        let mut cur = prime.leftmost_at(level - 1);
        while let Some(pid) = cur {
            let node = t.read_node(pid).unwrap();
            if let Some(link) = node.link {
                below.push((node.high, link.to_raw()));
            }
            cur = node.link;
        }
        println!(
            "level {level} pairs ({}) vs level {} (high, link) pairs ({}):",
            above.len(),
            level - 1,
            below.len()
        );
        let show = above.len().min(6);
        let render = |v: &[(Bound, u32)]| -> String {
            v.iter()
                .take(show)
                .map(|(b, p)| format!("({b}, P{p})"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  above: {} ...", render(&above));
        println!("  below: {} ...", render(&below));
        assert_eq!(above, below, "Fig. 2 invariant violated at level {level}");
        println!("  identical: yes ({} pairs)", above.len());
        println!();
    }
    // And the machine-checked version over the whole structure:
    t.verify(false).unwrap().assert_ok();
    println!("full structural verification (incl. Fig. 2 at every level): OK");
}

pub fn fig3() {
    banner(
        "F3: two-step atomic split (paper Fig. 3)",
        "write the new node B first, then rewrite A; B becomes reachable via A's link",
    );
    // Reproduce the figure's exact scenario: a leaf with keys {2,4,6,9}
    // (full at k=2) receiving key 7.
    let t = sagiv(2);
    let mut s = t.session();
    for k in [2u64, 4, 6, 9] {
        t.insert(&mut s, k, k * 10).unwrap();
    }
    let prime = t.prime_snapshot().unwrap();
    let a_pid = prime.leftmost_at(0).unwrap();
    println!("before: node A (full, 2k = 4 pairs):");
    println!("  {}", render_node(a_pid, &t.read_node(a_pid).unwrap()));
    println!();

    // Drive the two steps manually through the same primitives insert uses.
    let mut a = t.read_node(a_pid).unwrap();
    a.is_root = false; // the figure's A is a non-root leaf
    a.leaf_insert(7, 70);
    let b_pid = t.store().alloc().unwrap();
    let b = a.split(b_pid);

    println!("step (a): create B and transfer the upper half — put(B, q):");
    t.store()
        .put(b_pid, &b.encode(t.store().page_size()))
        .unwrap();
    println!("  {}", render_node(b_pid, &b));
    println!(
        "  reader searching 9 now: {:?}  (A unchanged; B unreachable)",
        t.search(&mut s, 9).unwrap()
    );
    println!();

    println!("step (b): rewrite A with its new high value and link — put(A):");
    t.store()
        .put(a_pid, &a.encode(t.store().page_size()))
        .unwrap();
    println!("  {}", render_node(a_pid, &a));
    println!(
        "  reader searching 9 now: {:?}  (routed through A's link, no parent update yet)",
        t.search(&mut s, 9).unwrap()
    );
    println!(
        "  reader searching 7 now: {:?}",
        t.search(&mut s, 7).unwrap()
    );
    println!();
    println!(
        "later, the pair ({}, {}) is inserted into the parent — here the old root was a leaf,",
        a.high.expect_key("demo"),
        b_pid
    );
    println!("so a real insert would build a new root; the pair insertion is level-local.");

    // Show the real protocol end-to-end on a fresh tree for contrast.
    let t2 = sagiv(2);
    let mut s2 = t2.session();
    for k in [2u64, 4, 6, 9, 7] {
        t2.insert(&mut s2, k, k * 10).unwrap();
    }
    println!();
    println!("the same insertion via the real protocol (root split included):");
    print!("{}", t2.render().unwrap());
    t2.verify(false).unwrap().assert_ok();
}
