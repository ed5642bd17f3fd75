//! The scanning compression process (§5.1, Fig. 7).
//!
//! `compress_level(i)` walks the parents at level `i+1` left to right,
//! examining **disjoint** pairs of adjacent children of each parent (if a
//! parent has an odd number of children, its last child is skipped this
//! pass). For each pair it locks parent-then-children — three nodes, the
//! paper's maximum — and merges or redistributes if a side is under-full.
//!
//! A full [`BLinkTree::compress_pass`] applies `compress_level` to every
//! level except the root and then removes the root if it has a single
//! child. Emptied trees need O(log₂ n) passes to collapse fully (§5.1) —
//! experiment E6 measures exactly that.
//!
//! Implementation note: Fig. 7 tracks its position in F by pointer
//! identity (`one`); we track it by *value* (`cursor` = the high value of
//! the last processed pair's right end). The two are equivalent while F is
//! locked, and the value form stays meaningful across the moments F is
//! unlocked between iterations, which Fig. 7 handles with its "two is not
//! in F" case analysis — reproduced here verbatim below.

use crate::error::Result;
use crate::key::Bound;
use crate::node::Node;
use crate::tree::BLinkTree;
use blink_pagestore::{Session, Upkeep};
use std::sync::Arc;
use std::time::Duration;

use super::RearrangeOutcome;

/// A §5.1 background scanner, "in the background as a low priority job":
/// a loop (thread `blink-scanner`) whose step is one
/// [`BLinkTree::compress_pass`] and a `reclaim`, `pause` apart. Errors are
/// counted in `compress_errors`.
#[derive(Debug)]
pub struct ScannerDaemon {
    upkeep: Upkeep,
}

impl ScannerDaemon {
    /// Spawns the scanner; it waits `pause` between passes.
    pub fn spawn(tree: &Arc<BLinkTree>, pause: Duration) -> ScannerDaemon {
        let upkeep = Upkeep::spawn("blink-scanner", pause);
        let (tree, mut session) = (Arc::clone(tree), tree.session());
        upkeep.add_step(move || {
            tree.counted(tree.compress_pass(&mut session));
            tree.counted(tree.reclaim());
            false
        });
        ScannerDaemon { upkeep }
    }

    /// Stops the scanner and waits for it to exit; a panic in its pass
    /// resumes here.
    pub fn stop(self) {
        self.upkeep.stop();
    }
}

/// Statistics from one scanner pass (or one level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Sibling merges performed.
    pub merges: u64,
    /// Sibling redistributions performed.
    pub redistributes: u64,
    /// Pairs examined that needed nothing.
    pub untouched: u64,
    /// Pairs skipped after exhausting the bounded wait for a pending
    /// parent pointer (Fig. 7's "wait … and later restart" case).
    pub skipped: u64,
    /// Whether this pass removed root level(s).
    pub root_collapsed: bool,
    /// Levels scanned.
    pub levels: u32,
}

impl PassStats {
    fn absorb(&mut self, other: PassStats) {
        self.merges += other.merges;
        self.redistributes += other.redistributes;
        self.untouched += other.untouched;
        self.skipped += other.skipped;
        self.root_collapsed |= other.root_collapsed;
        self.levels += other.levels;
    }
}

impl BLinkTree {
    /// One full compression pass: `compress_level` on every level below the
    /// root (bottom-up, as §5.1 prescribes: "applying compress-level to all
    /// the levels of the tree, except the root, starting at level 0"), then
    /// the root check. Runs concurrently with all other operations.
    pub fn compress_pass(&self, session: &mut Session) -> Result<PassStats> {
        let mut stats = PassStats::default();
        let mut level: u8 = 0;
        loop {
            let prime = self.read_prime()?;
            if u32::from(level) + 1 >= prime.height {
                break;
            }
            session.begin_op();
            let r = self.compress_level(session, level);
            if r.is_err() {
                self.store.unlock_all(session);
            }
            session.end_op();
            stats.absorb(r?);
            stats.levels += 1;
            level += 1;
        }
        session.begin_op();
        let r = self.scanner_root_check(session);
        if r.is_err() {
            self.store.unlock_all(session);
        }
        session.end_op();
        stats.root_collapsed |= r?;
        Ok(stats)
    }

    /// Runs passes until one makes no structural change (fixpoint), up to
    /// `max_passes`. Returns the number of passes run.
    pub fn compress_to_fixpoint(&self, session: &mut Session, max_passes: usize) -> Result<usize> {
        for pass in 1..=max_passes {
            let s = self.compress_pass(session)?;
            if s.merges == 0 && s.redistributes == 0 && !s.root_collapsed {
                return Ok(pass);
            }
        }
        Ok(max_passes)
    }

    /// Fig. 7: compress the children pairs at level `i`, driven from their
    /// parents at level `i+1`.
    pub fn compress_level(&self, session: &mut Session, i: u8) -> Result<PassStats> {
        let mut stats = PassStats::default();
        let prime = self.read_prime()?;
        let Some(mut current) = prime.leftmost_at(i + 1) else {
            return Ok(stats);
        };
        let mut cursor = Bound::NegInf; // everything ≤ cursor is processed
        let mut wait_attempts: u32 = 0;
        let mut abnormal: u32 = 0;
        loop {
            // Lock F and read it (§5.2: "a single loop that starts by
            // locking a node, F, at level i+1, and reading it").
            self.store.lock(current, session);
            let f = match self.try_read(current, Node::decode_probe)? {
                Some(f) => f,
                None => {
                    self.store.unlock(current, session);
                    return Ok(stats); // level restructured under us; next pass
                }
            };
            if f.deleted {
                self.store.unlock(current, session);
                match f.merge_target {
                    // A sibling merge keeps the level: continue there (the
                    // cursor skips whatever was already processed).
                    Some(t) => {
                        let merged = self.try_read(t, Node::decode_probe)?;
                        let same_level = matches!(merged, Some(n) if n.level == i + 1);
                        if !same_level {
                            return Ok(stats); // root collapse removed the level
                        }
                        current = t;
                        continue;
                    }
                    None => return Ok(stats),
                }
            }
            if f.level != i + 1 {
                self.store.unlock(current, session);
                return Ok(stats);
            }
            if cursor >= f.high {
                // All of F processed: next parent.
                let next = f.link;
                self.store.unlock(current, session);
                match next {
                    Some(l) => {
                        current = l;
                        continue;
                    }
                    None => return Ok(stats),
                }
            }
            // First unprocessed child: smallest j with followval(j) > cursor.
            let mut j = f
                .entries
                .partition_point(|&(key, _)| Bound::Key(key) <= cursor);
            if j + 1 >= f.pointer_count() {
                // The child would be F's last. Fig. 7 skips it ("if F has an
                // odd number of children, then the last one will not be
                // compressed"), but repeated passes hit the same boundary,
                // so an under-full last child would never heal. Refinement
                // (in the spirit of §5.4 case 2): if it is under-full and F
                // has a left neighbor for it, process the overlapping pair
                // (P[j-1], P[j]) instead of skipping.
                let underfull = j < f.pointer_count()
                    && matches!(self.try_read(f.pointer(j), Node::decode_probe)?,
                        Some(n) if !n.deleted && n.pairs() < self.cfg.k);
                if underfull && j >= 1 {
                    j -= 1; // fall through and process (P[j], P[j+1])
                } else {
                    cursor = f.high;
                    let next = f.link;
                    self.store.unlock(current, session);
                    match next {
                        Some(l) => {
                            current = l;
                            continue;
                        }
                        None => return Ok(stats),
                    }
                }
            }
            let a_pid = f.pointer(j);
            self.store.lock(a_pid, session);
            let a = self.read_node(a_pid)?; // F locked ⇒ A live
            let Some(b_pid) = a.link else {
                // F claims a right sibling exists but A has none — only
                // possible mid-restructure; retry next pass.
                self.store.unlock(a_pid, session);
                self.store.unlock(current, session);
                return Ok(stats);
            };
            if b_pid == f.pointer(j + 1) {
                // "two is in F": lock B and rearrange if needed.
                self.store.lock(b_pid, session);
                let b = self.read_node(b_pid)?;
                let right_high = b.high;
                let out =
                    self.rearrange_children(session, current, f, j, a_pid, a, b_pid, b, None)?;
                match out {
                    RearrangeOutcome::Nothing => stats.untouched += 1,
                    RearrangeOutcome::Merged => stats.merges += 1,
                    RearrangeOutcome::Balanced => stats.redistributes += 1,
                    RearrangeOutcome::NewRoot => {
                        stats.merges += 1;
                        stats.root_collapsed = true;
                        return Ok(stats);
                    }
                }
                cursor = right_high; // disjoint pairs: advance past B
                wait_attempts = 0;
                abnormal = 0;
                continue; // re-lock F at the loop top
            }
            // "two is not in F": unlock everything first (Fig. 7), then
            // decide from B's and F's high values alone.
            let f_high = f.high;
            self.store.unlock(a_pid, session);
            self.store.unlock(current, session);
            match self.try_read(b_pid, Node::decode_probe)? {
                Some(b) if !b.deleted && b.level == i => {
                    if b.high <= f_high {
                        // B belongs in F; its pointer is still in flight.
                        if a.pairs() < self.cfg.k || b.pairs() < self.cfg.k {
                            // "wait and later restart the loop with one =
                            // previous value of one" — bounded here, since
                            // the paper itself notes the wait could in
                            // principle last forever.
                            wait_attempts += 1;
                            if wait_attempts > self.cfg.wait_retries {
                                stats.skipped += 1;
                                cursor = b.high;
                                wait_attempts = 0;
                            } else {
                                self.bounded_wait(wait_attempts);
                            }
                        } else {
                            // Nothing to rearrange: move on to the next
                            // two children of F.
                            cursor = b.high;
                        }
                    } else {
                        // B is beyond F: F's children are exhausted.
                        cursor = f_high;
                    }
                }
                _ => {
                    // B vanished between reads; re-examine bounded-many
                    // times, then leave the rest to the next pass.
                    abnormal += 1;
                    if abnormal > self.cfg.wait_retries.max(16) {
                        return Ok(stats);
                    }
                    self.bounded_wait(abnormal);
                }
            }
        }
    }

    /// §5.1's root step: "after applying compress-level to the level below
    /// the root, we examine the root and if it has only one child, then the
    /// root is removed and its child becomes the new root".
    fn scanner_root_check(&self, session: &mut Session) -> Result<bool> {
        let prime = self.read_prime()?;
        let Some(root) = self.try_read(prime.root, Node::decode_probe)? else {
            return Ok(false);
        };
        if root.is_leaf() || root.pointer_count() != 1 || !root.is_root {
            return Ok(false);
        }
        // Lock and re-validate (another process may have grown it back).
        self.store.lock(prime.root, session);
        let Some(root_now) = self.try_read(prime.root, Node::decode_probe)? else {
            self.store.unlock(prime.root, session);
            return Ok(false);
        };
        if !root_now.is_root
            || root_now.deleted
            || root_now.is_leaf()
            || root_now.pointer_count() != 1
        {
            self.store.unlock(prime.root, session);
            return Ok(false);
        }
        self.try_collapse_root(session, prime.root, root_now)
    }
}
