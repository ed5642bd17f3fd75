//! Tree configuration.

use crate::error::{Result, TreeError};
use crate::node;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// What a deletion does when it leaves a leaf with fewer than `k` pairs.
///
/// The paper describes all three deployments: trivial deletions with only
/// the §5.1 scanner ([`Ignore`](UnderflowPolicy::Ignore)), a queue drained
/// by separate compression processes (§5.4,
/// [`Enqueue`](UnderflowPolicy::Enqueue)), and "initiat\[ing\] a compression
/// process after each deletion that leaves a node less than half full"
/// (abstract / §5.4 option 3, [`Inline`](UnderflowPolicy::Inline)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnderflowPolicy {
    /// \[8\]'s behaviour: no further action. Compress with the scanner.
    Ignore,
    /// Put the leaf on the shared compression queue for workers (§5.4).
    Enqueue,
    /// The deleting process compresses the leaf itself, immediately after
    /// the deletion, cascading to parents like a queue worker would.
    /// Unresolvable items fall back to the shared queue.
    Inline,
}

/// Configuration of a [`crate::BLinkTree`].
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// The paper's `k`: every node holds between `k` and `2k` pairs
    /// (the root and, transiently, under-compressed nodes may hold fewer).
    pub k: usize,
    /// What deletions do on underflow (see [`UnderflowPolicy`]).
    pub underflow_policy: UnderflowPolicy,
    /// Upper bound on traversal restarts before an operation gives up with
    /// [`TreeError::TooManyRestarts`]. Generous by default; the paper argues
    /// restarts are rare.
    pub max_restarts: u64,
    /// Bounded wait (spin-yield iterations) used where the paper says
    /// "wait for a while and then read again" (§3.3 prime-block race, §5.2
    /// compression waiting for a pending parent pointer).
    pub wait_retries: u32,
    /// **Ablation knob** (default `true`, the paper's rule): during a
    /// rearrangement, rewrite the child that *gains* data first, then the
    /// parent, then the other child (§5.2 + acknowledgment). Setting it to
    /// `false` always writes left child → parent → right child, which
    /// widens the window in which readers land on a wrong node — the E9
    /// ablation measures the difference.
    pub gainer_first_writes: bool,
    /// **Ablation knob** (default `true`): leave a merge pointer in deleted
    /// nodes so readers "continue to A instead of having to restart" (§5.2
    /// case 1, after \[4\]). With `false`, readers of deleted nodes must
    /// restart from the root.
    pub merge_pointers: bool,
    /// Live page count of a co-resident structure sharing the tree's store
    /// (the `Db` facade keeps the record heap in the same store/WAL as the
    /// index; the heap maintains this counter). The verifier's page
    /// accounting adds it, so "every live page is a reachable node" still
    /// holds for the tree's own pages. `None` when the tree owns its store
    /// exclusively.
    pub external_pages: Option<Arc<AtomicUsize>>,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            k: 32,
            underflow_policy: UnderflowPolicy::Enqueue,
            max_restarts: 1_000_000,
            wait_retries: 1000,
            gainer_first_writes: true,
            merge_pointers: true,
            external_pages: None,
        }
    }
}

impl TreeConfig {
    /// A configuration with the given `k` and defaults elsewhere.
    pub fn with_k(k: usize) -> TreeConfig {
        TreeConfig {
            k,
            ..TreeConfig::default()
        }
    }

    /// Convenience: `with_k` plus an underflow policy.
    pub fn with_k_and_policy(k: usize, policy: UnderflowPolicy) -> TreeConfig {
        TreeConfig {
            k,
            underflow_policy: policy,
            ..TreeConfig::default()
        }
    }

    /// Maximum pairs per node (`2k`).
    pub fn max_pairs(&self) -> usize {
        2 * self.k
    }

    /// Validates against a page size: `2k` pairs must fit in one page.
    pub fn validate(&self, page_size: usize) -> Result<()> {
        if self.k == 0 {
            return Err(TreeError::Config("k must be at least 1"));
        }
        let cap = node::max_pairs_for_page(page_size);
        if self.max_pairs() > cap {
            return Err(TreeError::Config("2k pairs do not fit in one page"));
        }
        if node::prime_max_levels(page_size) < 4 {
            return Err(TreeError::Config("page too small for the prime block"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_for_4k_pages() {
        TreeConfig::default().validate(4096).unwrap();
    }

    #[test]
    fn k_zero_is_rejected() {
        assert!(TreeConfig::with_k(0).validate(4096).is_err());
    }

    #[test]
    fn oversized_k_is_rejected() {
        assert!(TreeConfig::with_k(10_000).validate(4096).is_err());
    }

    #[test]
    fn small_pages_fit_small_k() {
        // The smallest page that can hold 2*2=4 pairs plus the header.
        let need = node::HEADER_LEN + 4 * node::PAIR_LEN;
        TreeConfig::with_k(2).validate(need.max(64)).unwrap();
    }
}
