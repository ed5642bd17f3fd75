//! # sagiv-blink — Concurrent B\*-trees with overtaking
//!
//! A faithful, production-grade implementation of
//!
//! > Yehoshua Sagiv, *Concurrent Operations on B\*-Trees with Overtaking*,
//! > PODS 1985; JCSS 33(2):275–296, 1986.
//!
//! The tree is a Blink-tree (leaves and internal nodes carry a **high
//! value** and a **link** to their right neighbor, after Lehman–Yao) with
//! Sagiv's refinements:
//!
//! * **Overtaking insertions** — because every nonleaf level is exactly the
//!   `(high value, link)` sequence of the level below (Fig. 2), separator
//!   insertions may be reordered freely, so an insertion process holds **at
//!   most one lock at any time** (Lehman–Yao holds 2–3). Searches use no
//!   locks at all.
//! * **Concurrent compression** — background processes merge/redistribute
//!   adjacent under-full siblings while holding three locks (parent + two
//!   children), release emptied nodes, and collapse the root. Two modes:
//!   a level scanner (§5.1, Fig. 7) and queue-driven workers fed by
//!   deletions (§5.4). Any number may run alongside all other operations;
//!   the combination is deadlock-free (Theorem 2).
//! * **Restart-based readers** — instead of lock coupling, a reader that
//!   lands on a node whose data moved away simply restarts (or follows a
//!   deleted node's merge pointer); nodes carry an explicit **low value**
//!   and a **deletion bit** to make this detectable (§5.2).
//! * **Deferred reclamation** — deleted pages are released only when every
//!   process that might still read them has finished (§5.3), tracked with
//!   logical timestamps.
//!
//! ## Quick start
//!
//! ```
//! use blink_pagestore::{PageStore, StoreConfig};
//! use sagiv_blink::{BLinkTree, TreeConfig};
//!
//! let store = PageStore::new(StoreConfig::with_page_size(4096));
//! let tree = BLinkTree::create(store, TreeConfig::with_k(16)).unwrap();
//! let mut session = tree.session(); // one per worker thread
//!
//! tree.insert(&mut session, 42, 4200).unwrap();
//! assert_eq!(tree.search(&mut session, 42).unwrap(), Some(4200));
//! assert_eq!(tree.delete(&mut session, 42).unwrap(), Some(4200));
//!
//! tree.verify(false).unwrap().assert_ok();
//! ```
//!
//! Concurrent use: clone the `Arc<BLinkTree>` into each thread and give
//! every thread its own [`Session`](blink_pagestore::Session). Background
//! compression: [`CompressorPool`] (queue workers) or [`ScannerDaemon`]
//! (periodic passes), each a [`blink_pagestore::Upkeep`] loop over a step
//! tests call directly ([`BLinkTree::compress_upkeep`],
//! [`BLinkTree::compress_pass`]).

#![forbid(unsafe_code)]

pub mod compress;
pub mod config;
pub mod counters;
pub mod dump;
pub mod error;
pub mod key;
pub mod node;
pub mod ops;
pub mod prime;
pub mod recovery;
pub mod scan;
pub mod traverse;
pub mod tree;
pub mod verify;

pub use compress::queue::QueueItem;
pub use compress::scanner::{PassStats, ScannerDaemon};
pub use compress::worker::{CompressStep, CompressorPool, DrainStats};
pub use compress::RearrangeOutcome;
pub use config::{TreeConfig, UnderflowPolicy};
pub use counters::{CountersSnapshot, TreeCounters};
pub use error::{Result, TreeError};
pub use key::{Bound, Key};
pub use node::{Node, NodeKind};
pub use recovery::RecoveryStats;
pub use scan::{Scan, ScanIter};
pub use tree::{BLinkTree, InsertOutcome, OptimisticTestHook};
pub use verify::VerifyReport;
