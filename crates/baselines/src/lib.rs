//! Baselines Sagiv's paper compares against.
//!
//! * [`lehman_yao`] — the Blink-tree protocol of Lehman & Yao (ACM TODS
//!   1981), reference \[8\] of the paper: identical tree structure, but an
//!   inserting process **keeps the child locked while locking the parent**
//!   on its way up (and couples locks when moving right while ascending),
//!   holding up to three locks simultaneously. Deletion is the trivial one;
//!   there is no compression.
//! * [`topdown`] — a top-down lock-coupling B-tree in the style of Bayer &
//!   Schkolnick (Acta Informatica 1977), reference \[2\]: readers crab down
//!   with shared locks, updaters with exclusive locks, restructuring
//!   preemptively on the way down. This represents the "top-down solutions"
//!   family of the paper's introduction.
//! * [`rwlock`] — the shared/exclusive page locks the top-down baseline
//!   couples. The Sagiv and Lehman–Yao protocols never need them: their
//!   readers take no lock.
//! * [`api`] — a small trait ([`api::ConcurrentIndex`]) unifying the trees
//!   so the experiment harness can drive them interchangeably.

#![forbid(unsafe_code)]

pub mod api;
pub mod lehman_yao;
pub mod rwlock;
pub mod topdown;

pub use api::ConcurrentIndex;
pub use lehman_yao::LehmanYaoTree;
pub use topdown::TopDownTree;
