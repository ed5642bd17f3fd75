//! The repo's tooling over the index: the `paper` binary
//! (`src/bin/paper/`), which reproduces each of the paper's claims and
//! figures and prints paper-vs-measured, and the `latch_lint` source lint
//! ([`lint`]). `Db` end to end is measured by the benchmark in
//! `benchmark/`.

#![forbid(unsafe_code)]

pub mod lint;
