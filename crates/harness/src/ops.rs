//! Operation mixes and the combined generator.

use crate::dist::{KeyDist, KeyPicker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Search,
    Insert,
    Delete,
}

/// A generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

/// An operation mix in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub search_pct: u8,
    pub insert_pct: u8,
    pub delete_pct: u8,
}

impl Mix {
    /// 95% searches / 5% inserts — the classic read-heavy index workload.
    pub const READ_HEAVY: Mix = Mix {
        search_pct: 95,
        insert_pct: 5,
        delete_pct: 0,
    };
    /// 50% searches / 25% inserts / 25% deletes.
    pub const BALANCED: Mix = Mix {
        search_pct: 50,
        insert_pct: 25,
        delete_pct: 25,
    };
    /// Pure insertion (bulk growth).
    pub const INSERT_ONLY: Mix = Mix {
        search_pct: 0,
        insert_pct: 100,
        delete_pct: 0,
    };
    /// Pure lookup.
    pub const SEARCH_ONLY: Mix = Mix {
        search_pct: 100,
        insert_pct: 0,
        delete_pct: 0,
    };
    /// 10/10/80 — the regime where compression matters.
    pub const DELETE_HEAVY: Mix = Mix {
        search_pct: 10,
        insert_pct: 10,
        delete_pct: 80,
    };
    /// 0/50/50 — steady-state churn at constant size.
    pub const CHURN: Mix = Mix {
        search_pct: 0,
        insert_pct: 50,
        delete_pct: 50,
    };

    /// Validates the percentages.
    pub fn check(&self) {
        assert_eq!(
            u32::from(self.search_pct) + u32::from(self.insert_pct) + u32::from(self.delete_pct),
            100,
            "mix must sum to 100"
        );
    }
}

/// A seeded stream of operations.
#[derive(Debug)]
pub struct OpGenerator {
    picker: KeyPicker,
    mix: Mix,
    rng: StdRng,
}

impl OpGenerator {
    pub fn new(key_space: u64, dist: KeyDist, mix: Mix, seed: u64) -> OpGenerator {
        mix.check();
        OpGenerator {
            picker: KeyPicker::new(key_space, dist, seed ^ 0xA5A5_5A5A),
            mix,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.gen_range(0..100u8);
        let kind = if roll < self.mix.search_pct {
            OpKind::Search
        } else if roll < self.mix.search_pct + self.mix.insert_pct {
            OpKind::Insert
        } else {
            OpKind::Delete
        };
        Op {
            kind,
            key: self.picker.next_key(),
        }
    }
}

impl Iterator for OpGenerator {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_proportions_hold() {
        let mut g = OpGenerator::new(1000, KeyDist::Uniform, Mix::BALANCED, 5);
        let mut counts = [0u32; 3];
        for _ in 0..100_000 {
            match g.next_op().kind {
                OpKind::Search => counts[0] += 1,
                OpKind::Insert => counts[1] += 1,
                OpKind::Delete => counts[2] += 1,
            }
        }
        assert!((48_000..52_000).contains(&counts[0]), "{counts:?}");
        assert!((23_000..27_000).contains(&counts[1]), "{counts:?}");
        assert!((23_000..27_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn presets_are_valid() {
        for m in [
            Mix::READ_HEAVY,
            Mix::BALANCED,
            Mix::INSERT_ONLY,
            Mix::SEARCH_ONLY,
            Mix::DELETE_HEAVY,
            Mix::CHURN,
        ] {
            m.check();
            // A kind with a zero share is never drawn.
            let g = OpGenerator::new(100, KeyDist::Uniform, m, 3);
            for op in g.take(1_000) {
                let pct = match op.kind {
                    OpKind::Search => m.search_pct,
                    OpKind::Insert => m.insert_pct,
                    OpKind::Delete => m.delete_pct,
                };
                assert!(pct > 0, "{m:?} drew {:?}", op.kind);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        Mix {
            search_pct: 50,
            insert_pct: 50,
            delete_pct: 50,
        }
        .check();
    }

    #[test]
    fn deterministic_stream() {
        let stream = |seed| -> Vec<Op> {
            OpGenerator::new(100, KeyDist::Uniform, Mix::BALANCED, seed)
                .take(50)
                .collect()
        };
        let (a, b, c) = (stream(9), stream(9), stream(10));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn iterator_interface() {
        let g = OpGenerator::new(100, KeyDist::Uniform, Mix::SEARCH_ONLY, 1);
        let ops: Vec<Op> = g.into_iter().take(10).collect();
        assert_eq!(ops.len(), 10);
        assert!(ops.iter().all(|o| o.kind == OpKind::Search));
    }
}
