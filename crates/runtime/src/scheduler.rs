//! Scheduling for resolving non-determinism at run time.
//!
//! §1.2(8): "If more than one such communication is possible, the choice
//! between them is non-determinate." An executor must pick; a seeded
//! scheduler picks uniformly at random and makes runs reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the executor resolves a choice among enabled moves: uniformly
/// at random with a fixed seed — reproducible randomness.
#[derive(Debug)]
pub struct Scheduler {
    rng: StdRng,
}

impl Scheduler {
    /// A seeded random scheduler.
    pub fn seeded(seed: u64) -> Self {
        Scheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Picks one index among `enabled` candidates, or `None` when
    /// nothing is enabled (the caller treats that as a deadlock rather
    /// than this policy treating it as a bug).
    pub fn pick(&mut self, enabled: usize) -> Option<usize> {
        (enabled > 0).then(|| self.rng.gen_range(0..enabled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_reproducible_and_in_range() {
        let mut a = Scheduler::seeded(9);
        let mut b = Scheduler::seeded(9);
        for _ in 0..20 {
            let ea = a.pick(5).unwrap();
            let eb = b.pick(5).unwrap();
            assert_eq!(ea, eb);
            assert!(ea < 5);
        }
    }

    #[test]
    fn an_empty_enabled_set_yields_none() {
        assert_eq!(Scheduler::seeded(1).pick(0), None);
    }
}
