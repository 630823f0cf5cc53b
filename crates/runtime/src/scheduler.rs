//! Scheduling policies for resolving non-determinism at run time.
//!
//! §1.2(8): "If more than one such communication is possible, the choice
//! between them is non-determinate." An executor must pick; the policy
//! decides how, and a seeded policy makes runs reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the executor resolves a choice among enabled moves.
#[derive(Debug)]
pub enum Scheduler {
    /// Always the first enabled move in deterministic order. Useful for
    /// regression tests.
    First,
    /// Cycle through positions — a crude fairness device.
    RoundRobin {
        /// Next starting offset.
        cursor: usize,
    },
    /// Uniformly random with a fixed seed — reproducible randomness.
    /// (Boxed: `StdRng` is large relative to the other variants.)
    Seeded(Box<StdRng>),
}

impl Scheduler {
    /// A seeded random scheduler.
    pub fn seeded(seed: u64) -> Self {
        Scheduler::Seeded(Box::new(StdRng::seed_from_u64(seed)))
    }

    /// A round-robin scheduler.
    pub fn round_robin() -> Self {
        Scheduler::RoundRobin { cursor: 0 }
    }

    /// Picks one index among `enabled` candidates, or `None` when
    /// nothing is enabled (the caller treats that as a deadlock rather
    /// than this policy treating it as a bug).
    pub fn pick(&mut self, enabled: usize) -> Option<usize> {
        if enabled == 0 {
            return None;
        }
        Some(match self {
            Scheduler::First => 0,
            Scheduler::RoundRobin { cursor } => {
                let i = *cursor % enabled;
                *cursor = cursor.wrapping_add(1);
                i
            }
            Scheduler::Seeded(rng) => rng.gen_range(0..enabled),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_always_picks_zero() {
        let mut s = Scheduler::First;
        assert_eq!(s.pick(3), Some(0));
        assert_eq!(s.pick(3), Some(0));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = Scheduler::round_robin();
        let picks: Vec<usize> = (0..6).map(|_| s.pick(3).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

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
    fn empty_enabled_set_yields_none_for_every_policy() {
        for mut s in [
            Scheduler::First,
            Scheduler::round_robin(),
            Scheduler::seeded(1),
        ] {
            assert_eq!(s.pick(0), None);
        }
    }
}
