//! Deterministic fault injection for the simulated universe.
//!
//! A [`FaultPlan`] is carried on [`UniverseConfig`](crate::UniverseConfig)
//! and consulted on every *fresh* message transmission. Each decision is a
//! pure function of `(seed, sender global rank, per-rank send index)` via
//! SplitMix64, so a given plan replays the exact same fault schedule on
//! every run — chaos tests are reproducible bit for bit.
//!
//! Injectable faults:
//!
//! * **drop** — the envelope is never placed in the destination mailbox;
//! * **duplicate** — the envelope is delivered twice;
//! * **delay** — the envelope's virtual departure time is inflated by
//!   [`FaultPlan::delay_s`] (extra LogGP latency; wall delivery is
//!   unchanged);
//! * **corrupt** — one payload bit is flipped after the checksum is
//!   computed, so the receiver detects it (typed
//!   [`CommError::Corrupt`](crate::CommError::Corrupt) in raw mode,
//!   silent retransmission in reliable mode);
//! * **kill** — after [`FaultPlan::kill_after_ops`] communication
//!   operations, every further comm call on the victim rank fails with
//!   [`CommError::Killed`](crate::CommError::Killed).
//!
//! Retransmissions and acks (see [`Delivery::Reliable`]) are exempt from
//! injection: only first transmissions roll the dice. This keeps the fault
//! schedule independent of wall-clock retry timing and gives the exact
//! accounting identity `retransmits == faults_dropped + corrupt_detected`
//! that the chaos property tests assert.

/// How envelopes travel from sender mailbox to receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Delivery {
    /// Direct delivery (the default): envelopes go straight into the
    /// destination mailbox. Injected drops lose messages for good.
    #[default]
    Raw,
    /// Reliable delivery: every data envelope carries a sequence number
    /// and is held by the sender until acked; unacked envelopes are
    /// retransmitted with exponential backoff, duplicates are suppressed
    /// by the receiver, and corrupt arrivals are discarded (forcing a
    /// retransmit) instead of surfacing an error.
    Reliable,
}

/// What the plan decided for one message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    None,
    /// Never deliver.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver with inflated virtual departure time.
    Delay,
    /// Deliver with one payload bit flipped.
    Corrupt,
}

/// A seeded, deterministic fault schedule. `Default` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message decision hash.
    pub seed: u64,
    /// Probability a fresh transmission is dropped.
    pub drop_p: f64,
    /// Probability a fresh transmission is duplicated.
    pub dup_p: f64,
    /// Probability a fresh transmission is delayed.
    pub delay_p: f64,
    /// Probability a fresh transmission is bit-corrupted.
    pub corrupt_p: f64,
    /// Extra virtual seconds added to a delayed message's departure.
    pub delay_s: f64,
    /// Restrict delay injection to one global rank's sends, if set. Other
    /// ranks' fault schedules are unchanged by this field (their decision
    /// bands are computed as if `delay_p` were 0), so a run differs from
    /// its fault-free twin only on the targeted rank — the property the
    /// straggler-attribution experiment (E21) relies on.
    pub delay_rank: Option<usize>,
    /// Global rank to kill, if any.
    pub kill_rank: Option<usize>,
    /// Communication-op count after which the victim rank dies.
    pub kill_after_ops: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            corrupt_p: 0.0,
            delay_s: 0.0,
            delay_rank: None,
            kill_rank: None,
            kill_after_ops: 0,
        }
    }

    /// A plan with uniform message-fault probabilities and a seed.
    pub fn messages(seed: u64, drop_p: f64, dup_p: f64, delay_p: f64, corrupt_p: f64) -> Self {
        FaultPlan {
            seed,
            drop_p,
            dup_p,
            delay_p,
            corrupt_p,
            delay_s: 5.0e-6,
            ..FaultPlan::none()
        }
    }

    /// Does this plan inject any message fault or kill?
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.corrupt_p > 0.0
            || self.kill_rank.is_some()
    }

    /// Decide the fate of the `idx`-th fresh transmission by global rank
    /// `rank`. Pure and deterministic.
    pub fn action(&self, rank: usize, idx: u64) -> FaultAction {
        // Delay may be scoped to a single victim rank; everyone else
        // decides as if delay_p were zero (same hash, same other bands).
        let delay_p = match self.delay_rank {
            Some(victim) if victim != rank => 0.0,
            _ => self.delay_p,
        };
        if self.drop_p + self.dup_p + delay_p + self.corrupt_p <= 0.0 {
            return FaultAction::None;
        }
        let h = obs::rng::mix64(
            self.seed
                .wrapping_add((rank as u64).wrapping_mul(0x9e3779b97f4a7c15))
                .wrapping_add(idx.wrapping_mul(0xbf58476d1ce4e5b9)),
        );
        // 53-bit uniform in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut edge = self.drop_p;
        if u < edge {
            return FaultAction::Drop;
        }
        edge += self.dup_p;
        if u < edge {
            return FaultAction::Duplicate;
        }
        edge += delay_p;
        if u < edge {
            return FaultAction::Delay;
        }
        edge += self.corrupt_p;
        if u < edge {
            return FaultAction::Corrupt;
        }
        FaultAction::None
    }

    /// Is global rank `rank` dead once it has performed `ops` comm ops?
    pub fn kills(&self, rank: usize, ops: u64) -> bool {
        self.kill_rank == Some(rank) && ops >= self.kill_after_ops
    }
}

/// FNV-1a over the payload. Cheap, deterministic, and plenty to catch the
/// single-bit flips the fault plane injects.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for i in 0..1000 {
            assert_eq!(plan.action(3, i), FaultAction::None);
        }
        assert!(!plan.kills(0, u64::MAX));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::messages(42, 0.1, 0.1, 0.1, 0.1);
        let b = FaultPlan::messages(43, 0.1, 0.1, 0.1, 0.1);
        let run = |p: &FaultPlan| (0..200).map(|i| p.action(1, i)).collect::<Vec<_>>();
        assert_eq!(run(&a), run(&a));
        assert_ne!(run(&a), run(&b));
    }

    #[test]
    fn rates_roughly_match_probabilities() {
        let plan = FaultPlan::messages(7, 0.25, 0.0, 0.0, 0.0);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&i| plan.action(0, i) == FaultAction::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn delay_rank_scopes_delay_to_the_victim() {
        let plan = FaultPlan {
            delay_rank: Some(5),
            ..FaultPlan::messages(9, 0.0, 0.0, 1.0, 0.0)
        };
        for i in 0..100 {
            assert_eq!(plan.action(5, i), FaultAction::Delay);
            assert_eq!(plan.action(4, i), FaultAction::None);
            assert_eq!(plan.action(6, i), FaultAction::None);
        }
    }

    #[test]
    fn kill_threshold_is_inclusive() {
        let plan = FaultPlan {
            kill_rank: Some(2),
            kill_after_ops: 10,
            ..FaultPlan::none()
        };
        assert!(!plan.kills(2, 9));
        assert!(plan.kills(2, 10));
        assert!(!plan.kills(1, 100));
    }

    #[test]
    fn checksum_detects_bit_flip() {
        let mut v = vec![1u8, 2, 3, 4, 5];
        let c = checksum(&v);
        v[2] ^= 0x10;
        assert_ne!(c, checksum(&v));
    }
}
