//! Fault injection: drops, corruption, duplication, reordering, rate
//! limiting.
//!
//! Modelled after the fault-injection options every smoltcp example ships
//! (`--drop-chance`, `--corrupt-chance`, `--tx-rate-limit`, …): adverse
//! network conditions are a first-class test input, driven by a seeded RNG
//! so failures reproduce exactly.

use teenet_crypto::SecureRng;

use crate::time::{SimDuration, SimTime};

/// What the fault injector decided to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver unchanged.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver with one corrupted byte.
    Corrupt,
    /// Deliver twice.
    Duplicate,
    /// Deliver with extra latency (models reordering).
    Delay(SimDuration),
}

/// Configuration for per-link fault injection.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability a packet is dropped, in [0, 1].
    pub drop_chance: f64,
    /// Probability one byte of a packet is corrupted.
    pub corrupt_chance: f64,
    /// Probability a packet is duplicated.
    pub duplicate_chance: f64,
    /// Probability a packet is delayed by up to `max_delay`.
    pub reorder_chance: f64,
    /// Maximum extra delay for reordered packets.
    pub max_delay: SimDuration,
    /// Token-bucket rate limit in packets per refill interval
    /// (`None` disables shaping).
    pub rate_limit: Option<RateLimit>,
}

/// Token-bucket shaping parameters.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Tokens added per interval (packets per bucket).
    pub tokens_per_interval: u32,
    /// Refill interval. Zero means refilled at every instant: the bucket
    /// is full for each packet, so only a zero-token bucket drops.
    pub interval: SimDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            max_delay: SimDuration::from_millis(10),
            rate_limit: None,
        }
    }
}

impl FaultConfig {
    /// True if every fault mechanism is disabled.
    pub fn is_clean(&self) -> bool {
        self.drop_chance == 0.0
            && self.corrupt_chance == 0.0
            && self.duplicate_chance == 0.0
            && self.reorder_chance == 0.0
            && self.rate_limit.is_none()
    }
}

/// Stateful fault injector for one link direction.
pub struct FaultInjector {
    config: FaultConfig,
    rng: SecureRng,
    bucket_tokens: u32,
    bucket_refill_at: SimTime,
}

impl FaultInjector {
    /// Creates an injector with its own RNG stream.
    pub fn new(config: FaultConfig, rng: SecureRng) -> Self {
        let tokens = config
            .rate_limit
            .map(|r| r.tokens_per_interval)
            .unwrap_or(0);
        FaultInjector {
            config,
            rng,
            bucket_tokens: tokens,
            bucket_refill_at: SimTime::ZERO,
        }
    }

    /// Decides the fate of a packet sent at `now`.
    pub fn decide(&mut self, now: SimTime) -> FaultDecision {
        if let Some(limit) = self.config.rate_limit {
            if now >= self.bucket_refill_at {
                self.bucket_tokens = limit.tokens_per_interval;
                // One step over every interval that has ended by `now`.
                let gap = (now - self.bucket_refill_at).as_nanos();
                let missed = gap.checked_div(limit.interval.as_nanos());
                self.bucket_refill_at += limit.interval.saturating_mul(missed.map_or(0, |n| n + 1));
            }
            if self.bucket_tokens == 0 {
                return FaultDecision::Drop;
            }
            self.bucket_tokens -= 1;
        }
        if self.rng.gen_bool(self.config.drop_chance) {
            return FaultDecision::Drop;
        }
        if self.rng.gen_bool(self.config.corrupt_chance) {
            return FaultDecision::Corrupt;
        }
        if self.rng.gen_bool(self.config.duplicate_chance) {
            return FaultDecision::Duplicate;
        }
        if self.rng.gen_bool(self.config.reorder_chance) {
            let extra = self.rng.gen_range(self.config.max_delay.as_nanos().max(1));
            return FaultDecision::Delay(SimDuration(extra));
        }
        FaultDecision::Deliver
    }

    /// Flips one bit of a packet whose wire bytes are `payload` followed
    /// by `pad` unmaterialised zeros (the corruption fault). The byte is
    /// drawn over the whole wire length, so the RNG stream does not depend
    /// on how much of the packet is materialised; a flip that lands in the
    /// padding has no byte to change. No-op on an empty packet.
    pub fn corrupt(&mut self, payload: &mut [u8], pad: usize) {
        let wire_len = payload.len().saturating_add(pad);
        if wire_len == 0 {
            return;
        }
        let idx = self.rng.gen_range(wire_len as u64) as usize;
        // XOR with a nonzero value guarantees the byte actually changes.
        let bit = 1u8 << self.rng.gen_range(8);
        if let Some(byte) = payload.get_mut(idx) {
            *byte ^= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultConfig {
        /// A lossy link configuration (the smoltcp README's "good starting
        /// value" of 15% drop/corrupt).
        pub(crate) fn lossy() -> Self {
            FaultConfig {
                drop_chance: 0.15,
                corrupt_chance: 0.15,
                ..Default::default()
            }
        }
    }

    fn injector(config: FaultConfig) -> FaultInjector {
        FaultInjector::new(config, SecureRng::seed_from_u64(7))
    }

    #[test]
    fn clean_link_always_delivers() {
        let mut inj = injector(FaultConfig::default());
        for i in 0..100 {
            assert_eq!(inj.decide(SimTime(i)), FaultDecision::Deliver);
        }
    }

    #[test]
    fn full_drop_always_drops() {
        let mut inj = injector(FaultConfig {
            drop_chance: 1.0,
            ..Default::default()
        });
        assert_eq!(inj.decide(SimTime::ZERO), FaultDecision::Drop);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut inj = injector(FaultConfig {
            drop_chance: 0.15,
            ..Default::default()
        });
        let drops = (0..10_000)
            .filter(|&i| inj.decide(SimTime(i)) == FaultDecision::Drop)
            .count();
        assert!((1_200..1_800).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let mut inj = injector(FaultConfig::default());
        let original = vec![0u8; 64];
        let mut payload = original.clone();
        inj.corrupt(&mut payload, 0);
        let diffs = original
            .iter()
            .zip(payload.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn corrupt_empty_payload_is_noop() {
        let mut inj = injector(FaultConfig::default());
        let mut payload: Vec<u8> = Vec::new();
        inj.corrupt(&mut payload, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn rate_limit_enforced_within_interval() {
        let mut inj = injector(FaultConfig {
            rate_limit: Some(RateLimit {
                tokens_per_interval: 4,
                interval: SimDuration::from_millis(50),
            }),
            ..Default::default()
        });
        let t = SimTime(1);
        let delivered = (0..10)
            .filter(|_| inj.decide(t) == FaultDecision::Deliver)
            .count();
        assert_eq!(delivered, 4, "only one bucket of tokens within interval");
        // After a refill interval, tokens return.
        let t2 = t + SimDuration::from_millis(60);
        assert_eq!(inj.decide(t2), FaultDecision::Deliver);
    }

    #[test]
    fn zero_interval_refills_at_every_instant() {
        let mut inj = injector(FaultConfig {
            rate_limit: Some(RateLimit {
                tokens_per_interval: 1,
                interval: SimDuration::ZERO,
            }),
            ..Default::default()
        });
        for t in [0, 0, 5, 5, u64::MAX] {
            assert_eq!(inj.decide(SimTime(t)), FaultDecision::Deliver);
        }
        assert_eq!(inj.bucket_refill_at, SimTime::ZERO);
    }

    #[test]
    fn idle_gap_of_many_intervals_is_one_step() {
        let interval = SimDuration::from_micros(1);
        let mut inj = injector(FaultConfig {
            rate_limit: Some(RateLimit {
                tokens_per_interval: 2,
                interval,
            }),
            ..Default::default()
        });
        assert_eq!(inj.decide(SimTime::ZERO), FaultDecision::Deliver);
        // 10^12 intervals later: the refill lands on the interval holding
        // `now`, exactly where stepping one interval at a time would.
        let now = SimTime::ZERO + interval.saturating_mul(1_000_000_000_000);
        let fates: Vec<_> = (0..3).map(|_| inj.decide(now)).collect();
        use FaultDecision::{Deliver, Drop};
        assert_eq!(fates, [Deliver, Deliver, Drop]);
        assert_eq!(inj.bucket_refill_at, now + interval);
        assert_eq!(inj.decide(now + interval), Deliver);
    }

    #[test]
    fn reordering_produces_bounded_delay() {
        let mut inj = injector(FaultConfig {
            reorder_chance: 1.0,
            max_delay: SimDuration::from_millis(5),
            ..Default::default()
        });
        for i in 0..50 {
            match inj.decide(SimTime(i)) {
                FaultDecision::Delay(d) => assert!(d <= SimDuration::from_millis(5)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = FaultConfig::lossy();
        let mut a = FaultInjector::new(cfg.clone(), SecureRng::seed_from_u64(3));
        let mut b = FaultInjector::new(cfg, SecureRng::seed_from_u64(3));
        for i in 0..200 {
            assert_eq!(a.decide(SimTime(i)), b.decide(SimTime(i)));
        }
    }
}
