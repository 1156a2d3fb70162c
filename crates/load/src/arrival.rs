//! Seeded arrival processes for the load driver.
//!
//! Open-loop load injects sessions at times drawn from a Poisson process
//! (exponential inter-arrivals), independent of completions — the regime
//! where queueing delay and tail latency actually appear. Closed-loop load
//! keeps a fixed number of sessions in flight; the runner schedules the
//! next arrival on completion, so this module only supplies the initial
//! batch for that mode.

use teenet_crypto::SecureRng;
use teenet_netsim::{SimDuration, SimTime};

/// How sessions are injected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson arrivals at `rate_per_sec`, regardless of completions.
    OpenLoop {
        /// Mean arrival rate in sessions per (virtual) second.
        rate_per_sec: f64,
    },
    /// A fixed number of sessions in flight at all times.
    ClosedLoop {
        /// In-flight session target.
        concurrency: u32,
    },
}

/// Deterministic generator of arrival times for one run.
pub struct ArrivalProcess {
    kind: Arrival,
    rng: SecureRng,
    next_at: SimTime,
    issued: u64,
    total: u64,
}

impl ArrivalProcess {
    /// A process issuing `total` sessions under `kind`; all randomness
    /// comes from `rng` (forked per concern by the caller).
    pub fn new(kind: Arrival, total: u64, rng: SecureRng) -> Self {
        ArrivalProcess {
            kind,
            rng,
            next_at: SimTime::ZERO,
            issued: 0,
            total,
        }
    }

    /// Next arrival time, or `None` when exhausted.
    ///
    /// Open loop: exponential gaps via inverse-CDF sampling. Closed loop:
    /// the first `concurrency` sessions arrive at t=0; afterwards the
    /// runner calls [`ArrivalProcess::completion_arrival`] instead.
    pub fn next_arrival(&mut self) -> Option<(u64, SimTime)> {
        if self.issued >= self.total {
            return None;
        }
        let idx = self.issued;
        match self.kind {
            Arrival::OpenLoop { rate_per_sec } => {
                let at = self.next_at;
                let gap = exponential_gap(rate_per_sec, &mut self.rng);
                self.next_at += gap;
                self.issued += 1;
                Some((idx, at))
            }
            Arrival::ClosedLoop { concurrency } => {
                if idx >= concurrency as u64 {
                    return None;
                }
                self.issued += 1;
                Some((idx, SimTime::ZERO))
            }
        }
    }

    /// Advances past the next `n` arrivals without handing them out, so a
    /// shard can re-derive the global open-loop schedule and position it
    /// at its own index range in O(n) cheap RNG draws with no per-session
    /// storage. (Closed loop stops at the initial batch like
    /// [`ArrivalProcess::next_arrival`] does.)
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_arrival().is_none() {
                break;
            }
        }
    }

    /// Closed loop only: back to the state [`ArrivalProcess::new`] built.
    /// A closed loop hands out indices and never draws from its RNG, so
    /// the counters are all there is to rewind (an open-loop process has
    /// consumed part of its stream and must be rebuilt from its seed).
    pub fn rewind(&mut self) {
        debug_assert!(matches!(self.kind, Arrival::ClosedLoop { .. }));
        self.next_at = SimTime::ZERO;
        self.issued = 0;
    }

    /// Closed loop only: the session replacing a completed one, arriving
    /// at the completion time. Returns `None` when exhausted or open-loop.
    pub fn completion_arrival(&mut self, at: SimTime) -> Option<(u64, SimTime)> {
        match self.kind {
            Arrival::ClosedLoop { .. } if self.issued < self.total => {
                let idx = self.issued;
                self.issued += 1;
                Some((idx, at))
            }
            _ => None,
        }
    }
}

/// One exponential inter-arrival gap at `rate_per_sec` (mean 1/rate),
/// clamped to ≥ 1ns so time always advances.
fn exponential_gap(rate_per_sec: f64, rng: &mut SecureRng) -> SimDuration {
    // Uniform in (0, 1]: avoid ln(0).
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let secs = -u.ln() / rate_per_sec.max(1e-9);
    SimDuration(((secs * 1e9) as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_mean_gap_matches_rate() {
        let rng = SecureRng::seed_from_u64(42);
        let mut p = ArrivalProcess::new(
            Arrival::OpenLoop {
                rate_per_sec: 100.0,
            },
            5000,
            rng,
        );
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some((_, at)) = p.next_arrival() {
            last = at;
            n += 1;
        }
        assert_eq!(n, 5000);
        // 5000 arrivals at 100/s ⇒ ~50s of virtual time (±15%).
        let secs = last.as_secs_f64();
        assert!((42.0..58.0).contains(&secs), "{secs}");
    }

    #[test]
    fn open_loop_times_strictly_increase() {
        let rng = SecureRng::seed_from_u64(7);
        let mut p = ArrivalProcess::new(Arrival::OpenLoop { rate_per_sec: 1e6 }, 1000, rng);
        let mut prev = None;
        while let Some((_, at)) = p.next_arrival() {
            if let Some(prev) = prev {
                assert!(at > prev, "arrivals must advance");
            }
            prev = Some(at);
        }
    }

    #[test]
    fn closed_loop_issues_initial_batch_then_on_completion() {
        let rng = SecureRng::seed_from_u64(1);
        let mut p = ArrivalProcess::new(Arrival::ClosedLoop { concurrency: 4 }, 6, rng);
        let initial: Vec<_> = std::iter::from_fn(|| p.next_arrival()).collect();
        assert_eq!(initial.len(), 4);
        assert!(initial.iter().all(|&(_, at)| at == SimTime::ZERO));
        let t = SimTime(55);
        assert_eq!(p.completion_arrival(t), Some((4, t)));
        assert_eq!(p.completion_arrival(t), Some((5, t)));
        assert_eq!(p.completion_arrival(t), None, "exhausted");
    }

    #[test]
    fn skip_positions_a_fresh_stream_mid_schedule() {
        let make = || {
            ArrivalProcess::new(
                Arrival::OpenLoop { rate_per_sec: 75.0 },
                200,
                SecureRng::seed_from_u64(5),
            )
        };
        let mut full = make();
        full.skip(120);
        let tail: Vec<_> = std::iter::from_fn(|| full.next_arrival()).collect();
        let mut reference = make();
        let all: Vec<_> = std::iter::from_fn(|| reference.next_arrival()).collect();
        assert_eq!(tail, all[120..], "skip ≡ discarding the first n draws");
        let mut past_end = make();
        past_end.skip(10_000);
        assert_eq!(past_end.next_arrival(), None, "skip clamps at exhaustion");
    }

    #[test]
    fn same_seed_same_schedule() {
        let make = || {
            let rng = SecureRng::seed_from_u64(99);
            let mut p = ArrivalProcess::new(Arrival::OpenLoop { rate_per_sec: 50.0 }, 100, rng);
            std::iter::from_fn(move || p.next_arrival()).collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }
}
