//! Bounded exhaustive-interleaving model checker for the switchless
//! call ring (`teenet_sgx::switchless`).
//!
//! Svenningsson et al. ("Speeding up enclave transitions for
//! IO-intensive applications") put the hard bugs of HotCalls-style
//! designs exactly where this module looks: the sleep/wake handshake
//! between the in-enclave poster and the pool of spinning host workers.
//! A worker that re-checks the ring *before* publishing "I am asleep"
//! loses the post that lands in between (**lost wakeup**); a poster that
//! writes the ring entry *before* discovering the ring is full services
//! the call twice (**double execution**); and with more than one worker
//! a wake signal grabbed by an already-awake worker leaves the intended
//! sleeper parked while the poster believes capacity was added
//! (**stampede wake** — the thundering-herd semaphore steal).
//! `switchless.rs` is deterministic and sequential, so its unit tests
//! cannot exercise these races — this checker explores the *concurrent
//! design* the emulation stands for.
//!
//! ## The model
//!
//! `1 + N` actors over a shared ring, each step atomic:
//!
//! * **Enclave** posts calls `0..calls`, one slot each:
//!   every worker asleep → *fallback-wake* (the real transition services
//!   the call itself and posts one wake signal — an asynchronous token a
//!   sleeping worker must later consume; a second all-asleep fallback
//!   while the token is still undelivered services itself without
//!   posting another); ring full → *fallback-full* (the real transition
//!   services the call itself; the entry is **not** enqueued; if a
//!   worker is asleep and no wake is in flight, the fallback also posts
//!   a wake — the scale-up-on-fallback path of the implementation);
//!   otherwise → *elided* (entry enqueued).
//! * **Worker i**, while awake: pops and executes the oldest entry
//!   (resetting its spin budget), or burns one unit of spin budget when
//!   the ring is empty, or — with the ring empty **and** the budget
//!   exhausted — goes to sleep. That final "ring empty" re-check is the
//!   crux: dropping it is exactly the lost-wakeup race. While asleep:
//!   consumes a pending wake token and resumes spinning.
//!
//! The checker runs a depth-first search over *every* interleaving of
//! those steps (memoising visited states, so the exploration is
//! exhaustive over the reachable state space, not just over one run),
//! and validates each terminal state:
//!
//! * every posted call executed **exactly once** (no drops, no double
//!   execution),
//! * the ring is empty (a non-empty ring with every worker asleep and
//!   the enclave done is a lost wakeup — nothing will ever drain it),
//! * conservation: `elided + fallbacks == calls`. In
//!   [`teenet_sgx::TransitionStats`] terms each fallback is one `taken`
//!   pair and one `fallbacks` tick, each elided post one `elided` pair,
//!   so this is the model-side image of the stats invariant that
//!   `taken`, `elided` and `fallbacks` partition the posted pairs (see
//!   [`ModelCounters::as_transition_stats`]),
//! * wake accounting: `wakes_delivered == wakes_posted` — every wake
//!   the poster paid for (each one a charged `Op::SwitchlessWake`)
//!   actually moved a worker from asleep to spinning. A wake consumed by
//!   an already-awake worker is capacity the enclave paid for and never
//!   received.
//!
//! ## Seeded mutations
//!
//! [`Mutation::LostWakeup`] lets a worker sleep on an exhausted spin
//! budget *without* the final ring re-check; [`Mutation::DoubleExecution`]
//! makes the full-ring fallback also leave its entry in the ring (the
//! post-then-check ordering bug); [`Mutation::StampedeWake`] lets an
//! already-awake worker consume the wake token meant for a sleeper. The
//! checker must reject all three — that is asserted in
//! `tests/ring_exhaustive.rs`, proving the invariants have teeth rather
//! than passing vacuously.

use std::collections::HashSet;

use teenet_sgx::TransitionStats;

/// Model bounds. State space is exhaustively explored within them.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Ring slots (each posted call occupies one).
    pub ring_capacity: usize,
    /// Per-worker spin steps tolerated on an empty ring before sleeping.
    pub spin_budget: u32,
    /// Host workers in the pool (each an independent actor).
    pub workers: usize,
    /// Calls the enclave posts (the exploration depth).
    pub calls: u8,
    /// Hard cap on distinct states; exceeding it is an error, never a
    /// silent pass.
    pub max_states: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            ring_capacity: 2,
            spin_budget: 1,
            workers: 2,
            calls: 4,
            max_states: 1_000_000,
        }
    }
}

/// Which (if any) seeded bug the model runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful model of the switchless design.
    None,
    /// A worker sleeps once its spin budget is exhausted *without*
    /// re-checking the ring — the canonical sleep/post race.
    LostWakeup,
    /// Full-ring fallback both services the call synchronously *and*
    /// leaves the entry in the ring (post-then-check ordering bug), so
    /// a worker services it a second time.
    DoubleExecution,
    /// An already-awake worker may consume the wake signal meant for a
    /// sleeping one (semaphore steal): the sleeper stays parked, the
    /// poster paid a wake that added no capacity. Requires ≥ 2 workers
    /// to be expressible at all.
    StampedeWake,
}

impl Mutation {
    /// Stable lowercase name (used in reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::LostWakeup => "lost-wakeup",
            Mutation::DoubleExecution => "double-execution",
            Mutation::StampedeWake => "stampede-wake",
        }
    }
}

/// Post/execution counters of one terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCounters {
    /// Posts absorbed by the ring.
    pub elided: u64,
    /// Posts serviced by a real (fallback) transition.
    pub fallbacks: u64,
}

impl ModelCounters {
    /// The model counters as the real implementation would account them:
    /// each fallback is a real transition pair, each elided post a pair
    /// the ring absorbed. (The enclave's own EENTER/EEXIT pairs are
    /// outside the model — it only covers the ocall path. So is spin
    /// accounting: `idle_spins` is a cost meter, not a safety quantity,
    /// and the model deliberately keeps burned spins out of its state to
    /// keep the memoised exploration finite.)
    pub fn as_transition_stats(&self) -> TransitionStats {
        TransitionStats {
            taken: self.fallbacks,
            elided: self.elided,
            fallbacks: self.fallbacks,
            idle_spins: 0,
        }
    }
}

/// Proof of a violated invariant: what broke, and the exact
/// interleaving (step labels from the initial state) that breaks it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Human-readable description of the broken invariant.
    pub what: String,
    /// The interleaving that reaches the violating state.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invariant violated: {}", self.what)?;
        writeln!(f, "interleaving:")?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// Summary of a successful exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct terminal states, all of which passed validation.
    pub terminals: usize,
}

/// One host worker: spinning on the ring or parked on the wake futex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Worker {
    awake: bool,
    spin_left: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    next_call: u8,
    ring: Vec<u8>,
    workers: Vec<Worker>,
    /// Wake signals posted but not yet consumed by any worker.
    wake_pending: u8,
    /// Wakes the poster paid for (each one a charged `Op::SwitchlessWake`).
    wakes_posted: u8,
    /// Wakes that actually moved a worker from asleep to spinning.
    wakes_delivered: u8,
    exec: Vec<u8>,
    elided: u8,
    fallbacks: u8,
}

impl State {
    fn initial(cfg: &ModelConfig) -> State {
        State {
            next_call: 0,
            ring: Vec::new(),
            // set_mode(Switchless) starts the pool spinning.
            workers: vec![
                Worker {
                    awake: true,
                    spin_left: cfg.spin_budget,
                };
                cfg.workers.max(1)
            ],
            wake_pending: 0,
            wakes_posted: 0,
            wakes_delivered: 0,
            exec: vec![0; cfg.calls as usize],
            elided: 0,
            fallbacks: 0,
        }
    }

    fn awake_count(&self) -> usize {
        self.workers.iter().filter(|w| w.awake).count()
    }
}

/// Explores every interleaving of enclave and worker steps up to the
/// configured bounds. `Ok` means every reachable terminal state passed
/// every invariant; `Err` carries the first violation with its trace.
pub fn check(cfg: &ModelConfig, mutation: Mutation) -> Result<Exploration, Violation> {
    let mut visited = HashSet::new();
    let mut stats = Exploration {
        states: 0,
        terminals: 0,
    };
    let mut trace = Vec::new();
    explore(
        cfg,
        mutation,
        State::initial(cfg),
        &mut visited,
        &mut trace,
        &mut stats,
    )?;
    Ok(stats)
}

fn explore(
    cfg: &ModelConfig,
    mutation: Mutation,
    s: State,
    visited: &mut HashSet<State>,
    trace: &mut Vec<String>,
    stats: &mut Exploration,
) -> Result<(), Violation> {
    if visited.contains(&s) {
        return Ok(());
    }
    stats.states += 1;
    if stats.states > cfg.max_states {
        return Err(Violation {
            what: format!("state space exceeds max_states={}", cfg.max_states),
            trace: trace.clone(),
        });
    }
    let succ = successors(cfg, mutation, &s);
    if succ.is_empty() {
        stats.terminals += 1;
        validate_terminal(cfg, &s, trace)?;
    }
    visited.insert(s);
    for (label, n) in succ {
        trace.push(label);
        explore(cfg, mutation, n, visited, trace, stats)?;
        trace.pop();
    }
    Ok(())
}

/// Every enabled atomic step from `s`, with a label for the trace.
fn successors(cfg: &ModelConfig, mutation: Mutation, s: &State) -> Vec<(String, State)> {
    let mut out = Vec::new();

    // Enclave: post the next call.
    if (s.next_call as usize) < cfg.calls as usize {
        let c = s.next_call;
        let mut n = s.clone();
        n.next_call += 1;
        if s.awake_count() == 0 {
            n.exec[c as usize] += 1;
            n.fallbacks += 1;
            if s.wake_pending == 0 {
                // The real transition services the call itself and posts
                // one wake signal; a sleeping worker consumes it
                // asynchronously.
                n.wake_pending += 1;
                n.wakes_posted += 1;
                out.push((format!("enclave: post({c}) -> fallback-wake"), n));
            } else {
                // A wake is already in flight: service the call, do not
                // pay for (or post) another.
                out.push((format!("enclave: post({c}) -> fallback-asleep"), n));
            }
        } else if s.ring.len() >= cfg.ring_capacity {
            n.exec[c as usize] += 1;
            n.fallbacks += 1;
            if mutation == Mutation::DoubleExecution {
                // Bug: the entry was written before the capacity check.
                n.ring.push(c);
            }
            if s.awake_count() < s.workers.len() && s.wake_pending == 0 {
                // Scale-up-on-fallback: the overflow is evidence the
                // awake set is too small — pay to wake one more worker.
                n.wake_pending += 1;
                n.wakes_posted += 1;
            }
            out.push((format!("enclave: post({c}) -> fallback-full"), n));
        } else {
            n.ring.push(c);
            n.elided += 1;
            out.push((format!("enclave: post({c}) -> elided"), n));
        }
    }

    // Each worker: pop, spin, sleep, or wake.
    for (i, w) in s.workers.iter().enumerate() {
        if w.awake {
            if let Some(&c) = s.ring.first() {
                let mut n = s.clone();
                n.ring.remove(0);
                n.exec[c as usize] += 1;
                n.workers[i].spin_left = cfg.spin_budget;
                out.push((format!("worker {i}: pop({c}) + execute"), n));
            } else if w.spin_left > 0 {
                let mut n = s.clone();
                n.workers[i].spin_left -= 1;
                out.push((format!("worker {i}: spin"), n));
            }
            let may_sleep = match mutation {
                // Bug: no final ring re-check before publishing "asleep".
                Mutation::LostWakeup => w.spin_left == 0,
                _ => s.ring.is_empty() && w.spin_left == 0,
            };
            if may_sleep {
                let mut n = s.clone();
                n.workers[i].awake = false;
                out.push((format!("worker {i}: sleep"), n));
            }
            if mutation == Mutation::StampedeWake && s.wake_pending > 0 {
                // Bug: the wake semaphore is open to every worker, so a
                // spinning one may grab the token meant for a sleeper —
                // it resets its own spin budget, the sleeper stays
                // parked, and the paid wake delivered nothing.
                let mut n = s.clone();
                n.wake_pending -= 1;
                n.workers[i].spin_left = cfg.spin_budget;
                out.push((format!("worker {i}: steal wake (already awake)"), n));
            }
        } else if s.wake_pending > 0 {
            let mut n = s.clone();
            n.wake_pending -= 1;
            n.wakes_delivered += 1;
            n.workers[i].awake = true;
            n.workers[i].spin_left = cfg.spin_budget;
            out.push((format!("worker {i}: wake"), n));
        }
    }

    out
}

fn validate_terminal(cfg: &ModelConfig, s: &State, trace: &[String]) -> Result<(), Violation> {
    let fail = |what: String| {
        Err(Violation {
            what,
            trace: trace.to_vec(),
        })
    };
    if !s.ring.is_empty() {
        // Terminal + non-empty ring means every worker is asleep and the
        // enclave is done: nothing will ever drain these entries.
        return fail(format!(
            "lost wakeup: all workers asleep with {:?} still in the ring",
            s.ring
        ));
    }
    for (c, &n) in s.exec.iter().enumerate() {
        if n == 0 {
            return fail(format!("call {c} was dropped (never executed)"));
        }
        if n > 1 {
            return fail(format!("call {c} executed {n} times"));
        }
    }
    let total = u64::from(s.elided) + u64::from(s.fallbacks);
    if total != u64::from(cfg.calls) {
        return fail(format!(
            "conservation broken: elided {} + fallbacks {} != posts {}",
            s.elided, s.fallbacks, cfg.calls
        ));
    }
    if s.wakes_delivered != s.wakes_posted {
        // Every wake the poster paid for must have moved a worker from
        // asleep to spinning. (Terminal states have wake_pending == 0 —
        // a sleeper with a pending token always has a successor — so a
        // shortfall here means an awake worker stole the token.)
        return fail(format!(
            "stampede wake: {} wake(s) paid for, only {} delivered to a sleeper",
            s.wakes_posted, s.wakes_delivered
        ));
    }
    let stats = ModelCounters {
        elided: u64::from(s.elided),
        fallbacks: u64::from(s.fallbacks),
    }
    .as_transition_stats();
    if stats.fallbacks > stats.taken {
        return fail(format!(
            "stats invariant broken: fallbacks {} exceed taken {}",
            stats.fallbacks, stats.taken
        ));
    }
    Ok(())
}

/// Documentation cards for `teenet-analyze --explain` covering the ring
/// model itself and its seeded mutations — the model-checker counterpart
/// of the lint-rule pack in [`crate::rules::RULES`].
pub struct ModelTopic {
    /// Stable id (`--explain <id>`).
    pub id: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// The full rationale card.
    pub rationale: &'static str,
}

/// The `--explain` entries for the model checker.
pub const MODEL_TOPICS: [ModelTopic; 4] = [
    ModelTopic {
        id: "ring-model",
        summary: "exhaustive N-worker interleaving model of the switchless ring",
        rationale: "The checker explores every interleaving of one in-enclave poster and N \
                    host workers over the shared call ring (pop / spin / sleep / wake per \
                    worker, post per call), memoising states so the exploration is exhaustive \
                    over the reachable space. Terminal invariants: every call executed exactly \
                    once, ring drained, elided + fallbacks == calls, and every paid wake \
                    delivered to a sleeper. Run with --model-check; the CI grid sweeps \
                    {workers} x {ring} x {spin}.",
    },
    ModelTopic {
        id: "lost-wakeup",
        summary: "seeded mutation: sleep without the final ring re-check",
        rationale: "A worker must re-check the ring *after* exhausting its spin budget and \
                    immediately before publishing 'asleep'; the mutation drops that re-check, \
                    so a post landing in the window is stranded in the ring forever once \
                    every worker sleeps. The checker must reject this mutation with a witness \
                    interleaving, or it has no teeth.",
    },
    ModelTopic {
        id: "double-execution",
        summary: "seeded mutation: full-ring fallback leaves its entry enqueued",
        rationale: "The poster must check capacity *before* writing the ring entry; the \
                    mutation models the reversed order, so a full-ring fallback services the \
                    call synchronously and a worker later pops the leftover entry and services \
                    it again. Caught as 'call executed 2 times'.",
    },
    ModelTopic {
        id: "stampede-wake",
        summary: "seeded mutation: awake worker steals the wake meant for a sleeper",
        rationale: "With N >= 2 workers the wake path is a semaphore, and a spinning worker \
                    that grabs the token leaves the intended sleeper parked: the enclave paid \
                    a SwitchlessWake for pool capacity it never received. The model counts \
                    wakes_posted vs wakes_delivered and rejects any terminal where they \
                    differ — the thundering-herd bug the single-worker model could never \
                    express.",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_model_passes_default_bounds() {
        let e = check(&ModelConfig::default(), Mutation::None).expect("faithful model");
        assert!(e.states > 0 && e.terminals > 0);
    }

    #[test]
    fn faithful_model_passes_single_worker() {
        let cfg = ModelConfig {
            workers: 1,
            ..ModelConfig::default()
        };
        let e = check(&cfg, Mutation::None).expect("single-worker model");
        assert!(e.states > 0 && e.terminals > 0);
    }

    #[test]
    fn lost_wakeup_mutation_caught() {
        let v = check(&ModelConfig::default(), Mutation::LostWakeup)
            .expect_err("mutation must be rejected");
        assert!(
            v.what.contains("lost wakeup") || v.what.contains("dropped"),
            "{v}"
        );
        assert!(!v.trace.is_empty(), "violation must carry a witness trace");
    }

    #[test]
    fn lost_wakeup_mutation_caught_with_one_worker() {
        let cfg = ModelConfig {
            workers: 1,
            ..ModelConfig::default()
        };
        let v = check(&cfg, Mutation::LostWakeup).expect_err("mutation must be rejected");
        assert!(
            v.what.contains("lost wakeup") || v.what.contains("dropped"),
            "{v}"
        );
    }

    #[test]
    fn double_execution_mutation_caught() {
        let v = check(&ModelConfig::default(), Mutation::DoubleExecution)
            .expect_err("mutation must be rejected");
        assert!(v.what.contains("executed 2 times"), "{v}");
    }

    #[test]
    fn stampede_wake_mutation_caught() {
        let v = check(&ModelConfig::default(), Mutation::StampedeWake)
            .expect_err("mutation must be rejected");
        assert!(v.what.contains("stampede wake"), "{v}");
        assert!(
            v.trace.iter().any(|s| s.contains("steal wake")),
            "witness must show the steal: {v}"
        );
    }

    /// With one worker there is never simultaneously an awake worker and
    /// a sleeper, so the stampede steal is unreachable and the mutation
    /// passes vacuously — the reason the teeth tests (and the CI grid)
    /// exercise it at N >= 2.
    #[test]
    fn stampede_wake_needs_at_least_two_workers() {
        let cfg = ModelConfig {
            workers: 1,
            ..ModelConfig::default()
        };
        check(&cfg, Mutation::StampedeWake).expect("unreachable with one worker");
    }

    #[test]
    fn zero_spin_budget_still_sound() {
        let cfg = ModelConfig {
            spin_budget: 0,
            ..ModelConfig::default()
        };
        check(&cfg, Mutation::None).expect("spin budget 0");
    }

    #[test]
    fn single_slot_ring_still_sound() {
        let cfg = ModelConfig {
            ring_capacity: 1,
            calls: 5,
            ..ModelConfig::default()
        };
        check(&cfg, Mutation::None).expect("1-slot ring");
    }

    #[test]
    fn three_workers_still_sound() {
        let cfg = ModelConfig {
            workers: 3,
            calls: 5,
            max_states: 4_000_000,
            ..ModelConfig::default()
        };
        let e = check(&cfg, Mutation::None).expect("3-worker pool");
        assert!(e.terminals > 0);
    }

    #[test]
    fn state_cap_is_an_error_not_a_pass() {
        let cfg = ModelConfig {
            max_states: 3,
            ..ModelConfig::default()
        };
        let v = check(&cfg, Mutation::None).expect_err("cap must fail loudly");
        assert!(v.what.contains("max_states"));
    }

    #[test]
    fn counters_map_onto_transition_stats() {
        let s = ModelCounters {
            elided: 5,
            fallbacks: 2,
        }
        .as_transition_stats();
        assert_eq!(s.taken, 2);
        assert_eq!(s.elided, 5);
        assert_eq!(s.fallbacks, 2);
        assert_eq!(s.idle_spins, 0, "spin accounting is outside the model");
    }

    #[test]
    fn model_topics_cover_every_mutation() {
        for m in [
            Mutation::LostWakeup,
            Mutation::DoubleExecution,
            Mutation::StampedeWake,
        ] {
            assert!(
                MODEL_TOPICS.iter().any(|t| t.id == m.as_str()),
                "mutation {} has no --explain card",
                m.as_str()
            );
        }
    }
}
