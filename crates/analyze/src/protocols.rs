//! Model-checked replicas of the workspace's concurrency cores.
//!
//! Two protocols in the MobiCore workspace do real lock-free /
//! lock-based coordination: the sweep executor's work-stealing deque
//! pool (`crates/sweep`) and the daemon runtime's connection
//! claim / drain / backpressure state machine, which the serve and
//! router tiers share (`crates/serve/src/daemon.rs`). Both are
//! replicated here, operation for operation, against the
//! [`model::sync`](crate::model::sync) primitives so the interleaving
//! explorer can drive them.
//!
//! Each `check_*` function returns the explorer's [`Outcome`]; the
//! `Seed` parameters inject the specific bugs the checker is expected
//! to catch (a steal that duplicates jobs, a drain decrement with the
//! wrong ordering, a backpressure flag shared across sessions). Tier-1
//! tests assert that unseeded replicas verify and every seeded replica
//! is caught — see `crates/analyze/tests/protocols.rs`.
//!
//! **Bounding.** The litmus suite (`tests/model.rs`) and the isolated
//! drain-stats core below are explored exhaustively; the full replicas
//! are larger (20–40 operations across 2–3 threads), so they run under
//! a CHESS-style preemption bound of 2 — every schedule with at most
//! two involuntary context switches is explored, which is the regime
//! where the vast majority of real concurrency bugs live. Drain loops
//! that poll for the exit condition additionally rely on the step
//! budget to prune starved (unfair) schedules; those are counted in
//! [`Outcome::pruned`], never silently dropped.

use crate::model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::model::sync::{Arc, Mutex, MutexGuard};
use crate::model::{thread, Model, Outcome};
use std::collections::VecDeque;

/// Explorer configuration shared by the protocol replicas: preemption
/// bound 2 (CHESS regime), step budget sized to ~3x a fair run of the
/// largest replica so starved spins prune quickly.
pub fn protocol_model() -> Model {
    Model::new()
        .with_preemption_bound(2)
        .with_max_steps(300)
        .with_max_schedules(50_000)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Replica of the sweep executor's work-stealing deque pool.
pub mod sweep {
    use super::*;

    /// Bug seedings for [`check_exactly_once`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Seed {
        /// Faithful replica of `crates/sweep`.
        None,
        /// The steal copies the victim's jobs but forgets to remove
        /// them — the classic duplicated-work bug. Must be caught by
        /// the exactly-once assertion.
        DuplicateSteal,
    }

    /// Deals `jobs` job indices across `workers` deques with the same
    /// contiguous-chunk rule as `Executor::run_ordered`
    /// (`w = i * workers / jobs`).
    fn deal(jobs: usize, workers: usize) -> Vec<VecDeque<usize>> {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for i in 0..jobs {
            deques[i * workers / jobs].push_back(i);
        }
        deques
    }

    struct Pool {
        deques: Vec<Mutex<VecDeque<usize>>>,
        /// Per-job execution count; the exactly-once property.
        executed: Vec<AtomicUsize>,
        /// Submission-indexed result slots, like `run_ordered`.
        results: Vec<Mutex<Option<usize>>>,
    }

    /// One steal attempt: take the back half of the first non-empty
    /// victim deque, append it to our own (victim lock released
    /// first, same as `crates/sweep`), and report whether anything
    /// landed.
    fn steal(pool: &Pool, me: usize, seed: Seed) -> bool {
        for victim in 0..pool.deques.len() {
            if victim == me {
                continue;
            }
            let taken = {
                let mut dq = lock(&pool.deques[victim]);
                let len = dq.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2);
                let taken = dq.split_off(len - take);
                if seed == Seed::DuplicateSteal {
                    // Seeded bug: "forget" the removal.
                    for &j in &taken {
                        dq.push_back(j);
                    }
                }
                taken
            };
            let mut own = lock(&pool.deques[me]);
            own.extend(taken);
            return true;
        }
        false
    }

    fn worker_loop(pool: &Pool, me: usize, seed: Seed) {
        loop {
            let job = lock(&pool.deques[me]).pop_front();
            match job {
                Some(j) => {
                    pool.executed[j].fetch_add(1, Ordering::Relaxed);
                    *lock(&pool.results[j]) = Some(j);
                }
                None => {
                    if !steal(pool, me, seed) {
                        return;
                    }
                }
            }
        }
    }

    /// Checks the pool's core properties over every bounded schedule:
    /// each submitted job executes **exactly once**, and every
    /// submission-indexed result slot is filled when the pool drains.
    pub fn check_exactly_once(workers: usize, jobs: usize, seed: Seed) -> Outcome {
        protocol_model().check(move || {
            let pool = Arc::new(Pool {
                deques: deal(jobs, workers).into_iter().map(Mutex::new).collect(),
                executed: (0..jobs).map(|_| AtomicUsize::new(0)).collect(),
                results: (0..jobs).map(|_| Mutex::new(None)).collect(),
            });
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let pool = Arc::clone(&pool);
                    thread::spawn(move || worker_loop(&pool, w, seed))
                })
                .collect();
            worker_loop(&pool, 0, seed);
            for h in handles {
                h.join().expect("worker joins");
            }
            for (j, count) in pool.executed.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    1,
                    "job {j} must run exactly once"
                );
            }
            for (j, slot) in pool.results.iter().enumerate() {
                assert_eq!(*lock(slot), Some(j), "result slot {j} must be filled");
            }
        })
    }
}

/// Replica of the daemon runtime's claim / drain / backpressure state
/// machine (`crates/serve/src/daemon.rs`). The serve and router tiers
/// run that one runtime, so its retire path (the tier's `finalize`,
/// then the runtime's `Release` decrement of the live count) and its
/// worker drain exit are modelled once for both. The router's relay
/// state machine itself is not modelled.
pub mod serve {
    use super::*;

    /// Bug seedings for the drain replicas.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Seed {
        /// Faithful replica of the daemon runtime.
        None,
        /// The live count is decremented with `Relaxed` instead of
        /// `Release` — the session's counter updates are no longer
        /// published to whoever observes the drain completing.
        RelaxedDecrement,
        /// The finalizer forgets the decrement entirely; drain can
        /// never complete.
        MissingDecrement,
        /// A worker re-enqueues the session id after claiming it,
        /// so two workers can hold one session.
        DoubleClaim,
        /// The backpressure edge flag is shared across sessions
        /// instead of per-session state.
        SharedEdgeFlag,
    }

    /// The drain-stats synchronization core, isolated: two "workers"
    /// (the driver plays one) each bump the decisions counter with a
    /// `Relaxed` RMW and then retire their connection with
    /// `live.fetch_sub(1, Release)`, exactly as the runtime's retire
    /// path does after the tier's `finalize` in
    /// `crates/serve/src/daemon.rs`. An observer that sees the live
    /// count at 0 via an `Acquire` load must observe every
    /// decision: the Release decrement publishes the Relaxed counter
    /// bumps, and the second decrement's RMW continues the first
    /// one's release sequence.
    ///
    /// With [`Seed::RelaxedDecrement`] the chain is broken and the
    /// checker finds a schedule where the drain observer reads a
    /// stale decisions count.
    pub fn check_drain_stats_exact(seed: Seed) -> Outcome {
        let dec_ord = if seed == Seed::RelaxedDecrement {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        // Small enough to explore without a preemption bound.
        Model::new().with_max_schedules(50_000).check(move || {
            let live = Arc::new(AtomicUsize::new(2));
            let decisions = Arc::new(AtomicU64::new(0));
            let (live2, decisions2) = (Arc::clone(&live), Arc::clone(&decisions));
            let worker = thread::spawn(move || {
                decisions2.fetch_add(3, Ordering::Relaxed);
                live2.fetch_sub(1, dec_ord);
            });
            decisions.fetch_add(2, Ordering::Relaxed);
            live.fetch_sub(1, Ordering::Release);
            // The drain observation (worker_loop's exit check): no
            // join has happened yet, so only the Release/Acquire
            // chain can order the counter reads.
            if live.load(Ordering::Acquire) == 0 {
                assert_eq!(
                    decisions.load(Ordering::Relaxed),
                    5,
                    "drain stats must be exact once the live count reads 0"
                );
            }
            worker.join().expect("worker joins");
        })
    }

    struct Session {
        /// Set while a worker holds the session; claiming a held
        /// session is the two-owners violation.
        in_use: AtomicBool,
        /// Times this session was fully processed.
        processed: AtomicUsize,
        /// Backpressure frames emitted for this session.
        emitted: AtomicUsize,
    }

    struct Drain {
        injector: Mutex<VecDeque<usize>>,
        sessions: Vec<Session>,
        live: AtomicUsize,
        draining: AtomicBool,
        /// Seeded global edge flag (see [`Seed::SharedEdgeFlag`]).
        shared_edge: AtomicBool,
    }

    /// Queue-depth samples each session observes while being served;
    /// with threshold 2 the rising edges are at indices 1 and 4, so a
    /// correct server emits exactly 2 backpressure frames.
    const DEPTHS: [usize; 5] = [1, 3, 3, 1, 3];
    const THRESHOLD: usize = 2;
    const EDGES: usize = 2;

    fn serve_session(state: &Drain, sid: usize, seed: Seed) {
        let sess = &state.sessions[sid];
        // Claim: a session popped from the injector is exclusively
        // ours; the flag turns that invariant into an assertion.
        assert!(
            !sess.in_use.swap(true, Ordering::Acquire),
            "session {sid} held by two workers"
        );
        // Rising-edge backpressure, as in serve's service() step: emit
        // only on the not-backpressured -> backpressured transition.
        let mut edge_flag = false;
        for depth in DEPTHS {
            let above = depth > THRESHOLD;
            let was = if seed == Seed::SharedEdgeFlag {
                state.shared_edge.swap(above, Ordering::Relaxed)
            } else {
                std::mem::replace(&mut edge_flag, above)
            };
            if above && !was {
                sess.emitted.fetch_add(1, Ordering::Relaxed);
            }
        }
        sess.processed.fetch_add(1, Ordering::Relaxed);
        sess.in_use.store(false, Ordering::Release);
        // Finalize: retire the session from the live count.
        if seed != Seed::MissingDecrement {
            state.live.fetch_sub(1, Ordering::Release);
        }
    }

    fn drain_worker(state: &Drain, seed: Seed) {
        loop {
            let sid = lock(&state.injector).pop_front();
            match sid {
                Some(sid) => {
                    if seed == Seed::DoubleClaim {
                        // Seeded bug: the id leaks back into the queue
                        // while we are still serving the session.
                        lock(&state.injector).push_back(sid);
                    }
                    serve_session(state, sid, seed);
                }
                None => {
                    // worker_loop's drain exit: only leave once
                    // draining has begun and no session is live.
                    if state.draining.load(Ordering::Acquire)
                        && state.live.load(Ordering::Acquire) == 0
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Full drain replica: the driver enqueues two sessions, flips
    /// the pool into draining, and then works alongside one spawned
    /// worker until the drain-exit condition fires for both.
    ///
    /// Properties checked on every completed schedule: each session
    /// is served exactly once, never by two workers at once, each
    /// emits exactly one backpressure frame per rising edge, and both
    /// workers exit — i.e. drain terminates on every fair schedule
    /// ([`Seed::MissingDecrement`] turns *every* schedule into a
    /// starved spin, observable as `schedules == 0` with everything
    /// pruned).
    pub fn check_drain(seed: Seed) -> Outcome {
        check_drain_with(protocol_model(), seed)
    }

    /// [`check_drain`] under an explicit explorer configuration —
    /// used to cap exploration for seedings where every schedule
    /// spins (e.g. [`Seed::MissingDecrement`]).
    pub fn check_drain_with(model: Model, seed: Seed) -> Outcome {
        model.check(move || {
            let state = Arc::new(Drain {
                injector: Mutex::new(VecDeque::from([0usize, 1])),
                sessions: (0..2)
                    .map(|_| Session {
                        in_use: AtomicBool::new(false),
                        processed: AtomicUsize::new(0),
                        emitted: AtomicUsize::new(0),
                    })
                    .collect(),
                live: AtomicUsize::new(2),
                draining: AtomicBool::new(false),
                shared_edge: AtomicBool::new(false),
            });
            let state2 = Arc::clone(&state);
            let worker = thread::spawn(move || drain_worker(&state2, seed));
            // Drain begins while sessions are still in flight — the
            // interesting regime.
            state.draining.store(true, Ordering::Release);
            drain_worker(&state, seed);
            worker.join().expect("worker joins");
            for (sid, sess) in state.sessions.iter().enumerate() {
                assert_eq!(
                    sess.processed.load(Ordering::Relaxed),
                    1,
                    "session {sid} must be served exactly once"
                );
                assert_eq!(
                    sess.emitted.load(Ordering::Relaxed),
                    EDGES,
                    "session {sid} must emit one backpressure frame per rising edge"
                );
            }
            assert_eq!(
                state.live.load(Ordering::Relaxed),
                0,
                "drain leaves no live session"
            );
        })
    }
}
