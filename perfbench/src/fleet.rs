//! The shard-queue fabric: the shardctl fleet in one process, run as a
//! traced lane, plus micro-lanes of the shard pipeline and the queue.
//!
//! The fleet drain plans 4096 honest demo-scenario trials on
//! `pauli-twirled` onto a `ShardQueue` of 512 shards of 8 trials in a
//! scratch directory; two worker threads, each with its own queue handle,
//! loop claim → `execute_shard` under a lease heartbeat → submit until the
//! queue drains, and the drain ends with `merge`. The fabric does almost
//! all the work: every claim and submit re-reads and rewrites the
//! O(shards) checkpoint, while executing the 4096 trials in-process takes
//! tens of milliseconds. The reference is `execute_shard` of the unsplit
//! plan.

use crate::metrics::{RunResult, QUEUE_LANES, SHARD_LANES};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{ms, remove_scratch, scratch_dir};
use protocol::engine::queue::content_fingerprint;
use protocol::engine::{
    merge_shard_results, BackendKind, ClaimOutcome, MergedRun, SessionEngine, ShardOutput,
    ShardPayload, ShardPlan, ShardQueue, SlotState, SubmitOutcome, TrialSummary,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker threads draining the queue.
pub const WORKERS: usize = 2;

/// Trials in the fleet's plan.
pub const TRIALS: usize = 4096;

/// Trials per queue shard (4096 / 8 = 512 shards).
pub const SHARD_TRIALS: usize = 8;

/// Lease length, as `shardctl queue work` defaults it.
const LEASE_MS: u64 = 60_000;

/// How long a worker waits before re-polling a queue whose every
/// claimable shard is leased elsewhere.
const POLL: Duration = Duration::from_millis(1);

/// The fleet's whole-run plan for `seed`.
///
/// # Panics
///
/// Panics when the demo scenario cannot be built (a build defect).
pub fn plan(seed: u64, trials: usize) -> ShardPlan {
    let scenario = bench::shard_io::demo_scenario("honest", seed, BackendKind::PauliTwirled)
        .expect("the honest demo scenario exists");
    SessionEngine::new(seed).plan(&scenario, trials)
}

/// The summary a correct fleet must merge to: the unsplit plan executed
/// in one call.
pub fn reference(plan: &ShardPlan) -> TrialSummary {
    let result = SessionEngine::new(0)
        .execute_shard(plan, ShardOutput::Summary)
        .expect("the demo plan executes");
    match result.payload {
        ShardPayload::Summary(builder) => builder.finish(),
        ShardPayload::Outcomes(_) => unreachable!("a summary execution yields a summary"),
    }
}

/// What one drain observed.
#[derive(Debug, Default)]
pub struct Drain {
    /// Shards executed and recorded.
    pub shards: u64,
    /// Trials executed and recorded.
    pub trials: u64,
    /// Shards whose claim, execution or submit failed.
    pub failures: u64,
    /// Claims answered with `Wait`.
    pub waits: u64,
    /// Submits answered with `AlreadyDone`.
    pub already_done: u64,
    /// Wall time of the workers' drain.
    pub drain_wall: Duration,
    /// Wall time of the final merge.
    pub merge_wall: Duration,
    /// The merged summary, when the merge succeeded.
    pub merged: Option<TrialSummary>,
}

/// One worker's loop, as `shardctl queue work` runs it.
fn work(dir: &Path, name: &str, tracer: &Tracer) -> (Drain, Instant) {
    let mut seen = Drain::default();
    let queue = match ShardQueue::open(dir) {
        Ok(queue) => queue,
        Err(error) => {
            eprintln!("[{name}] cannot open the queue: {error}");
            seen.failures += 1;
            return (seen, Instant::now());
        }
    };
    let engine = SessionEngine::new(0);
    loop {
        let c0 = Instant::now();
        let claim = queue.claim(name, LEASE_MS);
        let c1 = Instant::now();
        let plan = match claim {
            Ok(ClaimOutcome::Claimed(plan)) => plan,
            Ok(ClaimOutcome::Wait { .. }) => {
                tracer.record("engine.queue.claim", 0, 0, c0, c1);
                seen.waits += 1;
                tracer.span("fleet.idle", 0, 0, |_| std::thread::sleep(POLL));
                continue;
            }
            Ok(ClaimOutcome::Drained) => {
                tracer.record("engine.queue.claim", 0, 0, c0, c1);
                return (seen, Instant::now());
            }
            Err(error) => {
                eprintln!("[{name}] claim failed: {error}");
                seen.failures += 1;
                return (seen, Instant::now());
            }
        };
        let job = plan.trial_start;
        tracer.record("engine.queue.claim", 0, job, c0, c1);
        let beat = tracer.span("engine.queue.heartbeat", 0, job, |_| {
            queue.heartbeat(name, &plan, LEASE_MS)
        });
        let executed = tracer.span("engine.shard.execute", 0, job, |_| {
            engine.execute_shard(&plan, ShardOutput::Summary)
        });
        let submitted = match executed {
            Ok(result) => tracer.span("engine.queue.submit", 0, job, |_| queue.submit(&result)),
            Err(error) => {
                eprintln!("[{name}] shard {job} failed: {error}");
                seen.failures += 1;
                continue;
            }
        };
        tracer.span("engine.queue.heartbeat", 0, job, |_| drop(beat));
        match submitted {
            Ok(SubmitOutcome::Recorded) => {
                seen.trials += plan.trial_count as u64;
                seen.shards += 1;
            }
            Ok(SubmitOutcome::AlreadyDone) => seen.already_done += 1,
            Err(error) => {
                eprintln!("[{name}] submit of shard {job} failed: {error}");
                seen.failures += 1;
            }
        }
    }
}

/// Drains an initialized queue with [`WORKERS`] threads and merges it.
pub fn drain(dir: &Path, tracer: &Tracer) -> Drain {
    let epoch = Instant::now();
    let per_worker: Vec<(Drain, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let name = format!("fleet-worker-{w}");
                scope.spawn(move || work(dir, &name, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    let drained = Instant::now();
    let mut total = Drain {
        drain_wall: drained - epoch,
        ..Drain::default()
    };
    for (seen, exited) in per_worker {
        // A worker that found the queue drained idles until the fleet ends.
        tracer.record("fleet.idle", 0, 0, exited, drained);
        total.shards += seen.shards;
        total.trials += seen.trials;
        total.failures += seen.failures;
        total.waits += seen.waits;
        total.already_done += seen.already_done;
    }
    let m0 = Instant::now();
    let merged = tracer.span("engine.queue.merge", 0, 0, |_| {
        ShardQueue::open(dir).and_then(|q| q.merge())
    });
    total.merge_wall = m0.elapsed();
    match merged.map(MergedRun::into_summary) {
        Ok(Some(summary)) => total.merged = Some(summary),
        Ok(None) => total.failures += 1,
        Err(error) => {
            eprintln!("merge failed: {error}");
            total.failures += 1;
        }
    }
    total
}

/// The fleet drain lane: `trials` trials planned for `seed` and
/// initialized as a queue of [`SHARD_TRIALS`]-trial shards, drained once
/// by [`WORKERS`] traced workers and merged. Reports the fabric's shares of
/// the fleet's thread time and checks the merge against the unsplit plan.
/// Returns the tracer holding the drain's spans.
pub fn measure_drain(seed: u64, trials: usize, result: &mut RunResult) -> Tracer {
    let whole = plan(seed, trials);
    let want = reference(&whole);
    let dir = scratch_dir("fleet");
    ShardQueue::init(&dir, &whole, SHARD_TRIALS, ShardOutput::Summary).expect("queue initializes");
    let tracer = Tracer::new(true);
    let seen = drain(&dir, &tracer);
    remove_scratch(&dir);
    for _ in 0..seen.shards {
        result.check(true);
    }
    for _ in 0..seen.failures + seen.already_done {
        result.check(false);
    }
    result.check(seen.merged.as_ref() == Some(&want) && seen.trials == trials as u64);

    let spans = tracer.spans();
    let selfs = trace::self_ns_by_name(&spans);
    let totals = trace::total_ns_by_name(&spans);
    let thread_ns =
        (WORKERS as f64 * seen.drain_wall.as_nanos() as f64) + seen.merge_wall.as_nanos() as f64;
    let frac = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / thread_ns;
    for (metric, span) in [
        ("engine.queue.claim_self_frac", "engine.queue.claim"),
        ("engine.queue.submit_self_frac", "engine.queue.submit"),
        ("engine.queue.merge_self_frac", "engine.queue.merge"),
        ("engine.queue.execute_frac", "engine.shard.execute"),
    ] {
        result.metrics.set(metric, frac(span), "frac");
    }
    let covered: u64 = totals.values().sum();
    result.metrics.set(
        "engine.queue.span_coverage",
        covered as f64 / thread_ns,
        "frac",
    );
    let shards = seen.shards.max(1) as f64;
    result.metrics.set(
        "engine.queue.wait_claims_per_shard",
        seen.waits as f64 / shards,
        "count",
    );
    result.metrics.set(
        "engine.queue.already_done_submits",
        seen.already_done as f64,
        "count",
    );
    result.detail(
        "fleet_drain_s",
        (seen.drain_wall + seen.merge_wall).as_secs_f64(),
    );
    for (name, ns) in &totals {
        result.detail(&format!("fleet_span_total_s.{name}"), *ns as f64 / 1e9);
    }
    tracer
}

/// Trials in the micro-lanes' plan.
const LANE_TRIALS: usize = 1024;

/// Timed calls per queue micro-lane.
const LANE_CALLS: usize = 16;

/// Shard-pipeline and queue micro-lanes at 1, 64 and 1024 shards: a
/// bounded number of calls against a plan or queue of that size, never a
/// full drain.
pub fn measure_lanes(seed: u64, result: &mut RunResult) {
    let whole = plan(seed, LANE_TRIALS);
    let want = reference(&whole);
    let engine = SessionEngine::new(0);
    let scenario = whole.scenario.clone();
    for n in SHARD_LANES {
        let split: Vec<f64> = (0..25)
            .map(|_| {
                let start = Instant::now();
                let plan = SessionEngine::new(seed).plan(&scenario, LANE_TRIALS);
                std::hint::black_box(plan.split_into(n));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        result.metrics.set(
            format!("engine.shard.plan_split_us.shards{n}"),
            median(&split),
            "us",
        );
        let results: Vec<_> = whole
            .split_into(n)
            .iter()
            .map(|sub| {
                engine
                    .execute_shard(sub, ShardOutput::Summary)
                    .expect("sub-plan executes")
            })
            .collect();
        let mut merges = Vec::new();
        for _ in 0..9 {
            let copy = results.clone();
            let start = Instant::now();
            let merged = merge_shard_results(copy);
            merges.push(start.elapsed().as_secs_f64() * 1e6);
            result.check(merged.ok().and_then(MergedRun::into_summary).as_ref() == Some(&want));
        }
        result.metrics.set(
            format!("engine.shard.merge_us.shards{n}"),
            median(&merges),
            "us",
        );
    }
    for n in QUEUE_LANES {
        queue_lane(&whole, n, &want, result);
    }
}

/// The queue micro-lane at `n` shards.
fn queue_lane(whole: &ShardPlan, n: usize, want: &TrialSummary, result: &mut RunResult) {
    let shard_trials = LANE_TRIALS / n;
    let engine = SessionEngine::new(0);
    let mut inits = Vec::new();
    for _ in 0..5 {
        let dir = scratch_dir("lane");
        let start = Instant::now();
        ShardQueue::init(&dir, whole, shard_trials, ShardOutput::Summary)
            .expect("queue initializes");
        inits.push(ms(start.elapsed()));
        remove_scratch(&dir);
    }
    result.metrics.set(
        format!("engine.queue.init_ms.shards{n}"),
        median(&inits),
        "ms",
    );

    let dir = scratch_dir("lane");
    let queue = ShardQueue::init(&dir, whole, shard_trials, ShardOutput::Summary)
        .expect("queue initializes");
    let bytes = std::fs::metadata(queue.checkpoint_path()).map_or(0, |m| m.len());
    result.metrics.set(
        format!("engine.queue.checkpoint_bytes.shards{n}"),
        bytes as f64,
        "B",
    );
    let mut claims = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..LANE_CALLS {
        let start = Instant::now();
        let claimed = queue.claim("lane", LEASE_MS);
        claims.push(ms(start.elapsed()));
        match claimed {
            Ok(ClaimOutcome::Claimed(plan)) => plans.push(plan),
            _ => result.check(false),
        }
    }
    let mut submits = Vec::new();
    for plan in &plans {
        let shard = engine
            .execute_shard(plan, ShardOutput::Summary)
            .expect("shard executes");
        let start = Instant::now();
        let submitted = queue.submit(&shard);
        submits.push(ms(start.elapsed()));
        result.check(matches!(submitted, Ok(SubmitOutcome::Recorded)));
    }
    let reads: Vec<f64> = (0..LANE_CALLS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(queue.checkpoint().expect("checkpoint reads"));
            ms(start.elapsed())
        })
        .collect();
    result.metrics.set(
        format!("engine.queue.claim_ms.shards{n}"),
        median(&claims),
        "ms",
    );
    result.metrics.set(
        format!("engine.queue.submit_ms.shards{n}"),
        median(&submits),
        "ms",
    );
    result.metrics.set(
        format!("engine.queue.checkpoint_read_ms.shards{n}"),
        median(&reads),
        "ms",
    );
    remove_scratch(&dir);

    let dir = scratch_dir("lane");
    let queue = completed_queue(&dir, whole, shard_trials);
    let merges: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let merged = queue.merge();
            let took = ms(start.elapsed());
            result.check(merged.ok().and_then(MergedRun::into_summary).as_ref() == Some(want));
            took
        })
        .collect();
    result.metrics.set(
        format!("engine.queue.merge_ms.shards{n}"),
        median(&merges),
        "ms",
    );
    remove_scratch(&dir);
}

/// A queue of `whole` whose every shard is done, written through the
/// queue's persisted format (result files plus a checkpoint marking each
/// slot done with its content fingerprint) instead of a full drain.
fn completed_queue(dir: &Path, whole: &ShardPlan, shard_trials: usize) -> ShardQueue {
    let queue = ShardQueue::init(dir, whole, shard_trials, ShardOutput::Summary)
        .expect("queue initializes");
    let mut checkpoint = queue.checkpoint().expect("checkpoint reads");
    let engine = SessionEngine::new(0);
    for (slot, sub) in checkpoint
        .shards
        .iter_mut()
        .zip(whole.split_max(shard_trials))
    {
        let shard = engine
            .execute_shard(&sub, ShardOutput::Summary)
            .expect("shard executes");
        let bytes = serde::json::to_string(&shard).into_bytes();
        std::fs::write(queue.result_path(slot), &bytes).expect("result file writes");
        slot.state = SlotState::Done {
            result_fingerprint: content_fingerprint(&bytes),
        };
    }
    std::fs::write(queue.checkpoint_path(), serde::json::to_string(&checkpoint))
        .expect("checkpoint writes");
    queue
}
