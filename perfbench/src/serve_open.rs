//! `serve-open`: an in-process `qsdc-serve` (two workers, per-client quota
//! two, a scratch spool) under one generator that follows a seeded
//! **open-loop** arrival schedule at a fixed rate over two TCP
//! connections, one thread each.
//!
//! The mix is `serve_load`'s three session shapes, a small share of
//! `Campaign` jobs (the checked-in `demo.json`) and `Status` requests after
//! every fourth job, so reads sit beside writes. Each job is timed from
//! its **due** time, so a stall delays every job behind it; `Busy` answers
//! are retried and the retry wait counts toward latency. Every `Done` is
//! checked against an in-process execution of the job's plan.

use crate::metrics::{RunResult, JOB_SHAPES, REGISTRY_LANES};
use crate::stats::{median, median_tail, tail};
use crate::trace::Tracer;
use crate::{derive, ms, remove_scratch, scratch_dir, RunConfig};
use protocol::engine::{
    Campaign, NoSampler, Parallelism, Scenario, SessionEngine, ShardOutput, ShardPayload,
};
use protocol::identity::IdentityPair;
use protocol::wire::{JobManifest, JobSpec, Request, Response, MANIFEST_VERSION};
use protocol::SessionConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serve::registry::ResponseSink;
use serve::server::{read_frame, Frame};
use serve::spool::WorkClaim;
use serve::{JobOutcome, Registry, Server, ServerConfig, Spool};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker pool size.
pub const SERVER_WORKERS: usize = 2;

/// Per-client unfinished-job quota (as `serve_load` runs it).
pub const QUOTA: usize = 2;

/// Snapshot cadence and shard granularity; larger than any job in the mix,
/// so every session job is one shard.
const SNAPSHOT_TRIALS: usize = 64;

/// Client connections (and generator threads).
pub const CONNECTIONS: usize = 2;

/// Job arrivals per second: about half the closed-loop capacity of two
/// connections at quota two (≈100 jobs/s on a two-core host).
pub const RATE_PER_S: f64 = 50.0;

/// A `Status` request follows every this many jobs on a connection.
pub const STATUS_EVERY: usize = 4;

/// Share of jobs that are `Campaign` jobs.
pub const CAMPAIGN_SHARE: f64 = 0.04;

/// A job meets its objective when its `Done` arrives within this limit of
/// its due time.
pub const SLO: Duration = Duration::from_millis(100);

/// Wait after a `Busy` before resubmitting.
const BUSY_BACKOFF: Duration = Duration::from_millis(2);

/// How long after the last arrival the generator waits for outstanding
/// jobs before counting them lost.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// The schedule is cut into this many equal stretches by due time; the
/// reported tail is the median of the stretches' tails.
const TAIL_UNITS: usize = 10;

/// Server set-ups per run whose median is `setup_s`.
const SETUPS: usize = 5;

/// One request of the arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the schedule.
    pub due: Duration,
    /// Which connection sends it.
    pub conn: usize,
    /// What it is.
    pub kind: Planned,
}

/// A scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// Submit job number `index` of shape `shape` (an index into
    /// [`JOB_SHAPES`]).
    Job {
        /// Job number in the schedule.
        index: usize,
        /// Shape index.
        shape: usize,
    },
    /// Ask for the status of the connection's latest accepted job.
    Status,
}

/// The seeded open-loop schedule for a window: `RATE_PER_S × window` job
/// arrivals, job `i` due at a uniformly random point of the `i`-th slot of
/// length `1 / RATE_PER_S` (a jittered fixed rate: every seed offers the
/// same load, without the clumps of a Poisson process that would make the
/// tail a property of the seed), connections alternating, shapes in fixed
/// proportions — [`CAMPAIGN_SHARE`] campaign jobs, the rest split evenly
/// over the three session shapes — in seeded order, and a `Status` after
/// every [`STATUS_EVERY`]-th job of a connection.
pub fn schedule(seed: u64, window: Duration) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 0x5e4e));
    let jobs = (RATE_PER_S * window.as_secs_f64()).round() as usize;
    let times: Vec<f64> = (0..jobs)
        .map(|i| (i as f64 + rng.gen::<f64>()) / RATE_PER_S)
        .collect();
    let campaigns = (CAMPAIGN_SHARE * jobs as f64).round() as usize;
    let mut shapes: Vec<usize> = (0..jobs)
        .map(|i| if i < campaigns { 3 } else { i % 3 })
        .collect();
    shapes.shuffle(&mut rng);
    let mut arrivals = Vec::with_capacity(jobs + jobs / STATUS_EVERY);
    let mut per_conn = [0usize; CONNECTIONS];
    for (index, (at, shape)) in times.into_iter().zip(shapes).enumerate() {
        let due = Duration::from_secs_f64(at);
        let conn = index % CONNECTIONS;
        arrivals.push(Arrival {
            due,
            conn,
            kind: Planned::Job { index, shape },
        });
        per_conn[conn] += 1;
        if per_conn[conn] % STATUS_EVERY == 0 {
            arrivals.push(Arrival {
                due,
                conn,
                kind: Planned::Status,
            });
        }
    }
    arrivals
}

/// A lean session scenario: small message, 16 DI pairs, ideal channel
/// (`serve_load`'s small and medium shapes).
fn lean_scenario(seed: u64, label: &str) -> Scenario {
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(16)
        .build()
        .expect("the lean configuration is valid");
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(2, &mut rng);
    Scenario::new(config, identities).with_label(label.to_string())
}

/// The job spec of job `index` with shape `shape`.
pub fn job_spec(seed: u64, index: usize, shape: usize) -> JobSpec {
    let job_seed = derive(seed, index as u64);
    let session = |scenario: Scenario, trials: usize| JobSpec::Session {
        scenario,
        trials,
        seed: job_seed,
    };
    match JOB_SHAPES[shape] {
        "small" => session(lean_scenario(seed, "serve-open-small"), 4),
        "medium" => session(lean_scenario(seed, "serve-open-medium"), 12),
        "demo" => session(
            bench::shard_io::demo_scenario("honest", seed, Default::default())
                .expect("the honest demo scenario exists"),
            8,
        ),
        _ => {
            let mut campaign: Campaign =
                bench::campaigns::stored_campaign("demo").expect("the demo campaign is checked in");
            campaign.master_seed = job_seed;
            JobSpec::Campaign { campaign }
        }
    }
}

/// Sessions a job spec runs.
fn spec_trials(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::Session { trials, .. } => *trials as u64,
        JobSpec::Campaign { campaign } => campaign
            .expand()
            .map_or(0, |points| points.iter().map(|p| p.trials as u64).sum()),
    }
}

/// Executes a job in-process: the session plan through `execute_shard`,
/// a campaign through `run_direct`. Returns the result and the compute time.
pub fn execute_in_process(spec: &JobSpec) -> (JobOutcome, Duration) {
    let start = Instant::now();
    let expected = match spec {
        JobSpec::Session {
            scenario,
            trials,
            seed,
        } => {
            let engine = SessionEngine::new(*seed);
            let plan = engine.plan(scenario, *trials);
            let result = engine
                .execute_shard(&plan, ShardOutput::Summary)
                .expect("the mix's plans execute");
            match result.payload {
                ShardPayload::Summary(builder) => JobOutcome::Session(builder.finish()),
                ShardPayload::Outcomes(_) => unreachable!("a summary execution yields a summary"),
            }
        }
        JobSpec::Campaign { campaign } => JobOutcome::Campaign(
            campaign
                .run_direct(Parallelism::Serial, &NoSampler)
                .expect("the demo campaign runs"),
        ),
    };
    (expected, start.elapsed())
}

/// One scheduled job as the generator saw it.
#[derive(Debug, Clone)]
struct Track {
    index: usize,
    due: Instant,
    first_sent: Option<Instant>,
    last_sent: Option<Instant>,
    accepted: Option<Instant>,
    done: Option<Instant>,
    busy: u32,
    failed: bool,
    answer: Option<JobOutcome>,
}

/// A request waiting for its direct reply, in send order.
#[derive(Debug, Clone, Copy)]
enum Direct {
    Submit(usize),
    Status { job: u64, sent: Instant },
}

/// What one connection's generator thread brings home.
#[derive(Debug, Default)]
struct ConnResult {
    tracks: Vec<Track>,
    status_rtt_ms: Vec<f64>,
    status_attempted: u64,
    status_failed: u64,
    stray_errors: u64,
}

/// A connection speaking newline-delimited JSON with timed reads that
/// keep partial lines across timeouts.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
        };
        match conn.recv_until(Instant::now() + Duration::from_secs(10))? {
            Some(Response::Hello { .. }) => Ok(conn),
            other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        }
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_line(&request_line(request))
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// The next response, or `None` when `deadline` passes first.
    fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<Response>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = std::str::from_utf8(&line[..pos]).map_err(io::Error::other)?;
                return serde::json::from_str(text)
                    .map(Some)
                    .map_err(|e| io::Error::other(format!("unparseable response: {e}")));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).max(Duration::from_micros(100));
            self.stream.set_read_timeout(Some(wait))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One request as a newline-terminated wire line.
fn request_line(request: &Request) -> String {
    let mut line = serde::json::to_string(request);
    line.push('\n');
    line
}

/// The generator loop of one connection. `submits` holds each job's
/// `Submit` line, serialized before the run so the generator only writes.
fn generate(
    mut conn: Conn,
    arrivals: &[Arrival],
    submits: &HashMap<usize, String>,
    t0: Instant,
    tracer: &Tracer,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut local: HashMap<usize, usize> = HashMap::new();
    for arrival in arrivals {
        if let Planned::Job { index, .. } = arrival.kind {
            local.insert(index, out.tracks.len());
            out.tracks.push(Track {
                index,
                due: t0 + arrival.due,
                first_sent: None,
                last_sent: None,
                accepted: None,
                done: None,
                busy: 0,
                failed: false,
                answer: None,
            });
        }
    }
    let hard_deadline = t0 + arrivals.last().map_or(Duration::ZERO, |a| a.due) + DRAIN_GRACE;
    let mut next = 0usize;
    let mut outstanding: VecDeque<Direct> = VecDeque::new();
    let mut retries: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut deferred_status = 0usize;
    let mut last_accepted: Option<u64> = None;
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut early_done: HashMap<u64, (Instant, Response)> = HashMap::new();
    let mut finished = 0usize;

    let submit =
        |conn: &mut Conn, track: &mut Track, outstanding: &mut VecDeque<Direct>, i: usize| {
            let sent = Instant::now();
            if conn.send_line(&submits[&track.index]).is_err() {
                track.failed = true;
                return false;
            }
            track.first_sent.get_or_insert(sent);
            track.last_sent = Some(sent);
            outstanding.push_back(Direct::Submit(i));
            true
        };

    loop {
        let now = Instant::now();
        while retries.front().is_some_and(|&(_, at)| at <= now) {
            let (i, _) = retries.pop_front().expect("front exists");
            if !submit(&mut conn, &mut out.tracks[i], &mut outstanding, i) {
                finished += 1;
            }
        }
        while next < arrivals.len() && t0 + arrivals[next].due <= now {
            match arrivals[next].kind {
                Planned::Job { index, .. } => {
                    let i = local[&index];
                    if !submit(&mut conn, &mut out.tracks[i], &mut outstanding, i) {
                        finished += 1;
                    }
                }
                Planned::Status => deferred_status += 1,
            }
            next += 1;
        }
        if let Some(job) = last_accepted {
            while deferred_status > 0 {
                deferred_status -= 1;
                out.status_attempted += 1;
                let sent = Instant::now();
                if conn.send(&Request::Status { job }).is_err() {
                    out.status_failed += 1;
                } else {
                    outstanding.push_back(Direct::Status { job, sent });
                }
            }
        }
        let all_sent = next == arrivals.len() && retries.is_empty();
        if all_sent && outstanding.is_empty() && finished == out.tracks.len() {
            break;
        }
        if now >= hard_deadline {
            break;
        }
        let mut wake = hard_deadline;
        if let Some(a) = arrivals.get(next) {
            wake = wake.min(t0 + a.due);
        }
        if let Some(&(_, at)) = retries.front() {
            wake = wake.min(at);
        }
        let response = match conn.recv_until(wake) {
            Ok(Some(response)) => response,
            Ok(None) => continue,
            Err(error) => {
                eprintln!("serve-open: connection failed: {error}");
                break;
            }
        };
        let at = Instant::now();
        match response {
            Response::Accepted { job } => match outstanding.pop_front() {
                Some(Direct::Submit(i)) => {
                    let track = &mut out.tracks[i];
                    track.accepted = Some(at);
                    if let Some(sent) = track.last_sent {
                        tracer.record("serve.admit", 0, track.index as u64, sent, at);
                    }
                    by_id.insert(job, i);
                    last_accepted = Some(job);
                    if let Some((done_at, response)) = early_done.remove(&job) {
                        finished += complete(&mut out.tracks[i], done_at, response, tracer);
                    }
                }
                _ => out.stray_errors += 1,
            },
            Response::Busy { .. } => match outstanding.pop_front() {
                Some(Direct::Submit(i)) => {
                    let track = &mut out.tracks[i];
                    track.busy += 1;
                    if let Some(sent) = track.last_sent {
                        tracer.record("serve.busy", 0, track.index as u64, sent, at);
                    }
                    retries.push_back((i, at + BUSY_BACKOFF));
                }
                _ => out.stray_errors += 1,
            },
            Response::Status { job, .. } => match outstanding.pop_front() {
                Some(Direct::Status { job: asked, sent }) => {
                    out.status_rtt_ms.push(ms(at - sent));
                    tracer.record("serve.status", 0, job, sent, at);
                    if asked != job {
                        out.status_failed += 1;
                    }
                }
                _ => out.stray_errors += 1,
            },
            done @ Response::Done { .. } => {
                let Response::Done { job, .. } = done else {
                    unreachable!()
                };
                match by_id.get(&job) {
                    Some(&i) => finished += complete(&mut out.tracks[i], at, done, tracer),
                    None => {
                        early_done.insert(job, (at, done));
                    }
                }
            }
            Response::Error { message, .. } => {
                eprintln!("serve-open: server error: {message}");
                // A job failure names its job; anything else answers the
                // oldest direct request.
                let failed_job = message
                    .strip_prefix("job ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|id| id.parse::<u64>().ok());
                match failed_job.and_then(|id| by_id.get(&id).copied()) {
                    Some(i) => {
                        out.tracks[i].failed = true;
                        finished += 1;
                    }
                    None => match outstanding.pop_front() {
                        Some(Direct::Submit(i)) => {
                            out.tracks[i].failed = true;
                            finished += 1;
                        }
                        Some(Direct::Status { .. }) => out.status_failed += 1,
                        None => out.stray_errors += 1,
                    },
                }
            }
            Response::Snapshot { .. } => {}
            _ => out.stray_errors += 1,
        }
    }
    out
}

/// Records a job's `Done`; returns 1 (one more job finished).
fn complete(track: &mut Track, at: Instant, done: Response, tracer: &Tracer) -> usize {
    if let Response::Done {
        summary, report, ..
    } = done
    {
        track.done = Some(at);
        track.answer = match (summary, report) {
            (Some(summary), None) => Some(JobOutcome::Session(summary)),
            (None, Some(report)) => Some(JobOutcome::Campaign(report)),
            _ => None,
        };
        if let Some(accepted) = track.accepted {
            tracer.record("serve.run", 0, track.index as u64, accepted, at);
        }
        tracer.record("serve.job", 0, track.index as u64, track.due, at);
    }
    1
}

/// Starts a server on a fresh spool and opens the generator's connections.
fn set_up() -> io::Result<(Server, Vec<Conn>, std::path::PathBuf, Duration)> {
    let spool = scratch_dir("spool");
    let start = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        spool_dir: spool.clone(),
        workers: SERVER_WORKERS,
        quota: QUOTA,
        snapshot_trials: SNAPSHOT_TRIALS,
        ..ServerConfig::default()
    })?;
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((server, conns, spool, start.elapsed()))
}

/// One pass of the schedule against a fresh server.
struct Pass {
    tracks: Vec<Track>,
    status_rtt_ms: Vec<f64>,
    status_attempted: u64,
    status_failed: u64,
    stray_errors: u64,
    wall: Duration,
    setup: Duration,
}

fn pass(
    arrivals: &[Arrival],
    submits: &HashMap<usize, String>,
    tracer: &Tracer,
) -> io::Result<Pass> {
    let (server, conns, spool, setup) = set_up()?;
    // A short lead so both threads start on the same clock.
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<Arrival> = arrivals.iter().filter(|a| a.conn == c).copied().collect();
                scope.spawn(move || generate(conn, &mine, submits, t0, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = Pass {
        tracks: Vec::new(),
        status_rtt_ms: Vec::new(),
        status_attempted: 0,
        status_failed: 0,
        stray_errors: 0,
        wall: Duration::ZERO,
        setup,
    };
    for r in results {
        out.tracks.extend(r.tracks);
        out.status_rtt_ms.extend(r.status_rtt_ms);
        out.status_attempted += r.status_attempted;
        out.status_failed += r.status_failed;
        out.stray_errors += r.stray_errors;
    }
    out.tracks.sort_by_key(|t| t.index);
    let last_done = out.tracks.iter().filter_map(|t| t.done).max().unwrap_or(t0);
    out.wall = last_done.saturating_duration_since(t0);
    drop(server);
    remove_scratch(&spool);
    Ok(out)
}

/// Checks every job against its in-process execution, every status reply
/// and every stray response.
fn verify(pass: &Pass, refs: &HashMap<usize, (JobOutcome, Duration)>, result: &mut RunResult) {
    for track in &pass.tracks {
        let ok = !track.failed
            && track.done.is_some()
            && track.answer.as_ref() == refs.get(&track.index).map(|(e, _)| e);
        result.check(ok);
    }
    for i in 0..pass.status_attempted {
        result.check(i >= pass.status_failed);
    }
    for _ in 0..pass.stray_errors {
        result.check(false);
    }
}

/// Runs the workload. See the module docs.
pub fn run(config: &RunConfig) -> RunResult {
    let mut result = RunResult::default();
    let window = if config.trace {
        config.window / 2
    } else {
        config.window
    };
    let arrivals = schedule(config.seed, window);
    let specs: HashMap<usize, JobSpec> = arrivals
        .iter()
        .filter_map(|a| match a.kind {
            Planned::Job { index, shape } => Some((index, job_spec(config.seed, index, shape))),
            Planned::Status => None,
        })
        .collect();
    let submits: HashMap<usize, String> = specs
        .iter()
        .map(|(&i, spec)| (i, request_line(&Request::Submit { job: spec.clone() })))
        .collect();
    let refs: HashMap<usize, (JobOutcome, Duration)> = specs
        .iter()
        .map(|(&i, spec)| (i, execute_in_process(spec)))
        .collect();
    let mut setups: Vec<f64> = Vec::new();
    for _ in 1..SETUPS {
        match set_up() {
            Ok((server, conns, spool, took)) => {
                setups.push(took.as_secs_f64());
                drop(conns);
                drop(server);
                remove_scratch(&spool);
            }
            Err(error) => {
                eprintln!("serve-open: set-up failed: {error}");
                result.check(false);
            }
        }
    }
    let untraced = match pass(&arrivals, &submits, &Tracer::new(false)) {
        Ok(p) => p,
        Err(error) => {
            eprintln!("serve-open: server failed to start: {error}");
            result.check(false);
            return result;
        }
    };
    setups.push(untraced.setup.as_secs_f64());
    verify(&untraced, &refs, &mut result);
    result.detail("jobs", untraced.tracks.len());
    result.detail("status_requests", untraced.status_attempted);
    result.detail("rate_per_s", RATE_PER_S);

    if config.trace {
        let tracer = Tracer::new(true);
        match pass(&arrivals, &submits, &tracer) {
            Ok(traced) => {
                verify(&traced, &refs, &mut result);
                report_traced(&traced, &refs, &mut result);
                let overhead = traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0;
                result.metrics.set("trace_overhead_frac", overhead, "frac");
            }
            Err(error) => {
                eprintln!("serve-open: traced pass failed: {error}");
                result.check(false);
            }
        }
        crate::write_spans(
            &format!("{}-seed{}", config.workload.name(), config.seed),
            &tracer,
        );
        return result;
    }

    let latencies: Vec<f64> = untraced
        .tracks
        .iter()
        .filter_map(|t| t.done.map(|d| ms(d - t.due)))
        .collect();
    let mut stretches = vec![Vec::new(); TAIL_UNITS];
    let jobs = untraced.tracks.len().max(1);
    for (n, track) in untraced.tracks.iter().enumerate() {
        if let Some(done) = track.done {
            stretches[n * TAIL_UNITS / jobs].push(ms(done - track.due));
        }
    }
    let met = untraced
        .tracks
        .iter()
        .filter(|t| {
            !t.failed
                && t.done.is_some_and(|d| d - t.due <= SLO)
                && t.answer.as_ref() == refs.get(&t.index).map(|(e, _)| e)
        })
        .count();
    let trials: u64 = untraced
        .tracks
        .iter()
        .filter(|t| t.done.is_some())
        .map(|t| spec_trials(&specs[&t.index]))
        .sum();
    let t = median_tail(&stretches);
    result.metrics.set(
        "trials_per_s",
        trials as f64 / untraced.wall.as_secs_f64(),
        "1/s",
    );
    result
        .metrics
        .set("job_latency_p50_ms", median(&latencies), "ms");
    result.metrics.set("job_latency_tail_ms", t.value, "ms");
    result.metrics.set(
        "slo_met_frac",
        met as f64 / untraced.tracks.len().max(1) as f64,
        "frac",
    );
    result.metrics.set("setup_s", median(&setups), "s");
    result.detail("job", "one submitted job, due to Done");
    result.detail("tail_percentile", t.percentile);
    result.detail("tail_samples", t.samples);
    result.detail("slo_ms", ms(SLO));
    result
}

/// Client-side per-layer metrics of the traced pass.
fn report_traced(
    pass: &Pass,
    refs: &HashMap<usize, (JobOutcome, Duration)>,
    result: &mut RunResult,
) {
    let done: Vec<&Track> = pass.tracks.iter().filter(|t| t.done.is_some()).collect();
    let admit: Vec<f64> = done
        .iter()
        .filter_map(|t| Some(ms(t.accepted? - t.last_sent?)))
        .collect();
    let run: Vec<f64> = done
        .iter()
        .filter_map(|t| Some(ms(t.done? - t.accepted?)))
        .collect();
    let execute: Vec<f64> = done
        .iter()
        .filter_map(|t| {
            let run = (t.done? - t.accepted?).as_secs_f64();
            Some(refs.get(&t.index)?.1.as_secs_f64() / run)
        })
        .collect();
    let lag: Vec<f64> = pass
        .tracks
        .iter()
        .filter_map(|t| Some(ms(t.first_sent?.saturating_duration_since(t.due))))
        .collect();
    let busy: u32 = pass.tracks.iter().map(|t| t.busy).sum();
    result
        .metrics
        .set("serve.admit_ms.p50", median(&admit), "ms");
    result
        .metrics
        .set("serve.admit_ms.tail", tail(&admit).value, "ms");
    result.metrics.set("serve.run_ms.p50", median(&run), "ms");
    result
        .metrics
        .set("serve.run_ms.tail", tail(&run).value, "ms");
    result.metrics.set(
        "serve.busy_per_job",
        f64::from(busy) / pass.tracks.len().max(1) as f64,
        "count",
    );
    result
        .metrics
        .set("serve.status_rtt_ms.p50", median(&pass.status_rtt_ms), "ms");
    result
        .metrics
        .set("serve.execute_frac", median(&execute), "frac");
    result
        .metrics
        .set("serve.gen_lag_ms.tail", tail(&lag).value, "ms");
}

/// A sink that drops every response (the registry lane has no clients).
struct NullSink;

impl ResponseSink for NullSink {
    fn send(&self, _response: &Response) {}
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn manifest(job: u64, spec: JobSpec) -> JobManifest {
    JobManifest {
        version: MANIFEST_VERSION,
        job,
        client: "client-0".to_string(),
        spec,
        shard_trials: SNAPSHOT_TRIALS,
    }
}

/// The service's layers replayed through their public API with the
/// workload's job mix: frame decoding, spool lowering per job shape, the
/// fair scheduler at 4 and 400 live jobs, and a job's claim, snapshot and
/// finalize on the spool.
pub fn measure_lanes(seed: u64, result: &mut RunResult) {
    let arrivals = schedule(seed, Duration::from_secs(4));
    let mut wire = Vec::new();
    let mut frames = 0usize;
    for (n, arrival) in arrivals.iter().enumerate() {
        let request = match arrival.kind {
            Planned::Job { index, shape } => Request::Submit {
                job: job_spec(seed, index, shape),
            },
            Planned::Status => Request::Status { job: n as u64 },
        };
        wire.extend_from_slice(serde::json::to_string(&request).as_bytes());
        wire.push(b'\n');
        frames += 1;
    }
    let decode: Vec<f64> = (0..9)
        .map(|_| {
            let mut reader = io::Cursor::new(&wire[..]);
            let start = Instant::now();
            let mut parsed = 0usize;
            while let Ok(Frame::Line(line)) = read_frame(&mut reader, serve::server::MAX_FRAME) {
                let text = String::from_utf8(line).expect("frames are UTF-8");
                if serde::json::from_str::<Request>(&text).is_ok() {
                    parsed += 1;
                }
            }
            let took = start.elapsed().as_secs_f64() * 1e6 / frames as f64;
            result.check(parsed == frames);
            took
        })
        .collect();
    result
        .metrics
        .set("serve.frame_decode_us", median(&decode), "us");

    let dir = scratch_dir("spool-lanes");
    let spool = Spool::open(&dir).expect("spool opens");
    let mut next_id = 1u64;
    for (shape, name) in JOB_SHAPES.iter().enumerate() {
        let lowers: Vec<f64> = (0..8)
            .map(|i| {
                let job = manifest(next_id, job_spec(seed, i, shape));
                next_id += 1;
                let start = Instant::now();
                let lowered = spool.lower(&job);
                let took = ms(start.elapsed());
                result.check(lowered.is_ok());
                took
            })
            .collect();
        result.metrics.set(
            format!("serve.spool_lower_ms.{name}"),
            median(&lowers),
            "ms",
        );
    }

    let shared = Arc::new(
        spool
            .lower(&manifest(next_id, job_spec(seed, 0, 0)))
            .expect("a small job lowers"),
    );
    next_id += 1;
    for n in REGISTRY_LANES {
        let registry = Registry::new();
        let clients: Vec<u64> = (0..CONNECTIONS)
            .map(|_| registry.register_client(Arc::new(NullSink)))
            .collect();
        for job in 0..n as u64 {
            let client = clients[job as usize % clients.len()];
            registry.add_job(job, Some(client), Arc::clone(&shared), 4, 0);
        }
        let schedule_us: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                let order = registry.schedule();
                let took = start.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(order);
                took
            })
            .collect();
        result.metrics.set(
            format!("serve.registry_schedule_us.jobs{n}"),
            median(&schedule_us),
            "us",
        );
    }

    let (mut claims, mut snapshots, mut finalizes) = (Vec::new(), Vec::new(), Vec::new());
    let demo = JOB_SHAPES
        .iter()
        .position(|&s| s == "demo")
        .expect("demo shape");
    let mut demo_bytes = 0u64;
    for i in 0..8 {
        let id = next_id;
        next_id += 1;
        let spec = job_spec(seed, i, demo);
        let work = spool
            .lower(&manifest(id, spec.clone()))
            .expect("demo job lowers");
        let start = Instant::now();
        let claim = work.claim("lane", 5_000);
        claims.push(ms(start.elapsed()));
        let Ok(WorkClaim::Claimed { queue, plan }) = claim else {
            result.check(false);
            continue;
        };
        let shard = SessionEngine::new(0)
            .execute_shard(&plan, ShardOutput::Summary)
            .expect("demo shard executes");
        result.check(queue.submit(&shard).is_ok());
        let start = Instant::now();
        let snapshot = spool.snapshot(&queue);
        snapshots.push(ms(start.elapsed()));
        result.check(matches!(snapshot, Ok(Some(_))));
        let start = Instant::now();
        let outcome = spool.finalize(id, &work);
        finalizes.push(ms(start.elapsed()));
        let want = execute_in_process(&spec).0;
        result.check(outcome.ok().as_ref() == Some(&want));
        demo_bytes = dir_bytes(&spool.job_dir(id));
        drop(work);
    }
    result
        .metrics
        .set("serve.spool_claim_ms", median(&claims), "ms");
    result
        .metrics
        .set("serve.spool_snapshot_ms", median(&snapshots), "ms");
    result
        .metrics
        .set("serve.spool_finalize_ms", median(&finalizes), "ms");
    result
        .metrics
        .set("serve.spool_bytes_per_job", demo_bytes as f64, "B");
    remove_scratch(&dir);
}
