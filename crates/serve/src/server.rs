//! The TCP server: accept loop, per-connection request handling, and the
//! shared worker pool that drains every live job's queues.
//!
//! One thread per connection parses newline-delimited
//! [`protocol::wire::Request`] lines (with an explicit size cap —
//! an oversized or malformed line earns an
//! [`Error`](protocol::wire::Response::Error) response, never a panic or a
//! dropped connection); `workers` pool threads repeatedly ask the
//! [`Registry`] for the fair schedule, claim one shard, execute it with a
//! lease [heartbeat](protocol::engine::ShardQueue::heartbeat) held (so a
//! slow shard is never stolen from a live worker), submit, stream a
//! snapshot if the job crossed its cadence, and finalize jobs whose last
//! shard just landed.
//!
//! Latency: every connection runs with Nagle's algorithm off, so a reply
//! written right after another small line leaves at once instead of waiting
//! out the client's delayed ACK. A worker with nothing claimable parks
//! until [`Registry::add_job`] signals new work; the only timed wake-up is
//! the heartbeat period (`lease_ms / 3`), which notices leases that expired
//! with no one to signal it (for example one left by a killed predecessor).
//!
//! All durable state lives in the [`Spool`]; the process can be SIGKILLed
//! at any instant and a restarted server ([`Server::start`] rescans the
//! spool) finishes every accepted job byte-identically.

use crate::registry::{CancelOutcome, Registry, ResponseSink};
use crate::spool::{JobOutcome, JobWork, Spool, SpoolError, WorkClaim};
use protocol::engine::{SessionEngine, ShardOutput, ShardPlan, ShardQueue};
use protocol::wire::{
    ErrorKind, JobManifest, JobSpec, JobState, Request, Response, MANIFEST_VERSION, WIRE_VERSION,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Hard cap on one request line's length. A line past this is answered
/// with [`ErrorKind::Oversized`] and discarded up to its newline; the
/// connection survives.
pub const MAX_FRAME: usize = 1 << 20;

/// Tunables for one server instance. All fields have serving defaults; the
/// binary overrides them from `UA_DI_QSDC_SERVE_*` (see
/// [`protocol::env_keys`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Spool directory for job state (created if absent).
    pub spool_dir: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Max unfinished jobs per client before [`Response::Busy`].
    pub quota: usize,
    /// Streaming-snapshot cadence in trials (also the shard granularity
    /// jobs are split at); `0` disables streaming.
    pub snapshot_trials: usize,
    /// Shard lease length in milliseconds (heartbeats renew it while a
    /// worker is alive). An idle worker also wakes every `lease_ms / 3`
    /// to pick up expired leases, the one event nothing signals.
    pub lease_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: PathBuf::from("serve-spool"),
            workers: 2,
            quota: 4,
            snapshot_trials: 256,
            lease_ms: 5_000,
        }
    }
}

/// A running server. Threads are detached: the server serves until the
/// process exits (the crash-consistency story makes a SIGKILL an ordinary
/// shutdown).
pub struct Server {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds, rescans the spool (recovering every unfinished job), and
    /// spawns the worker pool plus the accept loop.
    ///
    /// # Errors
    ///
    /// Bind failures, or a damaged spool (reported loudly rather than
    /// silently skipping jobs).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let spool = Spool::open(&config.spool_dir).map_err(io_other)?;
        let recovered = spool.scan().map_err(io_other)?;
        let next_job = spool.next_job_id().map_err(io_other)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            registry: Registry::new(),
            spool,
            config,
            next_job: AtomicU64::new(next_job),
        });
        for (manifest, work) in recovered {
            let work = Arc::new(work);
            let trials_total = work.progress().map_err(io_other)?.1;
            // Recovered jobs have no connected client: no snapshots stream.
            inner
                .registry
                .add_job(manifest.job, None, work, trials_total, 0);
        }

        for index in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || worker_loop(&inner, index))?;
        }
        {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&inner, listener))?;
        }
        Ok(Server { local_addr, inner })
    }

    /// The bound address (resolves ephemeral ports for tests/tools).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of jobs currently live in the scheduler.
    pub fn live_jobs(&self) -> usize {
        self.inner.registry.live_jobs()
    }
}

struct Inner {
    registry: Registry,
    spool: Spool,
    config: ServerConfig,
    next_job: AtomicU64,
}

fn io_other(error: SpoolError) -> io::Error {
    io::Error::other(error.to_string())
}

// ------------------------------------------------------------ worker pool --

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    let worker = format!("serve-worker-{index}");
    // The heartbeat period: how late an idle worker may notice a lease
    // that expired without anyone signalling it.
    let lease_check = Duration::from_millis((inner.config.lease_ms / 3).max(1));
    loop {
        // Read before scheduling, so a job added while this pass runs cuts
        // the wait below short instead of being missed.
        let seen = inner.registry.epoch();
        let schedule = inner.registry.schedule();
        let mut claimed = false;
        for entry in schedule {
            match entry.work.claim(&worker, inner.config.lease_ms) {
                Ok(WorkClaim::Claimed { queue, plan }) => {
                    claimed = true;
                    run_shard(inner, &worker, entry.job, &entry.work, &queue, &plan);
                    // Back to the fair schedule rather than draining this
                    // job's queue to exhaustion.
                    break;
                }
                Ok(WorkClaim::Wait) => {}
                Ok(WorkClaim::Drained) => try_finalize(inner, entry.job, &entry.work),
                Err(error) => fail_job(inner, entry.job, &error),
            }
        }
        if !claimed {
            inner.registry.wait_for_work(seen, lease_check);
        }
    }
}

/// Executes one claimed shard under a lease heartbeat, submits it, streams
/// a snapshot if the job crossed its cadence, and finalizes a completed
/// job.
fn run_shard(
    inner: &Arc<Inner>,
    worker: &str,
    job: u64,
    work: &Arc<JobWork>,
    queue: &ShardQueue,
    plan: &ShardPlan,
) {
    let beat = queue.heartbeat(worker, plan, inner.config.lease_ms);
    // The master seed is irrelevant here: a shard plan carries its own
    // derived trial seeds. Every spooled queue is initialized with summary
    // payloads (see Spool::lower).
    let engine = SessionEngine::new(0);
    let result = match engine.execute_shard(plan, ShardOutput::Summary) {
        Ok(result) => result,
        Err(error) => {
            drop(beat);
            fail_job(inner, job, &error);
            return;
        }
    };
    drop(beat);
    if let Err(error) = queue.submit(&result) {
        fail_job(inner, job, &error);
        return;
    }

    if matches!(work.as_ref(), JobWork::Session { .. }) {
        stream_snapshot(inner, job, work, queue);
    }
    try_finalize(inner, job, work);
}

/// Streams an incremental summary if the job just crossed its snapshot
/// cadence and its client is still connected.
fn stream_snapshot(inner: &Arc<Inner>, job: u64, work: &Arc<JobWork>, queue: &ShardQueue) {
    let Ok((trials_done, trials_total)) = work.progress() else {
        return;
    };
    if !inner.registry.snapshot_due(job, trials_done) {
        return;
    }
    let Some(sink) = inner.registry.sink_for_job(job) else {
        return;
    };
    match inner.spool.snapshot(queue) {
        // A fold that already covers the whole run is not streamed: that
        // state is announced by `Done` (racing workers may finish the last
        // shard between the cadence gate and the fold).
        Ok(Some((prefix_trials, _))) if prefix_trials >= trials_total => {}
        Ok(Some((prefix_trials, summary))) => sink.send(&Response::Snapshot {
            job,
            trials_done: prefix_trials,
            trials_total,
            summary,
        }),
        Ok(None) => {}
        Err(error) => eprintln!("serve: snapshot of job {job} failed: {error}"),
    }
}

/// Merges and persists a job whose every shard is done, exactly once.
fn try_finalize(inner: &Arc<Inner>, job: u64, work: &Arc<JobWork>) {
    match work.complete() {
        Ok(true) => {}
        Ok(false) => return,
        Err(error) => {
            fail_job(inner, job, &error);
            return;
        }
    }
    if !inner.registry.begin_finalize(job) {
        return;
    }
    match inner.spool.finalize(job, work) {
        Ok(outcome) => {
            let sink = inner.registry.finish_job(job);
            if let Some(sink) = sink {
                let (summary, report) = match outcome {
                    JobOutcome::Session(summary) => (Some(summary), None),
                    JobOutcome::Campaign(report) => (None, Some(report)),
                };
                sink.send(&Response::Done {
                    job,
                    summary,
                    report,
                });
            }
        }
        Err(error) => {
            // Leave the job on disk (a restart can retry the merge); stop
            // scheduling it and tell the owner.
            inner.registry.abort_finalize(job);
            fail_job(inner, job, &error);
        }
    }
}

/// Removes a failing job from the schedule and reports the failure to its
/// owner. The job directory stays in the spool, so an operator (or a
/// restart) can diagnose and resume it.
fn fail_job(inner: &Arc<Inner>, job: u64, error: &dyn std::fmt::Display) {
    eprintln!("serve: job {job} failed: {error}");
    if let Some(sink) = inner.registry.finish_job(job) {
        sink.send(&Response::Error {
            kind: ErrorKind::Internal,
            message: format!("job {job} failed: {error}"),
        });
    }
}

// ------------------------------------------------------------ connections --

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let inner = Arc::clone(inner);
                let spawned = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&inner, stream));
                if let Err(error) = spawned {
                    eprintln!("serve: could not spawn connection thread: {error}");
                }
            }
            Err(error) => eprintln!("serve: accept failed: {error}"),
        }
    }
}

/// A shared, mutex-serialized write half: request replies (from the
/// connection thread) and streamed snapshots (from workers) interleave
/// whole lines, never bytes.
struct TcpSink {
    stream: Mutex<TcpStream>,
}

impl ResponseSink for TcpSink {
    fn send(&self, response: &Response) {
        let mut line = serde::json::to_string(response);
        line.push('\n');
        let mut stream = self.stream.lock().unwrap_or_else(|p| p.into_inner());
        // Best-effort: a vanished client does not stop its jobs.
        let _ = stream.write_all(line.as_bytes());
    }
}

/// Readies an accepted connection and returns its write half. Nagle's
/// algorithm is disabled: replies are small lines often written back to
/// back (`Accepted` then `Done`), and with it on the kernel holds the
/// second line until the client's delayed ACK fires, tens of milliseconds
/// later.
fn open_connection(stream: &TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.try_clone()
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let write_half = match open_connection(&stream) {
        Ok(write_half) => write_half,
        Err(error) => {
            eprintln!("serve: could not set up connection: {error}");
            return;
        }
    };
    let sink: Arc<dyn ResponseSink> = Arc::new(TcpSink {
        stream: Mutex::new(write_half),
    });
    let client = inner.registry.register_client(Arc::clone(&sink));
    sink.send(&Response::Hello {
        server: "qsdc-serve".to_string(),
        wire_version: WIRE_VERSION,
        quota: inner.config.quota,
        snapshot_trials: inner.config.snapshot_trials,
    });

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(Frame::Eof) | Err(_) => break,
            Ok(Frame::Oversized) => sink.send(&Response::Error {
                kind: ErrorKind::Oversized,
                message: format!("request line exceeds {MAX_FRAME} bytes"),
            }),
            Ok(Frame::Line(bytes)) => {
                let Ok(text) = String::from_utf8(bytes) else {
                    sink.send(&Response::Error {
                        kind: ErrorKind::Malformed,
                        message: "request line is not UTF-8".to_string(),
                    });
                    continue;
                };
                if text.trim().is_empty() {
                    continue;
                }
                match serde::json::from_str::<Request>(&text) {
                    Ok(request) => dispatch(inner, client, &sink, request),
                    Err(error) => sink.send(&Response::Error {
                        kind: ErrorKind::Malformed,
                        message: format!("unparseable request: {error}"),
                    }),
                }
            }
        }
    }
    inner.registry.client_gone(client);
}

fn dispatch(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, request: Request) {
    match request {
        Request::Ping => sink.send(&Response::Pong),
        Request::Submit { job } => submit(inner, client, sink, job),
        Request::Cancel { job } => cancel(inner, client, sink, job),
        Request::Status { job } => status(inner, sink, job),
    }
}

fn submit(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, spec: JobSpec) {
    if let Err((in_flight, quota)) = inner.registry.reserve_slot(client, inner.config.quota) {
        sink.send(&Response::Busy { in_flight, quota });
        return;
    }
    let job = inner.next_job.fetch_add(1, Ordering::Relaxed);
    let manifest = JobManifest {
        version: MANIFEST_VERSION,
        job,
        client: format!("client-{client}"),
        spec,
        shard_trials: inner.config.snapshot_trials.max(1),
    };
    let lowered = inner
        .spool
        .lower(&manifest)
        .and_then(|work| work.progress().map(|(_, total)| (work, total)));
    match lowered {
        Ok((work, trials_total)) => {
            let snapshot_trials = match work {
                JobWork::Session { .. } => inner.config.snapshot_trials as u64,
                // Campaign reports fold per-point; no incremental stream.
                JobWork::Campaign { .. } => 0,
            };
            // Answer before the job becomes schedulable, so its snapshots
            // and `Done` can never overtake its `Accepted` on the wire.
            sink.send(&Response::Accepted { job });
            inner.registry.add_job(
                job,
                Some(client),
                Arc::new(work),
                trials_total,
                snapshot_trials,
            );
        }
        Err(SpoolError::Unsupported { reason }) => {
            inner.registry.release_slot(client);
            sink.send(&Response::Error {
                kind: ErrorKind::Unsupported,
                message: reason,
            });
        }
        Err(error) => {
            inner.registry.release_slot(client);
            sink.send(&Response::Error {
                kind: ErrorKind::Internal,
                message: format!("could not spool job: {error}"),
            });
        }
    }
}

fn cancel(inner: &Arc<Inner>, client: u64, sink: &Arc<dyn ResponseSink>, job: u64) {
    match inner.registry.cancel(job, client) {
        CancelOutcome::Cancelled => {
            if let Err(error) = inner.spool.mark_cancelled(job) {
                eprintln!("serve: could not mark job {job} cancelled: {error}");
            }
            sink.send(&Response::Cancelled { job });
        }
        CancelOutcome::Unknown => sink.send(&Response::Error {
            kind: ErrorKind::UnknownJob,
            message: format!("no live job {job} owned by this client"),
        }),
    }
}

fn status(inner: &Arc<Inner>, sink: &Arc<dyn ResponseSink>, job: u64) {
    if let Some(work) = inner.registry.job_work(job) {
        match work.progress() {
            Ok((trials_done, trials_total)) => sink.send(&Response::Status {
                job,
                state: JobState::Running,
                trials_done,
                trials_total,
            }),
            Err(error) => sink.send(&Response::Error {
                kind: ErrorKind::Internal,
                message: format!("could not read job {job} progress: {error}"),
            }),
        }
        return;
    }
    match inner.spool.lookup(job) {
        Ok(crate::spool::SpoolLookup::Done { manifest }) => {
            let total = spec_trials(inner, &manifest);
            sink.send(&Response::Status {
                job,
                state: JobState::Done,
                trials_done: total,
                trials_total: total,
            });
        }
        Ok(crate::spool::SpoolLookup::Cancelled { manifest }) => {
            let total = spec_trials(inner, &manifest);
            sink.send(&Response::Status {
                job,
                state: JobState::Cancelled,
                trials_done: 0,
                trials_total: total,
            });
        }
        Ok(crate::spool::SpoolLookup::InFlight { manifest }) => {
            // Lowered but not scheduled (e.g. a failed job awaiting restart).
            let progress = inner
                .spool
                .reopen(&manifest)
                .and_then(|work| work.progress());
            let (trials_done, trials_total) = progress.unwrap_or((0, 0));
            sink.send(&Response::Status {
                job,
                state: JobState::Running,
                trials_done,
                trials_total,
            });
        }
        Ok(crate::spool::SpoolLookup::Absent) => sink.send(&Response::Error {
            kind: ErrorKind::UnknownJob,
            message: format!("no job {job} in this server's spool"),
        }),
        Err(error) => sink.send(&Response::Error {
            kind: ErrorKind::Internal,
            message: format!("could not look up job {job}: {error}"),
        }),
    }
}

/// Total trials a manifest's spec describes, for status answers about jobs
/// whose queues are gone or not worth reopening.
fn spec_trials(inner: &Arc<Inner>, manifest: &JobManifest) -> u64 {
    match &manifest.spec {
        JobSpec::Session { trials, .. } => *trials as u64,
        JobSpec::Campaign { campaign } => inner
            .spool
            .reopen(manifest)
            .and_then(|work| work.progress())
            .map(|(_, total)| total)
            .unwrap_or_else(|_| {
                campaign
                    .expand()
                    .map(|points| points.iter().map(|p| p.trials as u64).sum())
                    .unwrap_or(0)
            }),
    }
}

// ---------------------------------------------------------------- framing --

/// One parsed read from a connection.
pub enum Frame {
    /// A complete line (without its trailing newline).
    Line(Vec<u8>),
    /// The line exceeded the cap; it was discarded up to its newline.
    Oversized,
    /// The peer closed the connection (a truncated trailing line counts:
    /// the request can never complete).
    Eof,
}

/// Reads one newline-terminated frame with a hard length cap. Never
/// allocates beyond `max + one buffer` for a hostile line.
///
/// # Errors
///
/// Underlying socket read errors.
pub fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Frame::Eof);
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.len() > max {
                return Ok(Frame::Oversized);
            }
            return Ok(Frame::Line(line));
        }
        line.extend_from_slice(buf);
        let chunk = buf.len();
        reader.consume(chunk);
        if line.len() > max {
            return discard_to_newline(reader);
        }
    }
}

/// Consumes the rest of an over-long line so the connection can continue
/// at the next frame boundary.
fn discard_to_newline(reader: &mut impl BufRead) -> io::Result<Frame> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(Frame::Eof);
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return Ok(Frame::Oversized);
        }
        let chunk = buf.len();
        reader.consume(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Both halves of an accepted connection have Nagle disabled (the
    /// write half is a clone of the same socket).
    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (accepted, _) = listener.accept().expect("accepts");
        let write_half = open_connection(&accepted).expect("sets up");
        assert!(matches!(accepted.nodelay(), Ok(true)));
        assert!(matches!(write_half.nodelay(), Ok(true)));
    }

    /// Frames split across buffer boundaries reassemble; the cap rejects a
    /// hostile line without buffering it and resynchronizes at its newline.
    #[test]
    fn read_frame_reassembles_caps_and_resynchronizes() {
        let mut input = Cursor::new(b"short\n".to_vec());
        let Frame::Line(line) = read_frame(&mut input, 16).expect("reads") else {
            panic!("expected a line");
        };
        assert_eq!(line, b"short");

        // A line one past the cap is Oversized; the following frame is
        // still delivered intact.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&[b'x'; 17]);
        hostile.push(b'\n');
        hostile.extend_from_slice(b"next\n");
        let mut input = Cursor::new(hostile);
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Oversized
        ));
        let Frame::Line(line) = read_frame(&mut input, 16).expect("reads") else {
            panic!("expected the next line");
        };
        assert_eq!(line, b"next");
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Eof
        ));

        // A line exactly at the cap still passes.
        let mut exact = vec![b'y'; 16];
        exact.push(b'\n');
        let mut input = Cursor::new(exact);
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Line(line) if line.len() == 16
        ));

        // A truncated trailing line (no newline before EOF) is EOF: the
        // request can never complete.
        let mut input = Cursor::new(b"{\"Ping\"".to_vec());
        assert!(matches!(
            read_frame(&mut input, 16).expect("reads"),
            Frame::Eof
        ));
    }
}
