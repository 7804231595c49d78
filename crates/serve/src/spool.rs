//! The server's spool directory: the durable side of every accepted job.
//!
//! A job is acknowledged only after it has been **lowered** onto disk under
//! `spool/job-NNNNNNNNNN/`:
//!
//! ```text
//! spool/
//!   job-0000000001/
//!     job.json         the JobManifest (written last: its existence means
//!                      the directory is fully lowered)
//!     queue/           session jobs: the ShardQueue draining the plan
//!     campaign/        campaign jobs: a CampaignRun (one queue per point)
//!     result.json      the final merged output, written atomically once
//!     cancelled.json   cancellation marker; a restart skips this job
//! ```
//!
//! The shard queue **is** the persistence layer: every claim, lease and
//! completed shard lives in its checkpoint, so a SIGKILLed server loses at
//! most the leased-but-unsubmitted shards, and a restarted server rescans
//! the spool ([`Spool::scan`]), recovers the expired leases, and finishes
//! every job byte-identically to an uninterrupted run.

use protocol::engine::queue::{write_atomically, WriteError};
use protocol::engine::{
    Campaign, CampaignError, CampaignReport, CampaignRun, CampaignWorkload, ClaimOutcome,
    QueueError, SessionEngine, ShardOutput, ShardPayload, ShardPlan, ShardQueue, SlotState,
    TrialSummary, TrialSummaryBuilder,
};
use protocol::wire::{JobManifest, JobSpec};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a job directory.
pub const MANIFEST_FILE: &str = "job.json";
/// Name of the final-result file inside a job directory.
pub const RESULT_FILE: &str = "result.json";
/// Name of the cancellation marker inside a job directory.
pub const CANCELLED_FILE: &str = "cancelled.json";
/// Name of a session job's queue directory.
pub const QUEUE_DIR: &str = "queue";
/// Name of a campaign job's campaign directory.
pub const CAMPAIGN_DIR: &str = "campaign";

/// Why a spool operation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpoolError {
    /// An I/O operation failed on `path`.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error rendering.
        message: String,
    },
    /// A manifest file held invalid JSON or an unsupported version.
    Manifest {
        /// The offending manifest.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// A shard-queue operation failed.
    Queue(QueueError),
    /// A campaign operation failed.
    Campaign(String),
    /// The job is well-formed but not servable (e.g. a sampled-workload
    /// campaign, which needs a process-local sampler).
    Unsupported {
        /// Why the job cannot be served.
        reason: String,
    },
}

impl fmt::Display for SpoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpoolError::Io { path, message } => {
                write!(f, "I/O error on {}: {message}", path.display())
            }
            SpoolError::Manifest { path, message } => {
                write!(f, "bad job manifest {}: {message}", path.display())
            }
            SpoolError::Queue(error) => write!(f, "queue error: {error}"),
            SpoolError::Campaign(message) => write!(f, "campaign error: {message}"),
            SpoolError::Unsupported { reason } => write!(f, "unsupported job: {reason}"),
        }
    }
}

impl std::error::Error for SpoolError {}

impl From<QueueError> for SpoolError {
    fn from(error: QueueError) -> Self {
        SpoolError::Queue(error)
    }
}

impl From<WriteError> for SpoolError {
    fn from(WriteError { path, error }: WriteError) -> Self {
        SpoolError::Io {
            path,
            message: error.to_string(),
        }
    }
}

impl From<CampaignError> for SpoolError {
    fn from(error: CampaignError) -> Self {
        SpoolError::Campaign(error.to_string())
    }
}

/// The executable form of one lowered job: the on-disk queues a worker
/// claims shards from. Shared across the worker pool behind an `Arc`.
/// (Size skew between variants is irrelevant: one allocation per job.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum JobWork {
    /// A single-scenario sweep draining one queue.
    Session {
        /// The queue under `job-N/queue/`.
        queue: ShardQueue,
    },
    /// A campaign draining one queue per session point.
    Campaign {
        /// The run under `job-N/campaign/`.
        run: CampaignRun,
    },
}

/// What a worker got when asking a job for work.
#[derive(Debug)]
pub enum WorkClaim {
    /// A shard was leased: execute `plan` and submit to `queue`.
    Claimed {
        /// The queue the shard belongs to (a session job's only queue, or
        /// one campaign point's queue).
        queue: ShardQueue,
        /// The leased sub-plan.
        plan: Box<ShardPlan>,
    },
    /// Nothing claimable right now, but live leases are outstanding.
    Wait,
    /// Every shard of every queue is done.
    Drained,
}

/// A finished job's merged output.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// A session job's final merged summary.
    Session(TrialSummary),
    /// A campaign job's folded report.
    Campaign(CampaignReport),
}

impl JobWork {
    /// Claims the next available shard across the job's queues: session
    /// jobs have one, campaigns try each point in sweep order (so several
    /// workers naturally spread over several points).
    ///
    /// # Errors
    ///
    /// Queue/campaign errors from the claim path.
    pub fn claim(&self, worker: &str, lease_ms: u64) -> Result<WorkClaim, SpoolError> {
        match self {
            JobWork::Session { queue } => match queue.claim(worker, lease_ms)? {
                ClaimOutcome::Claimed(plan) => Ok(WorkClaim::Claimed {
                    queue: queue.clone(),
                    plan,
                }),
                ClaimOutcome::Wait { .. } => Ok(WorkClaim::Wait),
                ClaimOutcome::Drained => Ok(WorkClaim::Drained),
            },
            JobWork::Campaign { run } => {
                let mut waiting = false;
                for point in run.points() {
                    let queue = run.point_queue(point.index)?;
                    match queue.claim(worker, lease_ms)? {
                        ClaimOutcome::Claimed(plan) => {
                            return Ok(WorkClaim::Claimed { queue, plan });
                        }
                        ClaimOutcome::Wait { .. } => waiting = true,
                        ClaimOutcome::Drained => {}
                    }
                }
                Ok(if waiting {
                    WorkClaim::Wait
                } else {
                    WorkClaim::Drained
                })
            }
        }
    }

    /// `(trials_done, trials_total)` across the job's queues.
    ///
    /// # Errors
    ///
    /// Checkpoint load failures.
    pub fn progress(&self) -> Result<(u64, u64), SpoolError> {
        match self {
            JobWork::Session { queue } => {
                let status = queue.status()?;
                Ok((status.trials_done, status.trials_total as u64))
            }
            JobWork::Campaign { run } => {
                let status = run.status()?;
                Ok((status.trials_done, status.trials_total))
            }
        }
    }

    /// True once every shard of every queue is done.
    ///
    /// # Errors
    ///
    /// Checkpoint load failures.
    pub fn complete(&self) -> Result<bool, SpoolError> {
        match self {
            JobWork::Session { queue } => Ok(queue.status()?.complete()),
            JobWork::Campaign { run } => {
                let status = run.status()?;
                Ok(status.points_done == status.points_total)
            }
        }
    }

    /// Recovers every queue of the job: verifies completed result files and
    /// returns expired leases to pending (the restart path).
    ///
    /// # Errors
    ///
    /// Verification failures naming the damaged file, or checkpoint errors.
    pub fn recover(&self) -> Result<(), SpoolError> {
        match self {
            JobWork::Session { queue } => {
                queue.recover()?;
            }
            JobWork::Campaign { run } => {
                for point in run.points() {
                    run.point_queue(point.index)?.recover()?;
                }
            }
        }
        Ok(())
    }
}

/// The spool directory handle. All state lives on disk; the handle is
/// freely cloneable.
#[derive(Debug, Clone)]
pub struct Spool {
    dir: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Spool, SpoolError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SpoolError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        Ok(Spool { dir })
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The directory of job `id`.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:010}"))
    }

    /// Path of job `id`'s final result file.
    pub fn result_path(&self, id: u64) -> PathBuf {
        self.job_dir(id).join(RESULT_FILE)
    }

    /// The smallest job id strictly greater than every id ever spooled here
    /// (done, cancelled and in-flight jobs all count — ids are never
    /// reused, so restarts keep the submission order deterministic).
    ///
    /// # Errors
    ///
    /// I/O errors listing the spool.
    pub fn next_job_id(&self) -> Result<u64, SpoolError> {
        let mut next = 1u64;
        for id in self.job_ids()? {
            next = next.max(id + 1);
        }
        Ok(next)
    }

    /// Every job id present in the spool, in ascending order.
    fn job_ids(&self) -> Result<Vec<u64>, SpoolError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| SpoolError::Io {
            path: self.dir.clone(),
            message: e.to_string(),
        })?;
        let mut ids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| SpoolError::Io {
                path: self.dir.clone(),
                message: e.to_string(),
            })?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            ids.push(id);
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Lowers an accepted job onto disk: initializes its queues, then
    /// writes the manifest last (so a crash mid-lowering leaves a dir with
    /// no `job.json`, which [`scan`](Self::scan) ignores). Returns the
    /// executable handle.
    ///
    /// # Errors
    ///
    /// [`SpoolError::Unsupported`] for sampled-workload campaigns, plus
    /// queue/campaign/I/O errors.
    pub fn lower(&self, manifest: &JobManifest) -> Result<JobWork, SpoolError> {
        let job_dir = self.job_dir(manifest.job);
        fs::create_dir_all(&job_dir).map_err(|e| SpoolError::Io {
            path: job_dir.clone(),
            message: e.to_string(),
        })?;
        let shard_trials = manifest.shard_trials.max(1);
        let work = match &manifest.spec {
            JobSpec::Session {
                scenario,
                trials,
                seed,
            } => {
                let engine = SessionEngine::new(*seed);
                let plan = engine.plan(scenario, *trials);
                let queue = ShardQueue::init(
                    job_dir.join(QUEUE_DIR),
                    &plan,
                    shard_trials,
                    ShardOutput::Summary,
                )?;
                JobWork::Session { queue }
            }
            JobSpec::Campaign { campaign } => {
                reject_unservable(campaign)?;
                let run = CampaignRun::init(job_dir.join(CAMPAIGN_DIR), campaign, shard_trials)?;
                JobWork::Campaign { run }
            }
        };
        let manifest_path = job_dir.join(MANIFEST_FILE);
        write_atomically(&manifest_path, serde::json::to_string(manifest).as_bytes())?;
        Ok(work)
    }

    /// Rescans the spool after a restart: every fully-lowered job that is
    /// neither finished nor cancelled is reopened, its queues recovered
    /// (expired leases back to pending, completed results verified), and
    /// returned for re-scheduling — in job-id order, so the restart
    /// schedule is deterministic.
    ///
    /// # Errors
    ///
    /// Manifest/queue/verification failures naming the offending file: a
    /// damaged spool fails loudly instead of silently skipping jobs.
    pub fn scan(&self) -> Result<Vec<(JobManifest, JobWork)>, SpoolError> {
        let mut jobs = Vec::new();
        for id in self.job_ids()? {
            let job_dir = self.job_dir(id);
            let manifest_path = job_dir.join(MANIFEST_FILE);
            if !manifest_path.exists() {
                // A crash mid-lowering: the job was never acknowledged.
                continue;
            }
            if job_dir.join(RESULT_FILE).exists() || job_dir.join(CANCELLED_FILE).exists() {
                continue;
            }
            let manifest = self.read_manifest(&manifest_path)?;
            let work = self.reopen(&manifest)?;
            work.recover()?;
            jobs.push((manifest, work));
        }
        Ok(jobs)
    }

    /// Reopens a lowered job's queues without recovering them.
    ///
    /// # Errors
    ///
    /// Queue/campaign open errors.
    pub fn reopen(&self, manifest: &JobManifest) -> Result<JobWork, SpoolError> {
        let job_dir = self.job_dir(manifest.job);
        Ok(match &manifest.spec {
            JobSpec::Session { .. } => JobWork::Session {
                queue: ShardQueue::open(job_dir.join(QUEUE_DIR))?,
            },
            JobSpec::Campaign { .. } => JobWork::Campaign {
                run: CampaignRun::open(job_dir.join(CAMPAIGN_DIR))?,
            },
        })
    }

    /// Reads and validates one job manifest.
    fn read_manifest(&self, path: &Path) -> Result<JobManifest, SpoolError> {
        let text = fs::read_to_string(path).map_err(|e| SpoolError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let manifest: JobManifest =
            serde::json::from_str(&text).map_err(|e| SpoolError::Manifest {
                path: path.to_path_buf(),
                message: e.to_string(),
            })?;
        if manifest.version != protocol::wire::MANIFEST_VERSION {
            return Err(SpoolError::Manifest {
                path: path.to_path_buf(),
                message: format!(
                    "manifest version {} unsupported (this build speaks {})",
                    manifest.version,
                    protocol::wire::MANIFEST_VERSION
                ),
            });
        }
        Ok(manifest)
    }

    /// Marks job `id` cancelled: a marker file the scheduler and every
    /// future [`scan`](Self::scan) honor.
    ///
    /// # Errors
    ///
    /// I/O errors writing the marker.
    pub fn mark_cancelled(&self, id: u64) -> Result<(), SpoolError> {
        write_atomically(
            &self.job_dir(id).join(CANCELLED_FILE),
            b"{\"cancelled\":true}",
        )?;
        Ok(())
    }

    /// Merges a complete job and writes its final `result.json`
    /// atomically. The bytes are exactly the serialized summary/report, so
    /// two drains of the same job — interrupted or not — produce identical
    /// files.
    ///
    /// # Errors
    ///
    /// Merge/report errors (including incompleteness), or I/O errors
    /// writing the result.
    pub fn finalize(&self, id: u64, work: &JobWork) -> Result<JobOutcome, SpoolError> {
        let outcome = match work {
            JobWork::Session { queue } => {
                let merged = queue.merge()?;
                let summary =
                    merged
                        .into_summary()
                        .ok_or(SpoolError::Queue(QueueError::Merge {
                            path: None,
                            error: protocol::engine::MergeError::MixedPayloads,
                        }))?;
                JobOutcome::Session(summary)
            }
            JobWork::Campaign { run } => JobOutcome::Campaign(run.report()?),
        };
        let bytes = match &outcome {
            JobOutcome::Session(summary) => serde::json::to_string(summary),
            JobOutcome::Campaign(report) => serde::json::to_string(report),
        };
        write_atomically(&self.result_path(id), bytes.as_bytes())?;
        Ok(outcome)
    }

    /// Looks up a job that is no longer (or never was) in the in-memory
    /// registry, from disk alone.
    ///
    /// # Errors
    ///
    /// Manifest read failures.
    pub fn lookup(&self, id: u64) -> Result<SpoolLookup, SpoolError> {
        let job_dir = self.job_dir(id);
        let manifest_path = job_dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Ok(SpoolLookup::Absent);
        }
        let manifest = self.read_manifest(&manifest_path)?;
        if job_dir.join(CANCELLED_FILE).exists() {
            return Ok(SpoolLookup::Cancelled { manifest });
        }
        if job_dir.join(RESULT_FILE).exists() {
            return Ok(SpoolLookup::Done { manifest });
        }
        Ok(SpoolLookup::InFlight { manifest })
    }

    /// Folds the contiguous done-prefix of a session job's queue into a
    /// streaming snapshot: `(prefix_trials, summary)`. The summary is the
    /// order-respecting merge of the prefix shards' partials — byte-
    /// identical to a local run of the same prefix. Returns `None` while no
    /// prefix shard is done.
    ///
    /// # Errors
    ///
    /// Checkpoint/result-file read failures.
    pub fn snapshot(&self, queue: &ShardQueue) -> Result<Option<(u64, TrialSummary)>, SpoolError> {
        let checkpoint = queue.checkpoint()?;
        let mut builder: Option<TrialSummaryBuilder> = None;
        let mut trials = 0u64;
        for slot in &checkpoint.shards {
            if !matches!(slot.state, SlotState::Done { .. }) {
                break;
            }
            let path = queue.result_path(slot);
            let text = fs::read_to_string(&path).map_err(|e| SpoolError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let result: protocol::engine::ShardResult =
                serde::json::from_str(&text).map_err(|e| SpoolError::Manifest {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
            let ShardPayload::Summary(partial) = result.payload else {
                return Err(SpoolError::Unsupported {
                    reason: "snapshots need summary payloads".to_string(),
                });
            };
            trials += slot.trial_count as u64;
            builder = Some(match builder {
                None => partial,
                Some(mut merged) => {
                    merged.merge(partial);
                    merged
                }
            });
        }
        Ok(builder.map(|b| (trials, b.finish())))
    }
}

/// What [`Spool::lookup`] found on disk for a job id.
#[derive(Debug, Clone, PartialEq)]
pub enum SpoolLookup {
    /// No such job was ever spooled here.
    Absent,
    /// The job is lowered but has no final result yet.
    InFlight {
        /// The job's manifest.
        manifest: JobManifest,
    },
    /// The job finished; `result.json` is on disk.
    Done {
        /// The job's manifest.
        manifest: JobManifest,
    },
    /// The job was cancelled.
    Cancelled {
        /// The job's manifest.
        manifest: JobManifest,
    },
}

/// Refuses job specs the server cannot drain.
fn reject_unservable(campaign: &Campaign) -> Result<(), SpoolError> {
    match campaign.workload {
        CampaignWorkload::Session { .. } => Ok(()),
        CampaignWorkload::Sampled { .. } => Err(SpoolError::Unsupported {
            reason: "sampled-workload campaigns need a process-local sampler; \
                     run them with `shardctl campaign run` instead"
                .to_string(),
        }),
    }
}
