//! Declarative parameter-space campaigns that lower onto the shard/queue
//! fleet.
//!
//! The paper's results are all points on parameter grids — detection rate vs
//! channel length η, attack strength, backend, trial budget. A [`Campaign`]
//! captures such a grid *declaratively*: one or more [`Axis`] value lists
//! (cartesian product, last axis fastest) or an explicit point list, swept
//! over a base [`Scenario`]. Expansion turns the declaration into concrete
//! [`CampaignPoint`]s — each a fingerprinted `Scenario` plus trial budget —
//! and execution lowers every point onto the existing [`ShardQueue`]
//! machinery, so a campaign inherits the fleet's crash-safety: SIGKILL a
//! worker mid-sweep, `resume`, and the merged [`CampaignReport`] is
//! byte-identical to an uninterrupted run.
//!
//! Two workloads are supported:
//!
//! - [`CampaignWorkload::Session`]: each point is a full protocol session
//!   sweep executed by [`SessionEngine`] (the detection-rate tables).
//! - [`CampaignWorkload::Sampled`]: each point is handed, with its
//!   coordinates and a derived seed, to a caller-registered [`Sampler`] —
//!   circuit-level experiments (the fig. 2 histogram, the fig. 3 accuracy
//!   sweep) that sample shots rather than run sessions.
//!
//! # Example
//!
//! ```rust
//! use protocol::engine::{Axis, BackendKind, Campaign, CampaignSpace, CampaignWorkload,
//!                        NoSampler, Parallelism, Scenario};
//! use protocol::identity::IdentityPair;
//! use protocol::SessionConfig;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SessionConfig::builder()
//!     .message_bits(8)
//!     .check_bits(2)
//!     .di_check_pairs(24)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let base = Scenario::new(config, IdentityPair::generate(2, &mut rng));
//! let campaign = Campaign {
//!     label: "doc".into(),
//!     master_seed: 99,
//!     trials: 2,
//!     workload: CampaignWorkload::Session { base },
//!     space: CampaignSpace::Grid(vec![Axis::Backend(BackendKind::ALL.to_vec())]),
//! };
//! let report = campaign.run_direct(Parallelism::Serial, &NoSampler)?;
//! assert_eq!(report.points.len(), BackendKind::ALL.len());
//! assert!(report.points[0].summary.is_some());
//! # Ok(())
//! # }
//! ```

use super::parallel::scatter;
use super::queue::{write_atomically, QueueError, ShardQueue, WriteError};
use super::shard::ShardOutput;
use super::{fnv1a64, Adversary, BackendKind, Parallelism, Scenario, SessionEngine, TrialSummary};
use crate::config::SessionConfig;
use crate::error::ProtocolError;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

/// File name of the stored campaign definition inside a campaign directory.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// Directory holding sampled-point results inside a campaign directory.
pub const SAMPLES_DIR: &str = "samples";

/// z-score used for the report's Wilson confidence intervals (95 % coverage).
pub const WILSON_Z: f64 = 1.96;

/// Derives the per-point seed stream of a campaign: point `index` of a
/// campaign seeded with `master_seed` samples under
/// `splitmix64(master_seed XOR index · 0xa24b_aed4_963e_e407)`.
pub fn derive_point_seed(master_seed: u64, index: u64) -> u64 {
    let mut state = master_seed ^ index.wrapping_mul(0xa24b_aed4_963e_e407);
    rand::splitmix64(&mut state)
}

// ------------------------------------------------------------------- axes --

/// One sweep axis: a named parameter and the list of values it takes.
///
/// In a [`CampaignSpace::Grid`], axes multiply (cartesian product, **last
/// axis fastest** — the natural nesting order of a hand-written loop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Axis {
    /// Channel length η: rebuilds the scenario's channel with
    /// [`ChannelSpec::with_length`](qchannel::quantum::ChannelSpec::with_length).
    Eta(Vec<usize>),
    /// Trial (session workload) or shot (sampled workload) budget per point,
    /// overriding [`Campaign::trials`].
    Trials(Vec<usize>),
    /// Simulation backend for the point's scenario.
    Backend(Vec<BackendKind>),
    /// Adversary attacking the point's session.
    Adversary(Vec<Adversary>),
    /// Coupling strength of an [`Adversary::EntangleMeasure`] adversary,
    /// in `[0, 1]`.
    Strength(Vec<f64>),
    /// Encoded message panel (sampled workloads only, e.g. the fig. 2
    /// histogram's four two-bit messages).
    Message(Vec<String>),
}

impl Axis {
    /// The axis's parameter name.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Eta(_) => "eta",
            Axis::Trials(_) => "trials",
            Axis::Backend(_) => "backend",
            Axis::Adversary(_) => "adversary",
            Axis::Strength(_) => "strength",
            Axis::Message(_) => "message",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Eta(v) => v.len(),
            Axis::Trials(v) => v.len(),
            Axis::Backend(v) => v.len(),
            Axis::Adversary(v) => v.len(),
            Axis::Strength(v) => v.len(),
            Axis::Message(v) => v.len(),
        }
    }

    /// Whether the axis carries no values (such an axis empties the whole
    /// grid and is rejected by [`Campaign::expand`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The axis's values as point coordinates.
    pub fn values(&self) -> Vec<AxisValue> {
        match self {
            Axis::Eta(v) => v.iter().map(|&x| AxisValue::Eta(x)).collect(),
            Axis::Trials(v) => v.iter().map(|&x| AxisValue::Trials(x)).collect(),
            Axis::Backend(v) => v.iter().map(|&x| AxisValue::Backend(x)).collect(),
            Axis::Adversary(v) => v.iter().cloned().map(AxisValue::Adversary).collect(),
            Axis::Strength(v) => v.iter().map(|&x| AxisValue::Strength(x)).collect(),
            Axis::Message(v) => v.iter().cloned().map(AxisValue::Message).collect(),
        }
    }
}

/// One coordinate of a campaign point: a single value picked from an
/// [`Axis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AxisValue {
    /// A channel length η.
    Eta(usize),
    /// A per-point trial/shot budget.
    Trials(usize),
    /// A simulation backend.
    Backend(BackendKind),
    /// An adversary.
    Adversary(Adversary),
    /// An entangle-and-measure coupling strength.
    Strength(f64),
    /// An encoded message panel.
    Message(String),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Eta(eta) => write!(f, "η={eta}"),
            AxisValue::Trials(trials) => write!(f, "trials={trials}"),
            AxisValue::Backend(backend) => write!(f, "backend={backend}"),
            AxisValue::Adversary(adversary) => write!(f, "adversary={}", adversary.name()),
            AxisValue::Strength(strength) => write!(f, "strength={strength}"),
            AxisValue::Message(message) => write!(f, "message={message}"),
        }
    }
}

// --------------------------------------------------------------- campaign --

/// The parameter space swept by a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignSpace {
    /// Cartesian product of the axes, in declaration order with the **last
    /// axis fastest** (like nested loops with the last axis innermost).
    Grid(Vec<Axis>),
    /// An explicit list of points, each a list of coordinates applied to the
    /// base in order. An empty coordinate list denotes the base itself.
    Points(Vec<Vec<AxisValue>>),
}

/// What kind of work each expanded point performs.
// A campaign holds exactly one workload and is cloned only at definition
// granularity, so the `Session` variant's embedded `Scenario` is not worth
// boxing (which would also complicate the JSON wire shape round-trip).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignWorkload {
    /// Each point is a full protocol [`Scenario`] — the base with the
    /// point's coordinates applied — executed by [`SessionEngine`] and
    /// lowered to shard plans on the queue.
    Session {
        /// The scenario every point starts from.
        base: Scenario,
    },
    /// Each point is handed to a caller-registered [`Sampler`] together with
    /// its coordinates and derived seed — circuit-level experiments that
    /// sample shots instead of running sessions.
    Sampled {
        /// Sampler kind the executing process must have registered
        /// (e.g. `"fig2-histogram"`).
        kind: String,
        /// Opaque kind-specific parameters (device name, fixed η, …).
        params: Value,
    },
}

/// A declarative, serializable parameter sweep: a [`CampaignWorkload`] swept
/// over a [`CampaignSpace`] under one master seed.
///
/// The declaration is the experiment: expansion, seeding, sharding and
/// merging are all pure functions of this value, so a checked-in campaign
/// file plus [`CampaignRun`] re-derives a figure's numbers exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Human-readable name. Excluded from [`Campaign::fingerprint`], like
    /// [`Scenario::label`].
    pub label: String,
    /// Master seed: session points plan under it directly (matching
    /// [`SessionEngine::run_batch`]), sampled points derive per-point seeds
    /// from it via [`derive_point_seed`].
    pub master_seed: u64,
    /// Default trial (session) / shot (sampled) budget per point; an
    /// [`Axis::Trials`] coordinate overrides it.
    pub trials: usize,
    /// What each point executes.
    pub workload: CampaignWorkload,
    /// The swept parameter space.
    pub space: CampaignSpace,
}

impl Campaign {
    /// Content fingerprint over everything *physical*: master seed, trial
    /// budget, workload (a session base contributes its own
    /// [`Scenario::fingerprint`], so labels never matter) and parameter
    /// space. Stable across processes and sessions; stamps every
    /// [`CampaignReport`] and sampled result record.
    pub fn fingerprint(&self) -> u64 {
        let workload = match &self.workload {
            CampaignWorkload::Session { base } => Value::Map(vec![(
                "Session".into(),
                Value::Map(vec![("base".into(), base.fingerprint().to_value())]),
            )]),
            sampled @ CampaignWorkload::Sampled { .. } => sampled.to_value(),
        };
        let physical = Value::Map(vec![
            ("master_seed".into(), self.master_seed.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("workload".into(), workload),
            ("space".into(), self.space.to_value()),
        ]);
        fnv1a64(serde::json::to_string(&physical).as_bytes())
    }

    /// Expands the declaration into concrete points, in sweep order.
    ///
    /// # Errors
    ///
    /// - [`CampaignError::EmptySpace`] / [`CampaignError::EmptyAxis`] when
    ///   the grid (or one of its axes) holds no values;
    /// - [`CampaignError::InvalidPoint`] when a coordinate cannot apply (a
    ///   `Message` axis on a session workload, a `Strength` coordinate
    ///   without an entangle-and-measure adversary, a zero trial budget, an
    ///   η that produces an invalid configuration);
    /// - [`CampaignError::DuplicatePoint`] when two points are physically
    ///   identical — a duplicated sweep would silently double-count.
    pub fn expand(&self) -> Result<Vec<CampaignPoint>, CampaignError> {
        let coord_lists = match &self.space {
            CampaignSpace::Grid(axes) => {
                if axes.is_empty() {
                    return Err(CampaignError::EmptySpace);
                }
                if let Some(empty) = axes.iter().find(|axis| axis.is_empty()) {
                    return Err(CampaignError::EmptyAxis { axis: empty.name() });
                }
                let mut lists: Vec<Vec<AxisValue>> = vec![Vec::new()];
                for axis in axes {
                    let values = axis.values();
                    lists = lists
                        .into_iter()
                        .flat_map(|prefix| {
                            values.iter().map(move |value| {
                                let mut point = prefix.clone();
                                point.push(value.clone());
                                point
                            })
                        })
                        .collect();
                }
                lists
            }
            CampaignSpace::Points(points) => {
                if points.is_empty() {
                    return Err(CampaignError::EmptySpace);
                }
                points.clone()
            }
        };

        let mut points = Vec::with_capacity(coord_lists.len());
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for (index, coords) in coord_lists.into_iter().enumerate() {
            let point = self.expand_point(index, coords)?;
            let key = point.identity_key();
            if let Some(&first) = seen.get(&key) {
                return Err(CampaignError::DuplicatePoint {
                    first,
                    second: index,
                });
            }
            seen.insert(key, index);
            points.push(point);
        }
        Ok(points)
    }

    /// Applies one coordinate list to the base, producing a concrete point.
    fn expand_point(
        &self,
        index: usize,
        coords: Vec<AxisValue>,
    ) -> Result<CampaignPoint, CampaignError> {
        let mut trials = self.trials;
        let mut scenario = match &self.workload {
            CampaignWorkload::Session { base } => Some(base.clone()),
            CampaignWorkload::Sampled { .. } => None,
        };
        for coord in &coords {
            if let AxisValue::Trials(t) = coord {
                trials = *t;
                continue;
            }
            if let Some(current) = scenario.take() {
                scenario = Some(apply_session_coord(current, coord, index)?);
            }
        }
        if trials == 0 {
            return Err(CampaignError::InvalidPoint {
                index,
                reason: "point has a zero trial budget".into(),
            });
        }
        let label = if coords.is_empty() {
            format!("{} · base", self.label)
        } else {
            let rendered: Vec<String> = coords.iter().map(|c| c.to_string()).collect();
            format!("{} · {}", self.label, rendered.join(", "))
        };
        let scenario = scenario.map(|s| s.with_label(label.clone()));
        Ok(CampaignPoint {
            index,
            label,
            coords,
            trials,
            seed: derive_point_seed(self.master_seed, index as u64),
            scenario,
        })
    }

    /// Expands and executes the whole campaign in this process, without any
    /// on-disk state.
    ///
    /// Session points run through the same plan/execute/merge pipeline the
    /// queue uses, so the resulting report is byte-identical to a
    /// [`CampaignRun`] drained by any fleet. Sampled points fan out across
    /// `parallelism` (each is a pure function of its coordinates and seed).
    ///
    /// # Errors
    ///
    /// Expansion errors, [`CampaignError::Protocol`] from session execution,
    /// or [`CampaignError::Sampler`] when the sampler rejects a point.
    pub fn run_direct(
        &self,
        parallelism: Parallelism,
        sampler: &dyn Sampler,
    ) -> Result<CampaignReport, CampaignError> {
        let points = self.expand()?;
        let payloads = match &self.workload {
            CampaignWorkload::Session { .. } => {
                let engine = SessionEngine::new(self.master_seed).with_parallelism(parallelism);
                points
                    .iter()
                    .map(|point| {
                        let scenario = point
                            .scenario
                            .as_ref()
                            .expect("session points carry scenarios");
                        engine
                            .run_trials(scenario, point.trials)
                            .map(PointPayload::Summary)
                            .map_err(|error| CampaignError::Protocol {
                                index: point.index,
                                error,
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            CampaignWorkload::Sampled { kind, params } => {
                let (results, _) = scatter(parallelism, points.len(), |i| {
                    sampler.sample(kind, params, &points[i])
                });
                results
                    .into_iter()
                    .enumerate()
                    .map(|(index, result)| {
                        result
                            .map(PointPayload::Sampled)
                            .map_err(|reason| CampaignError::Sampler { index, reason })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(build_report(self, &points, payloads))
    }
}

/// Applies a single non-`Trials` coordinate to a session scenario.
fn apply_session_coord(
    mut scenario: Scenario,
    coord: &AxisValue,
    index: usize,
) -> Result<Scenario, CampaignError> {
    let invalid = |reason: String| CampaignError::InvalidPoint { index, reason };
    match coord {
        AxisValue::Eta(eta) => {
            let config = &scenario.config;
            let rebuilt = SessionConfig::builder()
                .message_bits(config.message_bits())
                .check_bits(config.check_bits())
                .di_check_pairs(config.di_check_pairs())
                .chsh_abort_threshold(config.chsh_abort_threshold())
                .auth_error_tolerance(config.auth_error_tolerance())
                .check_bit_error_tolerance(config.check_bit_error_tolerance())
                .channel(config.channel().clone().with_length(*eta))
                .build()
                .map_err(|e| invalid(format!("η={eta} yields an invalid config: {e}")))?;
            scenario.config = rebuilt;
            Ok(scenario)
        }
        AxisValue::Backend(backend) => Ok(scenario.with_backend(*backend)),
        AxisValue::Adversary(adversary) => Ok(scenario.with_adversary(adversary.clone())),
        AxisValue::Strength(strength) => {
            if !(0.0..=1.0).contains(strength) {
                return Err(invalid(format!("strength {strength} outside [0, 1]")));
            }
            match scenario.adversary {
                Adversary::EntangleMeasure { .. } => {
                    Ok(scenario.with_adversary(Adversary::EntangleMeasure {
                        strength: *strength,
                    }))
                }
                ref other => Err(invalid(format!(
                    "strength coordinates need an entangle-and-measure adversary, found `{}`",
                    other.name()
                ))),
            }
        }
        AxisValue::Message(_) => Err(invalid(
            "message axes only apply to sampled campaigns".into(),
        )),
        AxisValue::Trials(_) => Ok(scenario), // handled by the caller
    }
}

/// One concrete point of an expanded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPoint {
    /// Position in sweep order (also the seed-derivation index).
    pub index: usize,
    /// Human-readable point label: the campaign label plus the coordinates.
    pub label: String,
    /// The coordinates that produced this point.
    pub coords: Vec<AxisValue>,
    /// Trial/shot budget of this point.
    pub trials: usize,
    /// Per-point seed, [`derive_point_seed`] of the master seed and
    /// [`index`](Self::index). Sampled workloads seed their RNG from it;
    /// session workloads ignore it (their streams derive from the master
    /// seed and the scenario fingerprint, matching `run_batch`).
    pub seed: u64,
    /// The concrete scenario (session workloads only).
    pub scenario: Option<Scenario>,
}

impl CampaignPoint {
    /// A key identifying the point's *physics*, used for duplicate
    /// rejection: scenario fingerprint + trials for session points, the
    /// serialized coordinates + trials for sampled points.
    fn identity_key(&self) -> String {
        match &self.scenario {
            Some(scenario) => format!("session:{:016x}:{}", scenario.fingerprint(), self.trials),
            None => format!(
                "sampled:{}:{}",
                serde::json::to_string(&self.coords.to_value()),
                self.trials
            ),
        }
    }
}

// ---------------------------------------------------------------- sampler --

/// Executes sampled campaign points (circuit-level experiments).
///
/// Implementations must be pure functions of `(kind, params, point)` — that
/// is what makes sampled campaigns resumable and their reports reproducible.
/// The trait is implemented for any matching `Fn` closure.
pub trait Sampler: Sync {
    /// Produces the point's result payload, or a reason it cannot.
    fn sample(&self, kind: &str, params: &Value, point: &CampaignPoint) -> Result<Value, String>;
}

impl<F> Sampler for F
where
    F: Fn(&str, &Value, &CampaignPoint) -> Result<Value, String> + Sync,
{
    fn sample(&self, kind: &str, params: &Value, point: &CampaignPoint) -> Result<Value, String> {
        self(kind, params, point)
    }
}

/// A [`Sampler`] that rejects every kind — the right argument when running
/// session campaigns, which never invoke one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSampler;

impl Sampler for NoSampler {
    fn sample(&self, kind: &str, _params: &Value, _point: &CampaignPoint) -> Result<Value, String> {
        Err(format!("no sampler registered for kind `{kind}`"))
    }
}

// ----------------------------------------------------------------- report --

/// A rate with its Wilson-score 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateInterval {
    /// Point estimate `successes / trials`.
    pub rate: f64,
    /// Lower Wilson bound.
    pub lower: f64,
    /// Upper Wilson bound.
    pub upper: f64,
}

impl RateInterval {
    /// Wilson interval at [`WILSON_Z`] for `successes` out of `trials`.
    ///
    /// # Panics
    ///
    /// Panics when `trials == 0` or `successes > trials`.
    pub fn wilson(successes: usize, trials: usize) -> Self {
        let (lower, upper) = analysis::stats::wilson_interval(successes, trials, WILSON_Z);
        Self {
            rate: successes as f64 / trials as f64,
            lower,
            upper,
        }
    }
}

impl fmt::Display for RateInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} [{:.3}, {:.3}]", self.rate, self.lower, self.upper)
    }
}

/// One point's row in a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPointReport {
    /// Sweep-order index of the point.
    pub index: usize,
    /// The point's label.
    pub label: String,
    /// The coordinates that produced the point.
    pub coords: Vec<AxisValue>,
    /// Trial/shot budget the point executed.
    pub trials: usize,
    /// Merged trial summary (session workloads).
    pub summary: Option<TrialSummary>,
    /// Sampler payload (sampled workloads).
    pub sampled: Option<Value>,
    /// Abort rate with confidence interval, for points under attack —
    /// aborts against an adversary are *detections*.
    pub detection: Option<RateInterval>,
    /// Abort rate with confidence interval, for honest points — aborts
    /// without an adversary are *false alarms*.
    pub false_alarm: Option<RateInterval>,
}

/// The folded result of a whole campaign: every point's coordinates and
/// merged numbers, stamped with the campaign fingerprint.
///
/// A report is a pure function of the campaign definition, so any two
/// executions — direct, queued, interrupted-and-resumed — serialize to the
/// same bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The campaign's label.
    pub label: String,
    /// [`Campaign::fingerprint`] of the definition that produced this.
    pub fingerprint: u64,
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Per-point results, in sweep order.
    pub points: Vec<CampaignPointReport>,
}

/// What one executed point produced.
enum PointPayload {
    Summary(TrialSummary),
    Sampled(Value),
}

/// Folds executed payloads into the final report.
fn build_report(
    campaign: &Campaign,
    points: &[CampaignPoint],
    payloads: Vec<PointPayload>,
) -> CampaignReport {
    let points = points
        .iter()
        .zip(payloads)
        .map(|(point, payload)| {
            let (summary, sampled) = match payload {
                PointPayload::Summary(summary) => (Some(summary), None),
                PointPayload::Sampled(value) => (None, Some(value)),
            };
            let (detection, false_alarm) = abort_rates(point, summary.as_ref());
            CampaignPointReport {
                index: point.index,
                label: point.label.clone(),
                coords: point.coords.clone(),
                trials: point.trials,
                summary,
                sampled,
                detection,
                false_alarm,
            }
        })
        .collect();
    CampaignReport {
        label: campaign.label.clone(),
        fingerprint: campaign.fingerprint(),
        master_seed: campaign.master_seed,
        points,
    }
}

/// Splits a session point's abort rate into the detection column (points
/// under attack) or the false-alarm column (honest points).
fn abort_rates(
    point: &CampaignPoint,
    summary: Option<&TrialSummary>,
) -> (Option<RateInterval>, Option<RateInterval>) {
    let Some(summary) = summary else {
        return (None, None);
    };
    if summary.trials == 0 {
        return (None, None);
    }
    let interval = RateInterval::wilson(summary.total_aborts(), summary.trials);
    let honest = matches!(
        point.scenario.as_ref().map(|s| &s.adversary),
        Some(Adversary::Honest)
    );
    if honest {
        (None, Some(interval))
    } else {
        (Some(interval), None)
    }
}

// ----------------------------------------------------------------- errors --

/// Everything that can go wrong declaring, expanding, or executing a
/// campaign.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The grid has no axes, or the explicit point list is empty.
    EmptySpace,
    /// A grid axis carries no values.
    EmptyAxis {
        /// Name of the offending axis.
        axis: &'static str,
    },
    /// Two expanded points are physically identical.
    DuplicatePoint {
        /// Sweep index of the first occurrence.
        first: usize,
        /// Sweep index of the duplicate.
        second: usize,
    },
    /// A coordinate cannot apply to its point.
    InvalidPoint {
        /// Sweep index of the point.
        index: usize,
        /// What went wrong.
        reason: String,
    },
    /// A session point failed to execute.
    Protocol {
        /// Sweep index of the point.
        index: usize,
        /// The underlying protocol error.
        error: ProtocolError,
    },
    /// A point's shard queue failed.
    Queue {
        /// Sweep index of the point.
        index: usize,
        /// The underlying queue error.
        error: QueueError,
    },
    /// The sampler rejected a sampled point.
    Sampler {
        /// Sweep index of the point.
        index: usize,
        /// The sampler's reason.
        reason: String,
    },
    /// A report was requested before every point finished.
    Incomplete {
        /// Points fully executed.
        done: usize,
        /// Points in the campaign.
        total: usize,
    },
    /// [`CampaignRun::init`] found an existing campaign file.
    AlreadyInitialized {
        /// The existing file.
        path: PathBuf,
    },
    /// [`CampaignRun::open`] found no campaign file.
    NotInitialized {
        /// The missing file.
        path: PathBuf,
    },
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error.
        message: String,
    },
    /// On-disk campaign state failed to parse or carries the wrong
    /// fingerprint.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptySpace => {
                write!(f, "campaign sweeps no points (empty grid or point list)")
            }
            CampaignError::EmptyAxis { axis } => {
                write!(f, "axis `{axis}` carries no values")
            }
            CampaignError::DuplicatePoint { first, second } => write!(
                f,
                "point {second} duplicates point {first}: a duplicated sweep would double-count"
            ),
            CampaignError::InvalidPoint { index, reason } => {
                write!(f, "point {index} is invalid: {reason}")
            }
            CampaignError::Protocol { index, error } => {
                write!(f, "point {index} failed to execute: {error}")
            }
            CampaignError::Queue { index, error } => {
                write!(f, "point {index} queue error: {error}")
            }
            CampaignError::Sampler { index, reason } => {
                write!(f, "sampler rejected point {index}: {reason}")
            }
            CampaignError::Incomplete { done, total } => {
                write!(f, "campaign incomplete: {done}/{total} points done")
            }
            CampaignError::AlreadyInitialized { path } => {
                write!(f, "campaign already initialized at {}", path.display())
            }
            CampaignError::NotInitialized { path } => {
                write!(f, "no campaign found at {}", path.display())
            }
            CampaignError::Io { path, message } => {
                write!(f, "I/O error at {}: {message}", path.display())
            }
            CampaignError::Corrupt { path, reason } => {
                write!(f, "corrupt campaign state at {}: {reason}", path.display())
            }
        }
    }
}

impl From<WriteError> for CampaignError {
    fn from(WriteError { path, error }: WriteError) -> Self {
        CampaignError::Io {
            path,
            message: error.to_string(),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Protocol { error, .. } => Some(error),
            CampaignError::Queue { error, .. } => Some(error),
            _ => None,
        }
    }
}

// ------------------------------------------------------------ on-disk run --

/// Aggregate progress of a campaign directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Points in the campaign.
    pub points_total: usize,
    /// Points whose every shard (or sample) is done.
    pub points_done: usize,
    /// Trials executed so far, across all points.
    pub trials_done: u64,
    /// Trials the whole campaign will execute.
    pub trials_total: u64,
}

impl CampaignStatus {
    /// Whether every point has finished.
    pub fn complete(&self) -> bool {
        self.points_done == self.points_total
    }
}

impl fmt::Display for CampaignStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} points done ({}/{} trials)",
            self.points_done, self.points_total, self.trials_done, self.trials_total
        )
    }
}

/// Knobs for [`CampaignRun::run`] / [`CampaignRun::resume`].
#[derive(Debug, Clone)]
pub struct CampaignRunOptions {
    /// Worker name recorded on queue leases.
    pub worker: String,
    /// Lease duration for claimed shards, in milliseconds.
    pub lease_ms: u64,
    /// Sleep between claim attempts while other workers hold leases, in
    /// milliseconds.
    pub poll_ms: u64,
    /// Fault-injection hook: sleep this long between claiming a shard and
    /// executing it (0 = disabled). Chaos tests use it to widen the window
    /// in which a worker can be killed while holding a lease.
    pub throttle_ms: u64,
    /// Intra-shard parallelism of the executing engine.
    pub parallelism: Parallelism,
}

impl Default for CampaignRunOptions {
    fn default() -> Self {
        Self {
            worker: "campaign-worker".into(),
            lease_ms: 30_000,
            poll_ms: 200,
            throttle_ms: 0,
            parallelism: Parallelism::Auto,
        }
    }
}

/// A record of one executed sampled point, persisted atomically so a killed
/// campaign never re-runs finished points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SampleRecord {
    /// Fingerprint of the owning campaign.
    campaign: u64,
    /// Sweep index of the point.
    index: usize,
    /// The sampler's payload.
    payload: Value,
}

/// A campaign lowered onto a state directory: the stored definition plus one
/// [`ShardQueue`] per session point (`point-NNNN/`) or one atomic result
/// file per sampled point (`samples/point-NNNN.json`).
///
/// All coordination state lives on disk, so any number of processes can
/// [`run`](Self::run) the same directory concurrently and a SIGKILLed worker
/// costs at most its leased shards — exactly the queue's crash model, point
/// by point.
#[derive(Debug)]
pub struct CampaignRun {
    dir: PathBuf,
    campaign: Campaign,
    points: Vec<CampaignPoint>,
}

impl CampaignRun {
    /// Creates a campaign directory: stores the definition and initializes
    /// one shard queue per session point, each splitting the point's plan
    /// into shards of at most `shard_trials` trials.
    ///
    /// # Errors
    ///
    /// Expansion errors, [`CampaignError::AlreadyInitialized`] when the
    /// directory already holds a campaign, or I/O / queue errors.
    ///
    /// # Panics
    ///
    /// Panics when `shard_trials` is 0 (as [`ShardQueue::init`] does).
    pub fn init(
        dir: impl Into<PathBuf>,
        campaign: &Campaign,
        shard_trials: usize,
    ) -> Result<Self, CampaignError> {
        let dir = dir.into();
        let points = campaign.expand()?;
        fs::create_dir_all(&dir).map_err(|e| CampaignError::Io {
            path: dir.clone(),
            message: e.to_string(),
        })?;
        let campaign_path = dir.join(CAMPAIGN_FILE);
        if campaign_path.exists() {
            return Err(CampaignError::AlreadyInitialized {
                path: campaign_path,
            });
        }
        let run = Self {
            dir,
            campaign: campaign.clone(),
            points,
        };
        match &run.campaign.workload {
            CampaignWorkload::Session { .. } => {
                let engine = SessionEngine::new(run.campaign.master_seed);
                for point in &run.points {
                    let scenario = point
                        .scenario
                        .as_ref()
                        .expect("session points carry scenarios");
                    let plan = engine.plan(scenario, point.trials);
                    ShardQueue::init(
                        run.point_dir(point.index),
                        &plan,
                        shard_trials,
                        ShardOutput::Summary,
                    )
                    .map_err(|error| CampaignError::Queue {
                        index: point.index,
                        error,
                    })?;
                }
            }
            CampaignWorkload::Sampled { .. } => {
                let samples = run.dir.join(SAMPLES_DIR);
                fs::create_dir_all(&samples).map_err(|e| CampaignError::Io {
                    path: samples,
                    message: e.to_string(),
                })?;
            }
        }
        // The definition is written last: a campaign file's existence means
        // the directory is fully initialized.
        write_atomically(
            &campaign_path,
            serde::json::to_string(&run.campaign).as_bytes(),
        )?;
        Ok(run)
    }

    /// Opens an existing campaign directory, re-expanding the stored
    /// definition.
    ///
    /// # Errors
    ///
    /// [`CampaignError::NotInitialized`] when no campaign file exists,
    /// [`CampaignError::Corrupt`] when it fails to parse, plus any
    /// expansion error.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let dir = dir.into();
        let campaign_path = dir.join(CAMPAIGN_FILE);
        if !campaign_path.exists() {
            return Err(CampaignError::NotInitialized {
                path: campaign_path,
            });
        }
        let text = fs::read_to_string(&campaign_path).map_err(|e| CampaignError::Io {
            path: campaign_path.clone(),
            message: e.to_string(),
        })?;
        let campaign: Campaign =
            serde::json::from_str(&text).map_err(|e| CampaignError::Corrupt {
                path: campaign_path,
                reason: e.to_string(),
            })?;
        let points = campaign.expand()?;
        Ok(Self {
            dir,
            campaign,
            points,
        })
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stored campaign definition.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// The expanded points, in sweep order.
    pub fn points(&self) -> &[CampaignPoint] {
        &self.points
    }

    /// The shard-queue directory of session point `index`.
    pub fn point_dir(&self, index: usize) -> PathBuf {
        self.dir.join(format!("point-{index:04}"))
    }

    /// The result file of sampled point `index`.
    fn sample_path(&self, index: usize) -> PathBuf {
        self.dir
            .join(SAMPLES_DIR)
            .join(format!("point-{index:04}.json"))
    }

    /// Opens the shard queue of session point `index`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidPoint`] for sampled campaigns (their points
    /// have no queues), or the queue's own open errors.
    pub fn point_queue(&self, index: usize) -> Result<ShardQueue, CampaignError> {
        if matches!(self.campaign.workload, CampaignWorkload::Sampled { .. }) {
            return Err(CampaignError::InvalidPoint {
                index,
                reason: "sampled points have no shard queues".into(),
            });
        }
        ShardQueue::open(self.point_dir(index))
            .map_err(|error| CampaignError::Queue { index, error })
    }

    /// Aggregate progress across every point.
    ///
    /// # Errors
    ///
    /// Queue errors from session points; corrupt sample records are counted
    /// as not-done rather than failing the status call.
    pub fn status(&self) -> Result<CampaignStatus, CampaignError> {
        let mut status = CampaignStatus {
            points_total: self.points.len(),
            points_done: 0,
            trials_done: 0,
            trials_total: 0,
        };
        for point in &self.points {
            status.trials_total += point.trials as u64;
            match &self.campaign.workload {
                CampaignWorkload::Session { .. } => {
                    let queue_status =
                        self.point_queue(point.index)?.status().map_err(|error| {
                            CampaignError::Queue {
                                index: point.index,
                                error,
                            }
                        })?;
                    status.trials_done += queue_status.trials_done;
                    if queue_status.complete() {
                        status.points_done += 1;
                    }
                }
                CampaignWorkload::Sampled { .. } => {
                    if self.read_sample(point.index).is_ok() {
                        status.points_done += 1;
                        status.trials_done += point.trials as u64;
                    }
                }
            }
        }
        Ok(status)
    }

    /// Executes every remaining shard / sampled point, then folds the
    /// report.
    ///
    /// Session points drain their queues with the claim/execute/submit loop
    /// (waiting out other workers' leases); sampled points that already have
    /// a valid result file are skipped. Any number of processes can run the
    /// same directory concurrently.
    ///
    /// # Errors
    ///
    /// Queue, protocol, sampler, or I/O errors from execution, plus
    /// anything [`report`](Self::report) can return.
    pub fn run(
        &self,
        options: &CampaignRunOptions,
        sampler: &dyn Sampler,
    ) -> Result<CampaignReport, CampaignError> {
        match &self.campaign.workload {
            CampaignWorkload::Session { .. } => {
                let engine = SessionEngine::new(self.campaign.master_seed)
                    .with_parallelism(options.parallelism);
                for point in &self.points {
                    self.drain_point(point.index, &engine, options)?;
                }
            }
            CampaignWorkload::Sampled { kind, params } => {
                for point in &self.points {
                    if self.read_sample(point.index).is_ok() {
                        continue;
                    }
                    if options.throttle_ms > 0 {
                        thread::sleep(Duration::from_millis(options.throttle_ms));
                    }
                    let payload = sampler.sample(kind, params, point).map_err(|reason| {
                        CampaignError::Sampler {
                            index: point.index,
                            reason,
                        }
                    })?;
                    let record = SampleRecord {
                        campaign: self.campaign.fingerprint(),
                        index: point.index,
                        payload,
                    };
                    write_atomically(
                        &self.sample_path(point.index),
                        serde::json::to_string(&record).as_bytes(),
                    )?;
                }
            }
        }
        self.report()
    }

    /// Expires stale leases and re-verifies done shards on every session
    /// point, then [`run`](Self::run)s whatever remains — the one call a
    /// fleet needs after losing workers.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus recovery errors.
    pub fn resume(
        &self,
        options: &CampaignRunOptions,
        sampler: &dyn Sampler,
    ) -> Result<CampaignReport, CampaignError> {
        if matches!(self.campaign.workload, CampaignWorkload::Session { .. }) {
            for point in &self.points {
                self.point_queue(point.index)?
                    .recover()
                    .map_err(|error| CampaignError::Queue {
                        index: point.index,
                        error,
                    })?;
            }
        }
        self.run(options, sampler)
    }

    /// Folds the finished campaign into its report without executing
    /// anything.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] when points are still missing results,
    /// queue/merge errors, or corrupt sample records.
    pub fn report(&self) -> Result<CampaignReport, CampaignError> {
        let mut payloads = Vec::with_capacity(self.points.len());
        let mut done = 0usize;
        for point in &self.points {
            match &self.campaign.workload {
                CampaignWorkload::Session { .. } => {
                    let queue = self.point_queue(point.index)?;
                    let merged = queue.merge().map_err(|error| CampaignError::Queue {
                        index: point.index,
                        error,
                    })?;
                    let summary = merged
                        .into_summary()
                        .expect("campaign queues always carry summary payloads");
                    payloads.push(PointPayload::Summary(summary));
                    done += 1;
                }
                CampaignWorkload::Sampled { .. } => {
                    if !self.sample_path(point.index).exists() {
                        return Err(CampaignError::Incomplete {
                            done,
                            total: self.points.len(),
                        });
                    }
                    let record = self.read_sample(point.index)?;
                    payloads.push(PointPayload::Sampled(record.payload));
                    done += 1;
                }
            }
        }
        Ok(build_report(&self.campaign, &self.points, payloads))
    }

    /// Claim/execute/submit until session point `index` is drained.
    fn drain_point(
        &self,
        index: usize,
        engine: &SessionEngine,
        options: &CampaignRunOptions,
    ) -> Result<(), CampaignError> {
        use super::queue::ClaimOutcome;
        let queue = self.point_queue(index)?;
        let queue_err = |error| CampaignError::Queue { index, error };
        loop {
            match queue
                .claim(&options.worker, options.lease_ms)
                .map_err(queue_err)?
            {
                ClaimOutcome::Claimed(plan) => {
                    if options.throttle_ms > 0 {
                        thread::sleep(Duration::from_millis(options.throttle_ms));
                    }
                    let result = engine
                        .execute_shard(&plan, ShardOutput::Summary)
                        .map_err(|error| CampaignError::Protocol { index, error })?;
                    queue.submit(&result).map_err(queue_err)?;
                }
                ClaimOutcome::Wait { .. } => {
                    thread::sleep(Duration::from_millis(options.poll_ms.max(1)));
                }
                ClaimOutcome::Drained => return Ok(()),
            }
        }
    }

    /// Reads and validates one sampled point's record.
    fn read_sample(&self, index: usize) -> Result<SampleRecord, CampaignError> {
        let path = self.sample_path(index);
        let text = fs::read_to_string(&path).map_err(|e| CampaignError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let record: SampleRecord =
            serde::json::from_str(&text).map_err(|e| CampaignError::Corrupt {
                path: path.clone(),
                reason: e.to_string(),
            })?;
        if record.campaign != self.campaign.fingerprint() || record.index != index {
            return Err(CampaignError::Corrupt {
                path,
                reason: format!(
                    "record is for campaign {:016x} point {}, expected {:016x} point {}",
                    record.campaign,
                    record.index,
                    self.campaign.fingerprint(),
                    index
                ),
            });
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::IdentityPair;
    use rand::SeedableRng;

    fn base_scenario(seed: u64) -> Scenario {
        let config = SessionConfig::builder()
            .message_bits(8)
            .check_bits(2)
            .di_check_pairs(24)
            .build()
            .expect("config is valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Scenario::new(config, IdentityPair::generate(2, &mut rng))
    }

    fn session_campaign(axes: Vec<Axis>) -> Campaign {
        Campaign {
            label: "test".into(),
            master_seed: 41,
            trials: 2,
            workload: CampaignWorkload::Session {
                base: base_scenario(5),
            },
            space: CampaignSpace::Grid(axes),
        }
    }

    #[test]
    fn grid_expansion_is_last_axis_fastest() {
        let campaign = session_campaign(vec![
            Axis::Eta(vec![0, 10]),
            Axis::Backend(BackendKind::ALL.to_vec()),
        ]);
        let points = campaign.expand().expect("expands");
        assert_eq!(points.len(), 2 * BackendKind::ALL.len());
        let coords: Vec<(usize, BackendKind)> = points
            .iter()
            .map(|p| match p.coords.as_slice() {
                [AxisValue::Eta(eta), AxisValue::Backend(backend)] => (*eta, *backend),
                other => panic!("unexpected coords {other:?}"),
            })
            .collect();
        let expected: Vec<(usize, BackendKind)> = [0usize, 10]
            .into_iter()
            .flat_map(|eta| {
                BackendKind::ALL
                    .into_iter()
                    .map(move |backend| (eta, backend))
            })
            .collect();
        assert_eq!(coords, expected);
        // Session points carry concrete scenarios with the coords applied.
        let last = points.last().unwrap();
        assert_eq!(
            last.scenario.as_ref().unwrap().backend,
            *BackendKind::ALL.last().unwrap()
        );
        assert_eq!(
            last.scenario.as_ref().unwrap().config.channel().length(),
            10
        );
    }

    #[test]
    fn point_seeds_follow_the_shared_derivation() {
        let campaign = session_campaign(vec![Axis::Eta(vec![0, 10, 20])]);
        let points = campaign.expand().expect("expands");
        for point in &points {
            assert_eq!(
                point.seed,
                derive_point_seed(campaign.master_seed, point.index as u64)
            );
        }
    }

    #[test]
    fn trials_axis_overrides_the_default_budget() {
        let campaign = session_campaign(vec![Axis::Trials(vec![1, 3])]);
        let points = campaign.expand().expect("expands");
        assert_eq!(points[0].trials, 1);
        assert_eq!(points[1].trials, 3);
    }

    #[test]
    fn strength_axis_requires_entangle_measure() {
        let mut campaign = session_campaign(vec![Axis::Strength(vec![0.5])]);
        assert!(matches!(
            campaign.expand(),
            Err(CampaignError::InvalidPoint { index: 0, .. })
        ));
        if let CampaignWorkload::Session { base } = &mut campaign.workload {
            base.adversary = Adversary::EntangleMeasure { strength: 0.0 };
        }
        let points = campaign.expand().expect("expands");
        assert_eq!(
            points[0].scenario.as_ref().unwrap().adversary,
            Adversary::EntangleMeasure { strength: 0.5 }
        );
    }

    #[test]
    fn message_axis_is_rejected_on_session_workloads() {
        let campaign = session_campaign(vec![Axis::Message(vec!["00".into()])]);
        assert!(matches!(
            campaign.expand(),
            Err(CampaignError::InvalidPoint { .. })
        ));
    }

    #[test]
    fn fingerprint_ignores_labels_but_not_physics() {
        let campaign = session_campaign(vec![Axis::Eta(vec![0, 10])]);
        let mut relabeled = campaign.clone();
        relabeled.label = "renamed".into();
        assert_eq!(campaign.fingerprint(), relabeled.fingerprint());
        let mut reseeded = campaign.clone();
        reseeded.master_seed ^= 1;
        assert_ne!(campaign.fingerprint(), reseeded.fingerprint());
        let mut reshaped = campaign.clone();
        reshaped.space = CampaignSpace::Grid(vec![Axis::Eta(vec![0, 20])]);
        assert_ne!(campaign.fingerprint(), reshaped.fingerprint());
    }

    #[test]
    fn error_displays_name_their_subject() {
        assert!(CampaignError::EmptyAxis { axis: "eta" }
            .to_string()
            .contains("eta"));
        assert!(CampaignError::DuplicatePoint {
            first: 1,
            second: 3
        }
        .to_string()
        .contains("3 duplicates point 1"));
        assert!(CampaignError::Incomplete { done: 2, total: 5 }
            .to_string()
            .contains("2/5"));
    }
}
