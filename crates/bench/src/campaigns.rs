//! Stored [`Campaign`] definitions behind the figure binaries, and the
//! [`Sampler`] that executes their circuit-level points.
//!
//! Each figure is "a checked-in campaign plus a report formatter": the
//! builders here construct the exact campaigns stored under
//! `crates/bench/campaigns/*.json` (a test locks the bytes), the
//! [`figure_sampler`] executes the sampled kinds (`fig2-histogram`,
//! `fig3-accuracy`), and the `*_rows` helpers recover each figure's row type
//! from a [`CampaignReport`]. Sampled points seed their RNG with
//! [`derive_seed`](crate::derive_seed) of the point index, and session
//! campaigns plan under the master seed like
//! [`SessionEngine::run_batch`](protocol::engine::SessionEngine::run_batch).

use crate::{
    decode_readout_counts, message_transfer_circuit, BackendAblationRow, ChannelAttackKind,
    FIG2_MESSAGES,
};
use analysis::histogram::counts_to_row;
use analysis::rows::{AccuracyPoint, AttackRow, HistogramRow};
use noise::{DeviceModel, NoisyExecutor};
use protocol::config::SessionConfig;
use protocol::engine::{
    Adversary, Axis, AxisValue, BackendKind, Campaign, CampaignPoint, CampaignReport,
    CampaignSpace, CampaignWorkload, Sampler, Scenario, TrialSummary,
};
use protocol::identity::IdentityPair;
use qchannel::quantum::ChannelSpec;
use qchannel::taps::{InterceptBasis, SubstituteState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

/// Sampler kind of the Fig. 2 decoded-counts histogram.
pub const FIG2_KIND: &str = "fig2-histogram";

/// Sampler kind of the Fig. 3 accuracy-vs-η sweep.
pub const FIG3_KIND: &str = "fig3-accuracy";

/// Resolves a device model stored by name in campaign parameters.
///
/// # Errors
///
/// Returns an error naming the unknown device.
pub fn device_by_name(name: &str) -> Result<DeviceModel, String> {
    match name {
        "ideal" => Ok(DeviceModel::ideal()),
        "ibm_brisbane_like" => Ok(DeviceModel::ibm_brisbane_like()),
        other => Err(format!("unknown device model `{other}`")),
    }
}

/// The Fig. 2 campaign: one sampled point per 2-bit message panel,
/// transmitting over `eta` identity gates on `device` with `shots` shots.
pub fn fig2_campaign(device: &DeviceModel, eta: usize, shots: usize, seed: u64) -> Campaign {
    Campaign {
        label: "fig2".into(),
        master_seed: seed,
        trials: shots,
        workload: CampaignWorkload::Sampled {
            kind: FIG2_KIND.into(),
            params: Value::Map(vec![
                ("device".into(), Value::Str(device.name().into())),
                // Int, not UInt: JSON parsing yields Int, and the stored
                // definition must round-trip to an equal value.
                ("eta".into(), Value::Int(eta as i64)),
            ]),
        },
        space: CampaignSpace::Grid(vec![Axis::Message(
            FIG2_MESSAGES.iter().map(|m| (*m).to_string()).collect(),
        )]),
    }
}

/// The Fig. 3 campaign: one sampled point per channel length, measuring the
/// four-message decoding accuracy with `shots_per_message` shots each.
pub fn fig3_campaign(
    device: &DeviceModel,
    eta_values: &[usize],
    shots_per_message: usize,
    seed: u64,
) -> Campaign {
    Campaign {
        label: "fig3".into(),
        master_seed: seed,
        trials: shots_per_message,
        workload: CampaignWorkload::Sampled {
            kind: FIG3_KIND.into(),
            params: Value::Map(vec![("device".into(), Value::Str(device.name().into()))]),
        },
        space: CampaignSpace::Grid(vec![Axis::Eta(eta_values.to_vec())]),
    }
}

/// The adversaries of the backend-ablation campaign, in axis order — the
/// engine values behind [`crate::ABLATION_ADVERSARIES`].
fn ablation_adversaries() -> Vec<Adversary> {
    vec![
        Adversary::Honest,
        Adversary::InterceptResend(InterceptBasis::Computational),
        Adversary::ManInTheMiddle(SubstituteState::RandomComputational),
    ]
}

/// The backend-ablation campaign: the Fig. 2/3 channel-length grid (`etas`
/// identity gates on an `ibm_brisbane`-like device) for the honest control,
/// intercept-resend and MITM adversaries on **every** production substrate —
/// η × adversary × backend, last axis fastest — so consecutive points compare
/// the exact density-matrix emulation against the cheaper substrates on an
/// otherwise identical scenario.
pub fn ablation_campaign(etas: &[usize], trials: usize, seed: u64) -> Campaign {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    // The base carries η = 0; the Eta axis rebuilds the channel per point. A
    // generous DI budget keeps honest aborts negligible, and the relaxed
    // authentication tolerance lets the CHSH mechanism (not the auth
    // mismatch) do the detecting.
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(1.0)
        .channel(ChannelSpec::noisy_identity_chain(
            0,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("ablation config is valid");
    Campaign {
        label: "ablation-backend".into(),
        master_seed: seed,
        trials,
        workload: CampaignWorkload::Session {
            base: Scenario::new(config, identities),
        },
        space: CampaignSpace::Grid(vec![
            Axis::Eta(etas.to_vec()),
            Axis::Adversary(ablation_adversaries()),
            Axis::Backend(BackendKind::ALL.to_vec()),
        ]),
    }
}

/// A small two-axis session campaign (η × adversary on the `shardctl` demo
/// configuration) for CI chaos drills and quick-start examples.
pub fn demo_campaign(trials: usize, seed: u64) -> Campaign {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(64)
        .channel(ChannelSpec::noisy_identity_chain(
            0,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("demo config is valid");
    Campaign {
        label: "demo".into(),
        master_seed: seed,
        trials,
        workload: CampaignWorkload::Session {
            base: Scenario::new(config, identities),
        },
        space: CampaignSpace::Grid(vec![
            Axis::Eta(vec![0, 10]),
            Axis::Adversary(vec![
                Adversary::Honest,
                Adversary::InterceptResend(InterceptBasis::Computational),
            ]),
        ]),
    }
}

/// The engine adversary of one channel-attack kind.
fn attack_adversary(kind: ChannelAttackKind) -> Adversary {
    match kind {
        ChannelAttackKind::InterceptResend => {
            Adversary::InterceptResend(InterceptBasis::Computational)
        }
        ChannelAttackKind::ManInTheMiddle => {
            Adversary::ManInTheMiddle(SubstituteState::RandomComputational)
        }
        ChannelAttackKind::EntangleMeasure => Adversary::EntangleMeasure { strength: 1.0 },
    }
}

/// The stored-campaign stem of one channel-attack kind (`attack_intercept`,
/// `attack_mitm`, `attack_entangle`).
pub fn attack_campaign_name(kind: ChannelAttackKind) -> &'static str {
    match kind {
        ChannelAttackKind::InterceptResend => "attack_intercept",
        ChannelAttackKind::ManInTheMiddle => "attack_mitm",
        ChannelAttackKind::EntangleMeasure => "attack_entangle",
    }
}

/// One channel-attack campaign: `trials` sessions against the attack `kind`
/// on `backend`, then the honest (no-attack) control with the same
/// configuration and identities.
pub fn attack_campaign(
    kind: ChannelAttackKind,
    backend: BackendKind,
    trials: usize,
    seed: u64,
) -> Campaign {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    // The relaxed authentication tolerance lets the second CHSH round (the
    // paper's mechanism) do the detecting instead of the equally fatal auth
    // mismatch that would fire first with a strict tolerance.
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(1.0)
        .build()
        .expect("channel attack config is valid");
    Campaign {
        label: attack_campaign_name(kind).replace('_', "-"),
        master_seed: seed,
        trials,
        workload: CampaignWorkload::Session {
            base: Scenario::new(config, identities).with_backend(backend),
        },
        space: CampaignSpace::Grid(vec![Axis::Adversary(vec![
            attack_adversary(kind),
            Adversary::Honest,
        ])]),
    }
}

/// The single-point verification campaign behind the `table1` binary: honest
/// ideal-channel sessions whose planned resource accounting the binary checks
/// against the UA-DI-QSDC row of Table I.
pub fn table1_campaign(trials: usize, seed: u64) -> Campaign {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(16)
        .check_bits(4)
        .di_check_pairs(64)
        .build()
        .expect("table1 verification config is valid");
    Campaign {
        label: "table1".into(),
        master_seed: seed,
        trials,
        workload: CampaignWorkload::Session {
            base: Scenario::new(config, identities),
        },
        // One explicit coordinate-free point: the base scenario itself.
        space: CampaignSpace::Points(vec![vec![]]),
    }
}

/// The [`Sampler`] executing this crate's sampled campaign kinds
/// ([`FIG2_KIND`], [`FIG3_KIND`]). Pure per point: device and η come from
/// the campaign parameters, the message/η coordinate from the point, and all
/// randomness from the point's derived seed.
pub fn figure_sampler() -> impl Sampler {
    |kind: &str, params: &Value, point: &CampaignPoint| match kind {
        FIG2_KIND => sample_fig2(params, point),
        FIG3_KIND => sample_fig3(params, point),
        other => Err(format!("unknown sampler kind `{other}`")),
    }
}

fn sample_fig2(params: &Value, point: &CampaignPoint) -> Result<Value, String> {
    let device = device_by_name(
        params
            .get_field("device")
            .and_then(|v| v.as_str())
            .map_err(|e| e.to_string())?,
    )?;
    let eta = params
        .get_field("eta")
        .and_then(|v| v.as_u64())
        .map_err(|e| e.to_string())? as usize;
    let message = point
        .coords
        .iter()
        .find_map(|coord| match coord {
            AxisValue::Message(message) => Some(message.as_str()),
            _ => None,
        })
        .ok_or_else(|| "fig2 points need a message coordinate".to_string())?;
    let mut rng = StdRng::seed_from_u64(point.seed);
    let circuit = message_transfer_circuit(message, eta);
    let raw = NoisyExecutor::new(device)
        .sample(&circuit, point.trials, &mut rng)
        .map_err(|e| e.to_string())?;
    let decoded = decode_readout_counts(&raw);
    Ok(counts_to_row(message, &decoded).to_value())
}

fn sample_fig3(params: &Value, point: &CampaignPoint) -> Result<Value, String> {
    let device = device_by_name(
        params
            .get_field("device")
            .and_then(|v| v.as_str())
            .map_err(|e| e.to_string())?,
    )?;
    let eta = point
        .coords
        .iter()
        .find_map(|coord| match coord {
            AxisValue::Eta(eta) => Some(*eta),
            _ => None,
        })
        .ok_or_else(|| "fig3 points need an η coordinate".to_string())?;
    let mut rng = StdRng::seed_from_u64(point.seed);
    let executor = NoisyExecutor::new(device.clone());
    let mut correct = 0u64;
    let mut total = 0u64;
    for message in FIG2_MESSAGES {
        let circuit = message_transfer_circuit(message, eta);
        let raw = executor
            .sample(&circuit, point.trials, &mut rng)
            .map_err(|e| e.to_string())?;
        let decoded = decode_readout_counts(&raw);
        correct += decoded.get(message);
        total += decoded.total();
    }
    Ok(AccuracyPoint {
        eta,
        duration_us: eta as f64 * device.identity_gate_time_ns() / 1000.0,
        accuracy: if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        },
        shots: total,
    }
    .to_value())
}

/// Recovers the Fig. 2 histogram rows from a campaign report, in panel
/// order.
///
/// # Errors
///
/// Returns an error when a point carries no sampled payload or the payload
/// is not a [`HistogramRow`].
pub fn fig2_rows(report: &CampaignReport) -> Result<Vec<HistogramRow>, String> {
    report
        .points
        .iter()
        .map(|point| {
            let value = point
                .sampled
                .as_ref()
                .ok_or_else(|| format!("point {} carries no sampled payload", point.index))?;
            HistogramRow::from_value(value).map_err(|e| e.to_string())
        })
        .collect()
}

/// Recovers the Fig. 3 accuracy points from a campaign report, in sweep
/// order.
///
/// # Errors
///
/// Returns an error when a point carries no sampled payload or the payload
/// is not an [`AccuracyPoint`].
pub fn fig3_points(report: &CampaignReport) -> Result<Vec<AccuracyPoint>, String> {
    report
        .points
        .iter()
        .map(|point| {
            let value = point
                .sampled
                .as_ref()
                .ok_or_else(|| format!("point {} carries no sampled payload", point.index))?;
            AccuracyPoint::from_value(value).map_err(|e| e.to_string())
        })
        .collect()
}

/// Loads one of the checked-in campaign definitions shipped under
/// `crates/bench/campaigns/` by stem (`fig2`, `fig3`, `ablation_backend`,
/// `demo`, `table1`, `attack_intercept`, `attack_mitm`, `attack_entangle`).
///
/// # Errors
///
/// Returns an error for an unknown stem. The stored bytes are locked to the
/// builders by tests, so a successful load always parses.
pub fn stored_campaign(name: &str) -> Result<Campaign, String> {
    let text = match name {
        "fig2" => include_str!("../campaigns/fig2.json"),
        "fig3" => include_str!("../campaigns/fig3.json"),
        "ablation_backend" => include_str!("../campaigns/ablation_backend.json"),
        "demo" => include_str!("../campaigns/demo.json"),
        "table1" => include_str!("../campaigns/table1.json"),
        "attack_intercept" => include_str!("../campaigns/attack_intercept.json"),
        "attack_mitm" => include_str!("../campaigns/attack_mitm.json"),
        "attack_entangle" => include_str!("../campaigns/attack_entangle.json"),
        other => return Err(format!("no stored campaign named `{other}`")),
    };
    serde::json::from_str(text).map_err(|e| format!("stored campaign `{name}` is corrupt: {e}"))
}

/// Recovers the `(attacked, honest control)` row pair of a channel-attack
/// campaign report.
///
/// # Errors
///
/// Returns an error when the report does not hold exactly the two expected
/// points or a point lacks a merged summary.
pub fn attack_rows(report: &CampaignReport) -> Result<(AttackRow, AttackRow), String> {
    if report.points.len() != 2 {
        return Err(format!(
            "a channel-attack campaign holds exactly two points (attacked, honest control), \
             got {}",
            report.points.len()
        ));
    }
    let mut rows = Vec::with_capacity(2);
    for point in &report.points {
        let summary = point
            .summary
            .clone()
            .ok_or_else(|| format!("point {} carries no merged summary", point.index))?;
        rows.push(summary_to_row(summary));
    }
    let honest = rows.pop().expect("two rows");
    let attacked = rows.pop().expect("two rows");
    Ok((attacked, honest))
}

fn summary_to_row(summary: TrialSummary) -> AttackRow {
    let detection_rate = summary.detection_rate();
    AttackRow {
        attack: if summary.adversary.is_empty() || summary.adversary == "honest" {
            "honest (no attack)".into()
        } else {
            summary.adversary
        },
        trials: summary.trials,
        delivered: summary.delivered,
        detection_rate,
        mean_chsh_round1: summary.mean_chsh_round1,
        mean_chsh_round2: summary.mean_chsh_round2,
    }
}

/// The row pair printed by one channel-attack binary: the stored campaign
/// when the arguments match its checked-in defaults, a rebuilt campaign of
/// the same shape otherwise.
///
/// # Errors
///
/// Returns an error when the campaign fails to load, expand or execute.
pub fn attack_experiment_rows(
    kind: ChannelAttackKind,
    backend: BackendKind,
    trials: usize,
    seed: u64,
) -> Result<(AttackRow, AttackRow), String> {
    let stored_defaults = match kind {
        ChannelAttackKind::InterceptResend => (20, 11),
        ChannelAttackKind::ManInTheMiddle => (20, 13),
        ChannelAttackKind::EntangleMeasure => (20, 17),
    };
    let campaign = if backend == BackendKind::default() && (trials, seed) == stored_defaults {
        stored_campaign(attack_campaign_name(kind))?
    } else {
        attack_campaign(kind, backend, trials, seed)
    };
    let report = campaign
        .run_direct(crate::engine_parallelism(), &protocol::engine::NoSampler)
        .map_err(|e| format!("campaign failed: {e}"))?;
    attack_rows(&report)
}

/// Recovers the single verification summary of the `table1` campaign.
///
/// # Errors
///
/// Returns an error when the report does not hold exactly one summarised
/// point.
pub fn table1_summary(report: &CampaignReport) -> Result<TrialSummary, String> {
    match report.points.as_slice() {
        [point] => point
            .summary
            .clone()
            .ok_or_else(|| format!("point {} carries no merged summary", point.index)),
        other => Err(format!(
            "the table1 campaign holds exactly one point, got {}",
            other.len()
        )),
    }
}

/// Recovers the backend-ablation rows from a campaign report, grid-major
/// (η, then adversary, then backend).
///
/// # Errors
///
/// Returns an error when a point lacks a merged summary or the expected
/// η/adversary/backend coordinates.
pub fn ablation_rows(report: &CampaignReport) -> Result<Vec<BackendAblationRow>, String> {
    report
        .points
        .iter()
        .map(|point| {
            let summary = point
                .summary
                .as_ref()
                .ok_or_else(|| format!("point {} carries no merged summary", point.index))?;
            let mut eta = None;
            let mut backend = None;
            let mut adversary = None;
            for coord in &point.coords {
                match coord {
                    AxisValue::Eta(e) => eta = Some(*e),
                    AxisValue::Backend(b) => backend = Some(*b),
                    AxisValue::Adversary(a) => {
                        adversary = Some(match a {
                            Adversary::Honest => "honest",
                            Adversary::InterceptResend(_) => "intercept-resend",
                            Adversary::ManInTheMiddle(_) => "mitm",
                            other => {
                                return Err(format!(
                                    "unexpected ablation adversary `{}`",
                                    other.name()
                                ))
                            }
                        })
                    }
                    _ => {}
                }
            }
            Ok(BackendAblationRow {
                adversary: adversary.ok_or_else(|| {
                    format!("point {} lacks an adversary coordinate", point.index)
                })?,
                eta: eta.ok_or_else(|| format!("point {} lacks an η coordinate", point.index))?,
                backend: backend
                    .ok_or_else(|| format!("point {} lacks a backend coordinate", point.index))?,
                trials: summary.trials,
                delivered: summary.delivered,
                detection_rate: summary.detection_rate(),
                mean_chsh_round2: summary.mean_chsh_round2,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_parallelism;
    use protocol::engine::{CampaignRun, CampaignRunOptions};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The builders behind the checked-in definitions, with the default
    /// arguments of their binaries.
    fn stored_definitions() -> Vec<(&'static str, Campaign)> {
        let brisbane = DeviceModel::ibm_brisbane_like();
        vec![
            ("fig2", fig2_campaign(&brisbane, 10, 1024, 20240916)),
            (
                "fig3",
                fig3_campaign(&brisbane, &crate::fig3_eta_values(), 256, 424242),
            ),
            ("ablation_backend", ablation_campaign(&[0, 10, 50], 20, 11)),
            ("demo", demo_campaign(3, 7)),
            ("table1", table1_campaign(4, 20240916)),
            (
                "attack_intercept",
                attack_campaign(
                    ChannelAttackKind::InterceptResend,
                    BackendKind::default(),
                    20,
                    11,
                ),
            ),
            (
                "attack_mitm",
                attack_campaign(
                    ChannelAttackKind::ManInTheMiddle,
                    BackendKind::default(),
                    20,
                    13,
                ),
            ),
            (
                "attack_entangle",
                attack_campaign(
                    ChannelAttackKind::EntangleMeasure,
                    BackendKind::default(),
                    20,
                    17,
                ),
            ),
        ]
    }

    #[test]
    fn stored_campaigns_match_their_builders() {
        let update = std::env::var_os(protocol::env_keys::UPDATE_FIXTURES).is_some();
        for (name, campaign) in stored_definitions() {
            let generated = serde::json::to_string(&campaign);
            if update {
                let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("campaigns")
                    .join(format!("{name}.json"));
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                std::fs::write(&path, &generated).unwrap();
                continue;
            }
            let stored = stored_campaign(name).expect("stored campaign parses");
            assert_eq!(
                campaign,
                stored,
                "campaigns/{name}.json has drifted from its builder \
                 (rerun with {}=1 to regenerate)",
                protocol::env_keys::UPDATE_FIXTURES
            );
            assert_eq!(
                generated,
                serde::json::to_string(&stored),
                "campaigns/{name}.json serialization drifted"
            );
        }
    }

    #[test]
    fn stored_campaign_rejects_unknown_names() {
        assert!(stored_campaign("fig9").is_err());
    }

    /// A scratch directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "ua-di-qsdc-bench-{tag}-{}-{unique}",
                std::process::id()
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn sampled_campaign_through_a_run_directory_matches_run_direct() {
        let device = DeviceModel::ibm_brisbane_like();
        let campaign = fig2_campaign(&device, 10, 32, 20240916);
        let direct = campaign
            .run_direct(engine_parallelism(), &figure_sampler())
            .expect("direct run succeeds");
        let dir = TempDir::new("fig2-run");
        let run = CampaignRun::init(&dir.0, &campaign, 8).expect("run initialises");
        let report = run
            .run(&CampaignRunOptions::default(), &figure_sampler())
            .expect("run drains");
        assert_eq!(
            serde::json::to_string(&report),
            serde::json::to_string(&direct),
            "persisted sampled campaign must match the in-process run byte-for-byte"
        );
    }
}
