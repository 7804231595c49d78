//! # bench — experiment harness regenerating every table and figure of the paper
//!
//! Each experiment of the evaluation section has one entry point here, one `cargo run -p bench
//! --bin …` binary that prints its rows, and one Criterion bench target. Every entry point is
//! deterministic (seeded RNG), so each binary's stdout is a pure function of its arguments;
//! `tests/golden_outputs.rs` byte-diffs it against the committed `tests/golden/` files.
//!
//! | Paper artefact | Entry point | Binary |
//! |---|---|---|
//! | Table I | [`table1_rows`], [`campaigns::table1_campaign`] | `table1` |
//! | Fig. 2 (a–d) | [`campaigns::fig2_campaign`] | `fig2` |
//! | Fig. 3 | [`campaigns::fig3_campaign`] | `fig3` |
//! | Impersonation sim (Sec. III-A/IV) | [`impersonation_experiment`] | `attack_impersonation` |
//! | Intercept-resend sim (Sec. III-B/IV) | [`campaigns::attack_campaign`] | `attack_intercept` |
//! | MITM sim (Sec. III-C/IV) | [`campaigns::attack_campaign`] | `attack_mitm` |
//! | Entangle-measure sim (Sec. III-D/IV) | [`campaigns::attack_campaign`] | `attack_entangle` |
//! | Info-leakage audit (Sec. III-E) | [`leakage_experiment`] | `attack_leakage` |
//! | CHSH behaviour (Sec. II) | [`chsh_baseline_experiment`] | `chsh_baseline` |
//! | Backend ablation (Sec. IV emulation vs trajectories) | [`campaigns::ablation_campaign`] | `ablation_backend` |
//! | Engine throughput trajectory | — | `bench_throughput` |
//!
//! The engine-driven attack binaries additionally accept `--backend KIND`
//! (any [`BackendKind`] name or alias) to re-run their sweep on another
//! simulation substrate ([`backend_from_args`]); `shardctl` takes
//! the same flag on its `scenario` and `plan` subcommands.
//!
//! The `fig2`, `fig3`, `ablation_backend`, `table1` and
//! `attack_intercept`/`attack_mitm`/`attack_entangle` binaries are
//! formatters over **stored campaign definitions** (see [`campaigns`]): each
//! drives the checked-in `crates/bench/campaigns/*.json` declaration through
//! the campaign engine. The `shardctl campaign` subcommands run the same
//! definitions resumably on a queue fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaigns;
pub mod shard_io;

use analysis::rows::{DetectionPoint, Table1Row};
use analysis::stats::mean;
use attacks::impersonation::run_impersonation_trials;
use attacks::leakage::LeakageAudit;
use noise::DeviceModel;
use protocol::config::SessionConfig;
use protocol::descriptor::ProtocolDescriptor;
use protocol::di_check::{run_di_check, DiCheckRound};
use protocol::engine::parallel::scatter;
use protocol::engine::{BackendKind, Parallelism, Scenario, SessionEngine};
use protocol::identity::IdentityPair;
use protocol::session::Impersonation;
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelSpec;
use qsim::circuit::{Circuit, CircuitBuilder};
use qsim::counts::Counts;
use qsim::pauli::Pauli;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four 2-bit messages of Fig. 2 in panel order.
pub const FIG2_MESSAGES: [&str; 4] = ["00", "01", "10", "11"];

/// The execution policy every experiment in this crate runs under: the
/// [`Parallelism::ENV_VAR`] environment variable when set (`serial`, `auto`,
/// `threads:N`), all available cores otherwise.
///
/// Every experiment is deterministic *per point* — engine trials by the
/// per-trial RNG stream contract, sweep points by [`derive_seed`] — so for a
/// given seed the policy changes wall time only, never a number in a table.
pub fn engine_parallelism() -> Parallelism {
    Parallelism::from_env().unwrap_or(Parallelism::Auto)
}

/// [`engine_parallelism`] plus the standard stderr banner every binary in
/// this crate prints: the selected policy, the resolved worker count, and the
/// environment variable that overrides it.
pub fn announce_parallelism() -> Parallelism {
    let parallelism = engine_parallelism();
    eprintln!(
        "engine parallelism: {parallelism} ({} worker threads; override via {})",
        parallelism.worker_count(),
        Parallelism::ENV_VAR
    );
    parallelism
}

/// Parses the optional `--backend KIND` (or `--backend=KIND`) flag from the
/// process arguments — the shared CLI of the engine-driven attack binaries.
/// Defaults to the density-matrix substrate; exits with a usage error on an
/// unknown kind or any unrecognised argument, so a typo can never silently
/// fall back to the default substrate.
pub fn backend_from_args() -> BackendKind {
    fn parse_kind(raw: &str) -> BackendKind {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }
    let mut backend = BackendKind::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--backend" {
            let raw = args.next().unwrap_or_else(|| {
                let kinds: Vec<&str> = BackendKind::ALL.iter().map(|k| k.as_str()).collect();
                eprintln!("--backend requires a value ({})", kinds.join(" | "));
                std::process::exit(2)
            });
            backend = parse_kind(&raw);
        } else if let Some(raw) = flag.strip_prefix("--backend=") {
            backend = parse_kind(raw);
        } else {
            eprintln!("unknown option `{flag}` (supported: --backend KIND)");
            std::process::exit(2);
        }
    }
    backend
}

/// Derives an independent RNG seed for sweep point `index` of an experiment
/// seeded with `seed` (one [`rand::splitmix64`] step — the same finalizer the
/// engine derives trial streams with), so sweep points can execute on any
/// worker in any order and still reproduce bit-for-bit. This is the same
/// derivation campaign expansion applies
/// ([`protocol::engine::derive_point_seed`]).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    protocol::engine::derive_point_seed(seed, index)
}

/// Builds the single-EPR-pair message-transfer circuit the paper runs on `ibm_brisbane`:
/// prepare `|Φ+⟩`, apply the encoding Pauli for `message` on Alice's qubit, push it through
/// `eta` identity gates, and Bell-measure.
///
/// # Panics
///
/// Panics if `message` is not one of `00`, `01`, `10`, `11`.
pub fn message_transfer_circuit(message: &str, eta: usize) -> Circuit {
    let pauli = match message {
        "00" => Pauli::I,
        "01" => Pauli::Z,
        "10" => Pauli::X,
        "11" => Pauli::IY,
        other => panic!("{other:?} is not a 2-bit message"),
    };
    let mut builder = CircuitBuilder::new(2, 2).h(0).cnot(0, 1).barrier();
    builder = builder.unitary(pauli.symbol(), pauli.matrix(), &[0]);
    builder = builder.identity_chain(0, eta).barrier();
    // Bell-state measurement: disentangle and read out.
    builder.cnot(0, 1).h(0).measure(0, 0).measure(1, 1).build()
}

/// Decodes the raw Bell-measurement readout histogram into a histogram over decoded 2-bit
/// messages: readout `m_a m_b` identifies the Bell state (`00→Φ+`, `10→Φ−`, `01→Ψ+`,
/// `11→Ψ−`), which decodes to the message via the paper's encoding rule.
pub fn decode_readout_counts(raw: &Counts) -> Counts {
    let mut decoded = Counts::new();
    for (label, count) in raw.iter() {
        let message = match label {
            "00" => "00",
            "10" => "01",
            "01" => "10",
            "11" => "11",
            other => other,
        };
        decoded.record_many(message, count);
    }
    decoded
}

/// The η values of the paper's Fig. 3 sweep: 10 to 700 in steps of 10 (0.6 µs to 42 µs).
pub fn fig3_eta_values() -> Vec<usize> {
    (1..=70).map(|i| i * 10).collect()
}

/// Renders Table I from the protocol descriptors.
pub fn table1_rows() -> Vec<Table1Row> {
    ProtocolDescriptor::table1()
        .into_iter()
        .map(|d| Table1Row {
            protocol: d.name.clone(),
            resource: d.resource.to_string(),
            measurement: d.measurement.to_string(),
            qubits_per_bit: d.qubits_per_message_bit,
            user_authentication: d.user_authentication,
        })
        .collect()
}

/// Default session configuration used by the attack experiments (small message, generous
/// DI-check budget so honest aborts are negligible, strict authentication).
pub fn attack_session_config() -> SessionConfig {
    SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(0.0)
        .build()
        .expect("attack session config is valid")
}

/// Runs the impersonation experiment for each identity length in `l_values`, measuring the
/// detection rate against the analytic `1 − (1/4)^l`. The per-`l` trial loops fan out across
/// cores inside [`run_impersonation_trials`]; the sweep itself stays sequential because each
/// point consumes the shared RNG stream (keeping historic outputs bit-identical).
pub fn impersonation_experiment(
    l_values: &[usize],
    target: Impersonation,
    trials: usize,
    seed: u64,
) -> Vec<DetectionPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = attack_session_config();
    l_values
        .iter()
        .map(|&l| {
            let identities = IdentityPair::generate(l, &mut rng);
            let summary = run_impersonation_trials(&config, &identities, target, trials, &mut rng)
                .expect("impersonation trials run");
            DetectionPoint {
                identity_qubits: l,
                trials,
                measured: summary.detection_rate,
                analytic: summary.analytic_probability,
            }
        })
        .collect()
}

/// The channel-attack strategies of Sections III-B/C/D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelAttackKind {
    /// Intercept-and-resend in the computational basis.
    InterceptResend,
    /// Man-in-the-middle source substitution.
    ManInTheMiddle,
    /// Entangle-and-measure with a full CNOT ancilla.
    EntangleMeasure,
}

/// Builds the η-sweep workload behind the `bench_throughput` sweep lanes: an
/// honest session over `eta` noisy identity gates of an `ibm_brisbane`-like
/// channel — the regime the paper's detection-rate curves integrate over,
/// where per-trial channel simulation (not protocol bookkeeping) dominates
/// the cost and the substrates separate.
pub fn sweep_scenario(eta: usize, seed: u64, backend: BackendKind) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(1.0)
        .channel(ChannelSpec::noisy_identity_chain(
            eta,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("sweep config is valid");
    Scenario::new(config, identities)
        .with_label(format!("sweep-honest-eta{eta}"))
        .with_backend(backend)
}

/// One grid point of the backend-ablation sweep: one adversary, one channel
/// length, one simulation substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendAblationRow {
    /// Adversary display name (`honest`, `intercept-resend`, `mitm`).
    pub adversary: &'static str,
    /// Channel length in identity gates (the paper's η, the Fig. 3 axis).
    pub eta: usize,
    /// The substrate the sessions ran on.
    pub backend: BackendKind,
    /// Sessions executed.
    pub trials: usize,
    /// Sessions in which the message was delivered.
    pub delivered: usize,
    /// Fraction of sessions that aborted (the adversary was detected).
    pub detection_rate: f64,
    /// Mean CHSH value of the second check, where it was estimated.
    pub mean_chsh_round2: Option<f64>,
}

/// The adversaries the backend ablation sweeps, in row order: the honest
/// control plus the two channel attacks whose detection-rate curves the paper
/// plots (intercept-resend and MITM).
pub const ABLATION_ADVERSARIES: [&str; 3] = ["honest", "intercept-resend", "mitm"];

/// Runs the information-leakage audit (Section III-E): executes `sessions` honest sessions
/// with a fixed identity pair and audits the accumulated public transcripts.
pub fn leakage_experiment(sessions: usize, seed: u64) -> LeakageAudit {
    let mut rng = StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(4, &mut rng);
    let scenario =
        Scenario::new(attack_session_config(), identities.clone()).with_label("leakage-audit");
    let transcripts: Vec<_> = SessionEngine::new(seed)
        .with_parallelism(engine_parallelism())
        .run_outcomes(&scenario, sessions)
        .expect("honest session runs")
        .into_iter()
        .map(|outcome| outcome.transcript)
        .collect();
    LeakageAudit::with_identity(&transcripts, &identities.bob)
}

/// One row of the CHSH-estimation experiment: check-pair budget `d`, mean estimated `S` over
/// repetitions, and its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChshPoint {
    /// Number of check pairs per round.
    pub check_pairs: usize,
    /// Depolarizing noise applied to each pair before the check.
    pub depolarizing: f64,
    /// Mean estimated CHSH value.
    pub mean_chsh: f64,
    /// Standard deviation of the estimate across repetitions.
    pub std_dev: f64,
}

/// Estimates how the CHSH statistic behaves as a function of the check-pair budget `d` and the
/// pair noise level — the supporting experiment behind the choice of `d` ("several hundred to
/// a few thousand pairs", paper Section II step 1). Grid points run in parallel (see
/// [`engine_parallelism`]), each on its own derived seed.
pub fn chsh_baseline_experiment(
    d_values: &[usize],
    depolarizing_levels: &[f64],
    repetitions: usize,
    seed: u64,
) -> Vec<ChshPoint> {
    let grid: Vec<(f64, usize)> = depolarizing_levels
        .iter()
        .flat_map(|&p| d_values.iter().map(move |&d| (p, d)))
        .collect();
    let (points, _stats) = scatter(engine_parallelism(), grid.len(), |index| {
        let (p, d) = grid[index];
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, index as u64));
        let mut estimates = Vec::with_capacity(repetitions);
        for _ in 0..repetitions {
            let mut pairs: Vec<EprPair> = (0..d)
                .map(|_| {
                    let mut pair = EprPair::ideal();
                    if p > 0.0 {
                        noise::KrausChannel::depolarizing(p).apply(pair.density_mut(), &[0]);
                    }
                    pair
                })
                .collect();
            let (report, _) = run_di_check(DiCheckRound::First, &mut pairs, 2.0, &mut rng);
            if let Some(s) = report.chsh {
                estimates.push(s);
            }
        }
        let mean_chsh = mean(&estimates).unwrap_or(0.0);
        let std_dev = analysis::stats::population_std_dev(&estimates).unwrap_or(0.0);
        ChshPoint {
            check_pairs: d,
            depolarizing: p,
            mean_chsh,
            std_dev,
        }
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::{
        ablation_campaign, ablation_rows, attack_campaign, attack_rows, fig2_campaign, fig2_rows,
        fig3_campaign, fig3_points, figure_sampler,
    };
    use protocol::engine::{Campaign, CampaignReport};

    /// Runs a campaign the way the figure binaries do.
    fn run(campaign: Campaign) -> CampaignReport {
        campaign
            .run_direct(engine_parallelism(), &figure_sampler())
            .expect("campaign runs")
    }

    #[test]
    fn message_transfer_circuit_shape() {
        let c = message_transfer_circuit("10", 10);
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_clbits(), 2);
        // 2 prep + 1 encode + 10 channel + 2 BSM gates
        assert_eq!(c.gate_count(), 15);
    }

    #[test]
    #[should_panic(expected = "not a 2-bit message")]
    fn bad_message_panics() {
        let _ = message_transfer_circuit("0", 1);
    }

    #[test]
    fn decode_readout_maps_bell_states_to_messages() {
        let mut raw = Counts::new();
        raw.record_many("10", 5); // Φ− → message 01
        raw.record_many("01", 3); // Ψ+ → message 10
        let decoded = decode_readout_counts(&raw);
        assert_eq!(decoded.get("01"), 5);
        assert_eq!(decoded.get("10"), 3);
    }

    #[test]
    fn fig2_on_ideal_device_is_perfect() {
        let rows = fig2_rows(&run(fig2_campaign(&DeviceModel::ideal(), 10, 64, 1))).unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(
                row.accuracy(),
                1.0,
                "ideal device decodes {} perfectly",
                row.encoded
            );
            assert!((row.fidelity - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fig2_on_noisy_device_keeps_high_fidelity_at_eta_10() {
        let campaign = fig2_campaign(&DeviceModel::ibm_brisbane_like(), 10, 256, 2);
        let rows = fig2_rows(&run(campaign)).unwrap();
        for row in &rows {
            assert!(
                row.accuracy() > 0.85,
                "η=10 accuracy for {} should be ≥0.85, got {}",
                row.encoded,
                row.accuracy()
            );
        }
    }

    #[test]
    fn fig3_accuracy_decreases_with_channel_length() {
        let campaign = fig3_campaign(&DeviceModel::ibm_brisbane_like(), &[10, 700], 128, 3);
        let points = fig3_points(&run(campaign)).unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].accuracy > points[1].accuracy + 0.1);
        assert!((points[1].duration_us - 42.0).abs() < 1e-9);
    }

    #[test]
    fn fig3_eta_values_match_paper_sweep() {
        let etas = fig3_eta_values();
        assert_eq!(etas.len(), 70);
        assert_eq!(etas[0], 10);
        assert_eq!(*etas.last().unwrap(), 700);
    }

    #[test]
    fn table1_has_five_rows_and_one_ua_protocol() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().filter(|r| r.user_authentication).count(), 1);
    }

    #[test]
    fn impersonation_experiment_tracks_analytic_curve() {
        let points = impersonation_experiment(&[1, 4], Impersonation::OfBob, 40, 4);
        assert_eq!(points.len(), 2);
        assert!(points[0].analytic < points[1].analytic);
        for p in points {
            assert!(p.deviation() < 0.2);
        }
    }

    #[test]
    fn channel_attacks_are_detected_and_honest_control_delivers() {
        for kind in [
            ChannelAttackKind::InterceptResend,
            ChannelAttackKind::ManInTheMiddle,
            ChannelAttackKind::EntangleMeasure,
        ] {
            let report = run(attack_campaign(kind, BackendKind::DensityMatrix, 3, 5));
            let (attacked, honest) = attack_rows(&report).unwrap();
            assert_eq!(attacked.delivered, 0, "{kind:?} must never deliver");
            assert!(attacked.detection_rate > 0.99);
            assert_eq!(honest.delivered, 3);
        }
    }

    #[test]
    fn channel_attack_campaign_runs_on_every_backend() {
        for backend in BackendKind::ALL {
            let report = run(attack_campaign(
                ChannelAttackKind::InterceptResend,
                backend,
                3,
                8,
            ));
            let (attacked, honest) = attack_rows(&report).unwrap();
            assert_eq!(attacked.delivered, 0, "{backend} must detect the attack");
            assert!(attacked.detection_rate > 0.99, "{backend}");
            assert_eq!(honest.delivered, 3, "{backend} honest control delivers");
        }
    }

    #[test]
    fn backend_ablation_covers_the_full_grid() {
        let rows = ablation_rows(&run(ablation_campaign(&[0], 3, 9))).unwrap();
        // One η × three adversaries × every backend.
        assert_eq!(
            rows.len(),
            ABLATION_ADVERSARIES.len() * BackendKind::ALL.len()
        );
        for group in rows.chunks(BackendKind::ALL.len()) {
            for (row, kind) in group.iter().zip(BackendKind::ALL) {
                assert_eq!(row.adversary, group[0].adversary);
                assert_eq!(row.eta, group[0].eta);
                assert_eq!(row.backend, kind);
            }
        }
        for row in &rows {
            assert_eq!(row.trials, 3);
            match row.adversary {
                "honest" => assert_eq!(
                    row.delivered, 3,
                    "honest control must deliver on {}",
                    row.backend
                ),
                _ => assert!(
                    row.detection_rate > 0.99,
                    "{} on {} must be detected",
                    row.adversary,
                    row.backend
                ),
            }
        }
    }

    #[test]
    fn leakage_experiment_is_clean() {
        // Few sessions keep the test fast; the finite-sample bias of the plug-in mutual
        // information estimator with 12×4 samples is ≈ 0.14 bits, so the bound is loose here
        // (the attack_leakage binary runs 40 sessions and lands near zero).
        let audit = leakage_experiment(12, 6);
        assert!(audit.structurally_clean());
        assert!(audit.bell_distribution_bias() < 0.25);
        assert!(audit.mutual_information_with_id_b.unwrap() < 0.45);
    }

    #[test]
    fn chsh_baseline_mean_tracks_noise_level() {
        let points = chsh_baseline_experiment(&[200], &[0.0, 0.3], 3, 7);
        assert_eq!(points.len(), 2);
        assert!(points[0].mean_chsh > points[1].mean_chsh);
        assert!(points[0].mean_chsh > 2.4);
        assert!(points[0].std_dev >= 0.0);
    }
}
