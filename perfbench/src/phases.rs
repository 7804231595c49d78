//! The phase driver: one session driven through the same public calls the
//! engine's six-phase session body makes, in the same order, with a span
//! around each phase. Every driven session is checked against
//! `SessionEngine::run_with` on an identically seeded RNG, so the phase
//! spans time the real code path; `protocol.phase.sum_ratio` is the
//! driver's summed phase time over the time `run_with` takes for the same
//! sessions.
//!
//! The driver replays `SessionEngine::run_with`: it compiles the noise
//! program (counted in `emission`) and then runs the session body. Outcome
//! assembly at an abort counts in the phase that aborted.

use crate::derive;
use crate::metrics::{RunResult, PHASES};
use crate::trace::{self, Tracer};
use protocol::auth;
use protocol::di_check::{run_di_check_at, DiCheckReport, DiCheckRound};
use protocol::engine::{
    Backend, BackendKind, DensityMatrixBackend, PauliTwirledBackend, SessionEngine,
    StatevectorBackend,
};
use protocol::identity::IdentityPair;
use protocol::message::{PaddedMessage, SecretMessage};
use protocol::session::{AbortStage, Impersonation, ResourceUsage, SessionOutcome, SessionStatus};
use protocol::{ProtocolError, SessionConfig};
use qchannel::classical::{ClassicalChannel, ClassicalMessage, Party};
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qchannel::quantum::ChannelTap;
use qsim::bell::BellState;
use qsim::pauli::Pauli;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions driven per campaign point.
const TRIALS_PER_POINT: u64 = 2;

/// Span names of the seven phases, in [`PHASES`] order.
const PHASE_SPANS: [&str; 7] = [
    "protocol.phase.emission",
    "protocol.phase.di_check1",
    "protocol.phase.encode",
    "protocol.phase.transmission",
    "protocol.phase.auth",
    "protocol.phase.di_check2",
    "protocol.phase.decode",
];

/// Closes consecutive phase spans under one session span.
struct PhaseClock<'a> {
    tracer: &'a Tracer,
    session: u64,
    job: u64,
    since: Instant,
}

impl PhaseClock<'_> {
    fn mark(&mut self, phase: usize) {
        let now = Instant::now();
        self.tracer
            .record(PHASE_SPANS[phase], self.session, self.job, self.since, now);
        self.since = now;
    }
}

/// Inputs of one driven session.
pub struct SessionInputs<'a> {
    /// Backend the session runs on.
    pub backend: &'a dyn Backend,
    /// Session configuration.
    pub config: &'a SessionConfig,
    /// The parties' identities.
    pub identities: &'a IdentityPair,
    /// Alice's message.
    pub message: &'a SecretMessage,
    /// Who, if anyone, is impersonated.
    pub impersonation: Impersonation,
}

/// Drives one session phase by phase: the body of `SessionEngine::run_with`
/// through public calls only, with a span per phase under `session`.
///
/// # Errors
///
/// The configuration errors `run_with` reports.
pub fn drive_session<R: Rng>(
    tracer: &Tracer,
    session: u64,
    job: u64,
    inputs: &SessionInputs<'_>,
    tap: &mut dyn ChannelTap,
    rng: &mut R,
    pairs: &mut Vec<EprPair>,
) -> Result<SessionOutcome, ProtocolError> {
    let mut clock = PhaseClock {
        tracer,
        session,
        job,
        since: Instant::now(),
    };
    let SessionInputs {
        backend,
        config,
        identities,
        message,
        impersonation,
    } = *inputs;
    let channel = CompiledQuantumChannel::from(config.channel().clone());
    if message.len() != config.message_bits() {
        return Err(ProtocolError::MessageLengthMismatch {
            expected: config.message_bits(),
            actual: message.len(),
        });
    }
    let l = identities.qubit_len();
    let d = config.di_check_pairs();
    let padded = PaddedMessage::embed(message, config.check_bits(), rng)?;
    let n_qubits = padded.qubit_len();
    let total_pairs = n_qubits + 2 * l + 2 * d;
    let classical = ClassicalChannel::new();
    let resources = ResourceUsage {
        total_pairs,
        message_pairs: n_qubits,
        identity_pairs: 2 * l,
        check_pairs: 2 * d,
        transmitted_qubits: total_pairs - d,
        classical_messages: 0,
        qubits_per_message_bit: n_qubits as f64 / padded.len() as f64 * 2.0,
    };
    let finish = |status: SessionStatus,
                  r1: Option<DiCheckReport>,
                  r2: Option<DiCheckReport>,
                  bob_auth: Option<auth::AuthReport>,
                  alice_auth: Option<auth::AuthReport>,
                  received: Option<SecretMessage>,
                  check_err: Option<f64>,
                  classical: &ClassicalChannel| {
        let transcript = classical.snapshot();
        let mut resources = resources;
        resources.classical_messages = transcript.len();
        let message_bit_error_rate = received.as_ref().map(|r| message.bit_error_rate(r));
        SessionOutcome {
            status,
            di_check_round1: r1,
            di_check_round2: r2,
            bob_auth,
            alice_auth,
            sent_message: message.clone(),
            received_message: received,
            check_bit_error_rate: check_err,
            message_bit_error_rate,
            transcript,
            resources,
        }
    };
    let aborted = |stage: AbortStage, reason: String| SessionStatus::Aborted { stage, reason };

    // Phase 1: entanglement sharing.
    if pairs.len() < total_pairs {
        pairs.resize_with(total_pairs, EprPair::ideal);
    } else {
        pairs.truncate(total_pairs);
    }
    for pair in pairs.iter_mut() {
        backend.emit_pair_into(pair, &channel, tap, rng);
    }
    clock.mark(0);

    // Phase 2: first DI check.
    let mut all_positions: Vec<usize> = (0..total_pairs).collect();
    all_positions.shuffle(rng);
    let check1_positions: Vec<usize> = all_positions[..d].to_vec();
    let remaining_positions: Vec<usize> = all_positions[d..].to_vec();
    classical.send(
        Party::Alice,
        ClassicalMessage::Positions {
            purpose: "di-check-1".into(),
            positions: check1_positions.clone(),
        },
    );
    let (report1, records1) = run_di_check_at(
        DiCheckRound::First,
        pairs,
        &check1_positions,
        config.chsh_abort_threshold(),
        rng,
    );
    classical.send(
        Party::Alice,
        ClassicalMessage::BasisChoices {
            round: 1,
            settings: records1
                .iter()
                .map(|r| (r.alice_setting, r.bob_setting))
                .collect(),
        },
    );
    classical.send(
        Party::Bob,
        ClassicalMessage::CheckOutcomes {
            round: 1,
            outcomes: records1
                .iter()
                .map(|r| (r.alice_outcome.to_bit(), r.bob_outcome.to_bit()))
                .collect(),
        },
    );
    if !report1.passed {
        classical.send(
            Party::Alice,
            ClassicalMessage::Abort {
                reason: format!("first DI check failed: {report1}"),
            },
        );
        let status = aborted(AbortStage::DiCheck1, report1.to_string());
        let outcome = finish(
            status,
            Some(report1),
            None,
            None,
            None,
            None,
            None,
            &classical,
        );
        clock.mark(1);
        return Ok(outcome);
    }
    clock.mark(1);

    // Phase 3: Alice's encoding.
    let mut rest = remaining_positions;
    rest.shuffle(rng);
    let check2_positions: Vec<usize> = rest[..d].to_vec();
    let ma_positions: Vec<usize> = rest[d..d + n_qubits].to_vec();
    let ca_positions: Vec<usize> = rest[d + n_qubits..d + n_qubits + l].to_vec();
    let da_positions: Vec<usize> = rest[d + n_qubits + l..d + n_qubits + 2 * l].to_vec();
    for (pauli, &pos) in padded.as_paulis().iter().zip(&ma_positions) {
        pairs[pos].apply_alice_pauli(*pauli);
    }
    let ida_paulis: Vec<Pauli> = if impersonation == Impersonation::OfAlice {
        (0..l).map(|_| Pauli::random(rng)).collect()
    } else {
        identities.alice.as_paulis()
    };
    for (pauli, &pos) in ida_paulis.iter().zip(&ca_positions) {
        pairs[pos].apply_alice_pauli(*pauli);
    }
    let covers: Vec<Pauli> = (0..l).map(|_| Pauli::random(rng)).collect();
    for (cover, &pos) in covers.iter().zip(&da_positions) {
        pairs[pos].apply_alice_pauli(*cover);
    }
    clock.mark(2);

    // Phase 4: transmission.
    for &pos in check2_positions
        .iter()
        .chain(&ma_positions)
        .chain(&ca_positions)
        .chain(&da_positions)
    {
        backend.transmit(&channel, &mut pairs[pos], tap, rng);
    }
    clock.mark(3);

    // Phase 4b: mutual authentication.
    classical.send(
        Party::Alice,
        ClassicalMessage::Positions {
            purpose: "DA".into(),
            positions: da_positions.clone(),
        },
    );
    let idb_paulis: Vec<Pauli> = if impersonation == Impersonation::OfBob {
        (0..l).map(|_| Pauli::random(rng)).collect()
    } else {
        identities.bob.as_paulis()
    };
    let mut announced: Vec<BellState> = Vec::with_capacity(l);
    for (pauli, &pos) in idb_paulis.iter().zip(&da_positions) {
        pairs[pos].apply_bob_pauli(*pauli);
        announced.push(pairs[pos].bell_measure(rng).state);
    }
    classical.send(
        Party::Bob,
        ClassicalMessage::BellResults {
            block: "DB-auth".into(),
            results: announced
                .iter()
                .map(|s| s.encoding_pauli().to_index())
                .collect(),
        },
    );
    let bob_report = auth::verify_bob(
        &announced,
        &covers,
        &identities.bob,
        config.auth_error_tolerance(),
    );
    if impersonation != Impersonation::OfAlice && !bob_report.passed() {
        classical.send(
            Party::Alice,
            ClassicalMessage::Abort {
                reason: format!("Bob authentication failed: {bob_report}"),
            },
        );
        let status = aborted(AbortStage::BobAuthentication, bob_report.to_string());
        let outcome = finish(
            status,
            Some(report1),
            None,
            Some(bob_report),
            None,
            None,
            None,
            &classical,
        );
        clock.mark(4);
        return Ok(outcome);
    }
    classical.send(
        Party::Alice,
        ClassicalMessage::Positions {
            purpose: "CA".into(),
            positions: ca_positions.clone(),
        },
    );
    let mut measured_ca: Vec<BellState> = Vec::with_capacity(l);
    for &pos in &ca_positions {
        measured_ca.push(pairs[pos].bell_measure(rng).state);
    }
    let alice_report = auth::verify_alice(
        &measured_ca,
        &identities.alice,
        config.auth_error_tolerance(),
    );
    if impersonation != Impersonation::OfBob && !alice_report.passed() {
        classical.send(
            Party::Bob,
            ClassicalMessage::Abort {
                reason: format!("Alice authentication failed: {alice_report}"),
            },
        );
        let status = aborted(AbortStage::AliceAuthentication, alice_report.to_string());
        let outcome = finish(
            status,
            Some(report1),
            None,
            Some(bob_report),
            Some(alice_report),
            None,
            None,
            &classical,
        );
        clock.mark(4);
        return Ok(outcome);
    }
    classical.send(
        Party::Bob,
        ClassicalMessage::Ack {
            phase: "authentication".into(),
        },
    );
    clock.mark(4);

    // Phase 5: second DI check.
    classical.send(
        Party::Alice,
        ClassicalMessage::Positions {
            purpose: "di-check-2".into(),
            positions: check2_positions.clone(),
        },
    );
    let (report2, _records2) = run_di_check_at(
        DiCheckRound::Second,
        pairs,
        &check2_positions,
        config.chsh_abort_threshold(),
        rng,
    );
    classical.send(
        Party::Bob,
        ClassicalMessage::Ack {
            phase: "di-check-2".into(),
        },
    );
    if !report2.passed {
        classical.send(
            Party::Bob,
            ClassicalMessage::Abort {
                reason: format!("second DI check failed: {report2}"),
            },
        );
        let status = aborted(AbortStage::DiCheck2, report2.to_string());
        let outcome = finish(
            status,
            Some(report1),
            Some(report2),
            Some(bob_report),
            Some(alice_report),
            None,
            None,
            &classical,
        );
        clock.mark(5);
        return Ok(outcome);
    }
    clock.mark(5);

    // Phase 6: decoding.
    let mut received_paulis: Vec<Pauli> = Vec::with_capacity(n_qubits);
    for &pos in &ma_positions {
        received_paulis.push(pairs[pos].bell_measure(rng).state.encoding_pauli());
    }
    let received_bits = PaddedMessage::bits_from_paulis(&received_paulis);
    classical.send(
        Party::Alice,
        ClassicalMessage::CheckBitsReveal {
            positions: padded.check_positions().to_vec(),
            values: padded.check_values().to_vec(),
        },
    );
    let check_error = padded.check_bit_error_rate(&received_bits);
    let outcome = if check_error > config.check_bit_error_tolerance() {
        classical.send(
            Party::Bob,
            ClassicalMessage::Abort {
                reason: format!("check-bit error rate {check_error:.3} exceeds tolerance"),
            },
        );
        let status = aborted(
            AbortStage::IntegrityCheck,
            format!("check-bit error rate {check_error:.3}"),
        );
        finish(
            status,
            Some(report1),
            Some(report2),
            Some(bob_report),
            Some(alice_report),
            None,
            Some(check_error),
            &classical,
        )
    } else {
        let received_message = padded.extract_message(&received_bits);
        classical.send(
            Party::Bob,
            ClassicalMessage::Ack {
                phase: "message-received".into(),
            },
        );
        finish(
            SessionStatus::Delivered,
            Some(report1),
            Some(report2),
            Some(bob_report),
            Some(alice_report),
            Some(received_message),
            Some(check_error),
            &classical,
        )
    };
    clock.mark(6);
    Ok(outcome)
}

/// The fixed backend override that makes `run_with` use `kind`.
fn backend_of(kind: BackendKind) -> Arc<dyn Backend> {
    match kind {
        BackendKind::DensityMatrix => Arc::new(DensityMatrixBackend),
        BackendKind::Statevector => Arc::new(StatevectorBackend),
        BackendKind::PauliTwirled => Arc::new(PauliTwirledBackend),
    }
}

/// Drives [`TRIALS_PER_POINT`] sessions of every ablation-campaign point
/// through the driver and through `run_with`, and reports the per-phase
/// time per session by substrate and honest/attacked, plus the sum ratio.
/// Returns the tracer holding the session and phase spans.
pub fn measure(seed: u64, result: &mut RunResult) -> Tracer {
    let tracer = Tracer::new(true);
    let points = crate::campaign::load(seed)
        .expand()
        .expect("campaign expands");
    let mut sessions: BTreeMap<(&'static str, bool), u64> = BTreeMap::new();
    let mut group_of_session: BTreeMap<u64, (&'static str, bool)> = BTreeMap::new();
    let mut real_path = Duration::ZERO;
    let mut pairs = Vec::new();
    for point in &points {
        let scenario = point.scenario.as_ref().expect("session point");
        let backend = backend_of(scenario.backend);
        let engine = SessionEngine::new(seed).with_backend(Arc::clone(&backend));
        let honest = scenario.adversary == protocol::engine::Adversary::Honest;
        for trial in 0..TRIALS_PER_POINT {
            let job = point.index as u64 * TRIALS_PER_POINT + trial;
            let mut rng = StdRng::seed_from_u64(derive(seed, job));
            let message = SecretMessage::random(scenario.config.message_bits(), &mut rng);
            let inputs = SessionInputs {
                backend: backend.as_ref(),
                config: &scenario.config,
                identities: &scenario.identities,
                message: &message,
                impersonation: scenario.adversary.impersonation(),
            };
            let real = || {
                let mut tap = scenario.adversary.make_tap();
                let mut rng = rng.clone();
                let start = Instant::now();
                let outcome = engine.run_with(
                    &scenario.config,
                    &scenario.identities,
                    &message,
                    inputs.impersonation,
                    tap.as_mut(),
                    &mut rng,
                );
                (outcome, start.elapsed())
            };
            let driven = |pairs: &mut Vec<EprPair>| {
                let mut tap = scenario.adversary.make_tap();
                let mut rng = rng.clone();
                tracer.span("protocol.session", 0, job, |session| {
                    drive_session(
                        &tracer,
                        session,
                        job,
                        &inputs,
                        tap.as_mut(),
                        &mut rng,
                        pairs,
                    )
                })
            };
            // Alternate which path runs first so neither always meets warm caches.
            let (want, took, got) = if trial % 2 == 0 {
                let (want, took) = real();
                (want, took, driven(&mut pairs))
            } else {
                let got = driven(&mut pairs);
                let (want, took) = real();
                (want, took, got)
            };
            real_path += took;
            let ok = matches!((&want, &got), (Ok(w), Ok(g)) if w == g);
            result.check(ok);
            let group = (scenario.backend.as_str(), honest);
            *sessions.entry(group).or_insert(0) += 1;
            group_of_session.insert(job, group);
        }
    }

    let spans = tracer.spans();
    let mut phase_ns: BTreeMap<((&str, bool), &str), u64> = BTreeMap::new();
    let mut phase_total = 0u64;
    for span in spans
        .iter()
        .filter(|s| s.name.starts_with("protocol.phase."))
    {
        let group = group_of_session[&span.job];
        *phase_ns.entry((group, span.name)).or_insert(0) += span.duration_ns();
        phase_total += span.duration_ns();
    }
    for name in BackendKind::ALL.map(BackendKind::as_str) {
        for honest in [true, false] {
            let count = sessions.get(&(name, honest)).copied().unwrap_or(0).max(1) as f64;
            let phases = if honest { &PHASES[..] } else { &PHASES[..2] };
            for (phase, span) in phases.iter().zip(PHASE_SPANS) {
                let ns = phase_ns.get(&((name, honest), span)).copied().unwrap_or(0) as f64;
                let group = if honest { "honest" } else { "attacked" };
                result.metrics.set(
                    format!("protocol.phase.{phase}_us.{name}.{group}"),
                    ns / count / 1e3,
                    "us",
                );
            }
        }
    }
    result.metrics.set(
        "protocol.phase.sum_ratio",
        phase_total as f64 / real_path.as_nanos() as f64,
        "ratio",
    );
    let session_spans = trace::total_ns_by_name(&spans);
    result.detail("phase_driver_sessions", sessions.values().sum::<u64>());
    result.detail(
        "phase_driver_session_span_s",
        session_spans.get("protocol.session").copied().unwrap_or(0) as f64 / 1e9,
    );
    result.detail("phase_driver_run_with_s", real_path.as_secs_f64());
    tracer
}
