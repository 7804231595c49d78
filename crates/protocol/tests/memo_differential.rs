//! Differential test of the exact substrates against the uncompiled path.
//!
//! The compiled substrates precompute density emission, tabulate the first
//! trajectory step, and run transmission and trajectory steps through
//! per-thread exact-input memos. This file assembles a reference [`Backend`]
//! from the one-shot calls those optimisations replace:
//! [`EprPair::from_noisy_source`], [`QuantumChannel::transmit_tapped`] and
//! [`StateVector::apply_kraus_sampled`] with each placement's operators. It
//! then requires, for every adversary × η × exact substrate × seed, that
//! every [`SessionOutcome`] serialises to the same bytes under both engines,
//! and — since an outcome rarely notices a low-order bit — that every
//! emitted and transmitted pair is equal by `f64::to_bits`, with the RNG
//! streams still aligned.
//!
//! The CI `determinism` job runs this file with `UA_DI_QSDC_PARALLELISM` set
//! to `serial`, `threads:2` and `threads:8`. The memos are per thread, so the
//! thread matrix is what exercises warm, cold and shared-nothing memos.

use noise::compiled::CompiledChannel;
use protocol::engine::{Adversary, Backend, BackendKind, Parallelism, Scenario, SessionEngine};
use protocol::identity::IdentityPair;
use protocol::{SessionConfig, SessionOutcome};
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qchannel::quantum::{ChannelSpec, ChannelTap, QuantumChannel};
use qchannel::taps::{InterceptBasis, SubstituteState};
use qsim::bell::BellState;
use qsim::density::DensityMatrix;
use qsim::statevector::StateVector;
use rand::{RngCore, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

/// The reference substrates, rebuilt from the one-shot calls. Only the
/// placements' operators and targets are read from the compiled channel;
/// every application runs through the uncompiled methods.
#[derive(Debug)]
struct OneShot {
    /// `true` for sampled pure-state trajectories, `false` for exact density
    /// matrices.
    trajectories: bool,
}

/// The purity tolerance of the statevector backend's pure-state extraction.
const PURITY_TOL: f64 = 1e-9;

fn sample_pure(psi: &mut StateVector, placement: &CompiledChannel, rng: &mut dyn RngCore) {
    psi.apply_kraus_sampled(
        placement.source_channel().operators(),
        placement.targets(),
        rng,
    )
    .expect("trajectory step on a normalised pair");
}

fn sample_mixed(rho: &mut DensityMatrix, placement: &CompiledChannel, rng: &mut dyn RngCore) {
    rho.apply_kraus_sampled(
        placement.source_channel().operators(),
        placement.targets(),
        rng,
    )
    .expect("trajectory step on a unit-trace pair");
}

impl Backend for OneShot {
    fn name(&self) -> &str {
        if self.trajectories {
            "one-shot statevector"
        } else {
            "one-shot density-matrix"
        }
    }

    fn emit_pair(
        &self,
        channel: &CompiledQuantumChannel,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) -> EprPair {
        let mut pair = if self.trajectories {
            let mut psi = BellState::PhiPlus.statevector();
            for placement in [channel.source(), channel.prep_alice(), channel.prep_bob()]
                .into_iter()
                .flatten()
            {
                sample_pure(&mut psi, placement, rng);
            }
            EprPair::from_density(DensityMatrix::from_statevector(&psi))
        } else {
            EprPair::from_noisy_source(channel.spec().device())
        };
        QuantumChannel::new(channel.spec().clone()).distribute_tapped(&mut pair, tap, rng);
        pair
    }

    fn transmit(
        &self,
        channel: &CompiledQuantumChannel,
        pair: &mut EprPair,
        tap: &mut dyn ChannelTap,
        rng: &mut dyn RngCore,
    ) {
        if !self.trajectories {
            QuantumChannel::new(channel.spec().clone()).transmit_tapped(pair, tap, rng);
            return;
        }
        tap.on_transmit(pair, rng);
        let length = channel.spec().length();
        let Some(gate) = channel.gate_alice().filter(|_| length > 0) else {
            return;
        };
        let placements = [Some(gate), channel.idle_bob()];
        match pair.density().as_pure_state(PURITY_TOL) {
            Some(mut psi) => {
                for _ in 0..length {
                    for placement in placements.iter().flatten() {
                        sample_pure(&mut psi, placement, rng);
                    }
                }
                *pair = EprPair::from_density(DensityMatrix::from_statevector(&psi));
            }
            None => {
                for _ in 0..length {
                    for placement in placements.iter().flatten() {
                        sample_mixed(pair.density_mut(), placement, rng);
                    }
                }
            }
        }
    }
}

/// The parallelism mode under test: taken from `UA_DI_QSDC_PARALLELISM`
/// when set (as the CI determinism matrix does), serial otherwise.
fn env_parallelism() -> Parallelism {
    Parallelism::from_env().unwrap_or(Parallelism::Serial)
}

fn scenario(adversary: Adversary, eta: usize, backend: BackendKind, seed: u64) -> Scenario {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let identities = IdentityPair::generate(2, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(4)
        .check_bits(2)
        .di_check_pairs(16)
        .auth_error_tolerance(1.0)
        .channel(ChannelSpec::noisy_identity_chain(
            eta,
            noise::DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("differential config is valid");
    Scenario::new(config, identities)
        .with_adversary(adversary)
        .with_backend(backend)
}

fn adversaries() -> [Adversary; 4] {
    [
        Adversary::Honest,
        Adversary::InterceptResend(InterceptBasis::RandomPerQubit),
        Adversary::ManInTheMiddle(SubstituteState::RandomBb84),
        Adversary::EntangleMeasure { strength: 0.5 },
    ]
}

/// The exact substrates, each with its one-shot reference.
const SUBSTRATES: [(BackendKind, OneShot); 2] = [
    (
        BackendKind::DensityMatrix,
        OneShot {
            trajectories: false,
        },
    ),
    (BackendKind::Statevector, OneShot { trajectories: true }),
];

fn density_bits(pair: &EprPair) -> Vec<(u64, u64)> {
    pair.density()
        .matrix()
        .as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn outcome_bytes(outcomes: &[SessionOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|outcome| serde::json::to_string(&outcome.to_value()))
        .collect()
}

#[test]
fn memoised_sessions_match_the_uncompiled_path() {
    let parallelism = env_parallelism();
    for (kind, one_shot) in SUBSTRATES {
        let one_shot = Arc::new(one_shot);
        for eta in [0, 10, 50] {
            for adversary in adversaries() {
                for seed in [3, 41] {
                    let scenario = scenario(adversary.clone(), eta, kind, seed);
                    let memoised = SessionEngine::new(seed)
                        .with_parallelism(parallelism)
                        .run_outcomes(&scenario, 6)
                        .expect("memoised run");
                    let reference = SessionEngine::new(seed)
                        .with_parallelism(parallelism)
                        .with_backend(one_shot.clone())
                        .run_outcomes(&scenario, 6)
                        .expect("one-shot run");
                    assert_eq!(
                        outcome_bytes(&memoised),
                        outcome_bytes(&reference),
                        "{kind} η={eta} {} seed {seed}: the memoised engine diverged \
                         from the uncompiled path",
                        adversary.name()
                    );
                }
            }
        }
    }
}

#[test]
fn memoised_pairs_are_bit_identical_to_the_uncompiled_path() {
    for (kind, one_shot) in SUBSTRATES {
        let backend = kind.backend();
        for eta in [0, 10, 50] {
            let spec =
                ChannelSpec::noisy_identity_chain(eta, noise::DeviceModel::ibm_brisbane_like());
            let channel = QuantumChannel::new(spec).compile();
            for adversary in adversaries() {
                for seed in [3, 41] {
                    let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut rng_slow = rand::rngs::StdRng::seed_from_u64(seed);
                    let (mut tap_fast, mut tap_slow) = (adversary.make_tap(), adversary.make_tap());
                    // One pooled slot, reused across pairs as the engine does.
                    let mut fast = EprPair::ideal();
                    for index in 0..40 {
                        backend.emit_pair_into(
                            &mut fast,
                            &channel,
                            tap_fast.as_mut(),
                            &mut rng_fast,
                        );
                        let mut slow =
                            one_shot.emit_pair(&channel, tap_slow.as_mut(), &mut rng_slow);
                        backend.transmit(&channel, &mut fast, tap_fast.as_mut(), &mut rng_fast);
                        one_shot.transmit(&channel, &mut slow, tap_slow.as_mut(), &mut rng_slow);
                        assert_eq!(
                            density_bits(&fast),
                            density_bits(&slow),
                            "{kind} η={eta} {} seed {seed}: pair {index} diverged",
                            adversary.name()
                        );
                    }
                    assert_eq!(
                        rng_fast.next_u64(),
                        rng_slow.next_u64(),
                        "{kind} η={eta} {} seed {seed}: RNG streams diverged",
                        adversary.name()
                    );
                }
            }
        }
    }
}
