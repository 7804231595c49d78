//! Kernel micro-lanes: `qsim::kernel` (through `noise::compiled`),
//! `noise::twirl` and `qchannel::epr`, on the campaign's device at
//! η = 50 — the placement the density-matrix and statevector points spend
//! their time in.

use crate::metrics::RunResult;
use crate::stats::{median, median_ns_per_call};
use protocol::engine::{Adversary, BackendKind, Scenario};
use protocol::session::ResourceUsage;
use qchannel::compiled::CompiledQuantumChannel;
use qchannel::epr::EprPair;
use qsim::bell::BellState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Channel length the kernel lanes and the kernel-call counts refer to.
pub const ETA: usize = 50;

/// Timed rounds per lane; the lane reports the median round.
const ROUNDS: usize = 15;

/// Calls per timed round.
const CALLS: usize = 2_000;

/// The ablation campaign's honest point at η = [`ETA`].
pub fn honest_eta_scenario() -> Scenario {
    crate::campaign::load(0)
        .expand()
        .expect("campaign expands")
        .into_iter()
        .filter_map(|point| point.scenario)
        .find(|s| s.config.channel().length() == ETA && s.adversary == Adversary::Honest)
        .expect("the ablation campaign has an honest point at η = 50")
}

/// Bytes one dim-4 `CompiledKraus::apply` reads and writes, *computed*
/// from the kernel's structure: per operator it reads ρ and K† (16
/// complex each) and reads and writes the product, term and accumulator
/// buffers; the result is then copied back into ρ.
pub fn kraus_apply_bytes(operators: usize) -> f64 {
    const MATRIX: usize = 16 * 16; // 16 complex entries of 16 bytes
    (operators * (2 * MATRIX + 3 * 2 * MATRIX) + 2 * MATRIX) as f64
}

/// Kernel applications one honest session at η makes on `backend`,
/// *computed* from `ResourceUsage::planned`: the exact substrates apply
/// every emission placement per pair and the gate (and idle) placement η
/// times per transmitted qubit; the twirled substrate samples one
/// collapsed distribution per emitted pair and per transmitted qubit.
pub fn kernel_calls_per_session(
    scenario: &Scenario,
    channel: &CompiledQuantumChannel,
    backend: BackendKind,
) -> f64 {
    let planned = ResourceUsage::planned(&scenario.config, scenario.identities.qubit_len());
    let count = |placement: Option<&_>| usize::from(placement.is_some());
    let emission =
        count(channel.source()) + count(channel.prep_alice()) + count(channel.prep_bob());
    let per_gate = count(channel.gate_alice()) + count(channel.idle_bob());
    let length = channel.spec().length();
    match backend {
        BackendKind::PauliTwirled => (planned.total_pairs + planned.transmitted_qubits) as f64,
        BackendKind::DensityMatrix | BackendKind::Statevector => {
            (planned.total_pairs * emission + planned.transmitted_qubits * length * per_gate) as f64
        }
    }
}

/// Runs every kernel lane.
pub fn measure(result: &mut RunResult) {
    let scenario = honest_eta_scenario();
    let channel = CompiledQuantumChannel::from(scenario.config.channel().clone());
    let gate = channel
        .gate_alice()
        .expect("the campaign's device is noisy");
    let mut rng = StdRng::seed_from_u64(0x6b65_726e_656c);

    let mut pair = channel.emit_noisy_pair();
    // Warm the thread-local scratch arena before timing.
    gate.apply(pair.density_mut());
    let ns = median_ns_per_call(ROUNDS, CALLS, || {
        for _ in 0..CALLS {
            gate.apply(black_box(pair.density_mut()));
        }
    });
    result.metrics.set("qsim.kraus_apply_ns", ns, "ns");
    result.metrics.set(
        "qsim.kraus_apply_bytes",
        kraus_apply_bytes(gate.num_branches()),
        "B",
    );

    let mut psi = BellState::PhiPlus.statevector();
    let ns = median_ns_per_call(ROUNDS, CALLS, || {
        for _ in 0..CALLS {
            black_box(
                gate.sample(&mut psi, &mut rng)
                    .expect("normalised trajectory"),
            );
        }
    });
    result.metrics.set("qsim.statevector_sample_ns", ns, "ns");

    let twirled = gate.twirl();
    let ns = median_ns_per_call(ROUNDS, CALLS, || {
        for _ in 0..CALLS {
            black_box(twirled.sample_frame_kick(&mut rng));
        }
    });
    result.metrics.set("noise.twirl_sample_ns", ns, "ns");

    let fresh = channel.emit_noisy_pair();
    let bell = measure_on_copies(&fresh, |p, rng| {
        black_box(p.bell_measure(rng));
    });
    result.metrics.set("qchannel.bell_measure_ns", bell, "ns");
    let basis = measure_on_copies(&fresh, |p, rng| {
        black_box(p.measure_both_in_bases(0.0, std::f64::consts::FRAC_PI_4, rng));
    });
    result.metrics.set("qchannel.basis_measure_ns", basis, "ns");

    for kind in BackendKind::ALL {
        result.metrics.set(
            format!("qchannel.kernel_calls_per_session.{kind}"),
            kernel_calls_per_session(&scenario, &channel, kind),
            "count",
        );
    }
}

/// Median nanoseconds of one destructive measurement, timed over batches of
/// fresh copies of `pair` (copying happens outside the timed region).
fn measure_on_copies(pair: &EprPair, mut op: impl FnMut(&mut EprPair, &mut StdRng)) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x6d65_6173);
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut copies = vec![pair.clone(); CALLS];
            let start = Instant::now();
            for copy in &mut copies {
                op(copy, &mut rng);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&samples)
}
