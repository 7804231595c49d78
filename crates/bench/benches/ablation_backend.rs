//! Ablation: statevector vs density-matrix execution, at two levels.
//!
//! *Circuit level*: the Fig. 2/3 message-transfer circuit sampled on the ideal
//! statevector simulator vs the noisy density-matrix executor.
//!
//! *Session level*: full engine sessions on the two production [`Backend`]s —
//! the exact [`DensityMatrixBackend`] emulation vs the sampled
//! [`StatevectorBackend`], which *can* represent the noise channels by
//! Born-sampling one Kraus branch per application (Monte-Carlo wavefunction
//! trajectories). The `ablation_backend` *binary* quantifies where the
//! sampled substrate's detection-rate curves diverge; this bench quantifies
//! what the cheaper substrate buys in wall time.
//!
//! [`Backend`]: protocol::engine::Backend
//! [`DensityMatrixBackend`]: protocol::engine::DensityMatrixBackend
//! [`StatevectorBackend`]: protocol::engine::StatevectorBackend

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noise::{DeviceModel, NoisyExecutor};
use protocol::engine::{BackendKind, Scenario, SessionEngine};
use protocol::identity::IdentityPair;
use protocol::SessionConfig;
use qchannel::quantum::ChannelSpec;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_backend");
    group.sample_size(10);
    for eta in [10usize, 200] {
        let circuit = bench::message_transfer_circuit("10", eta);
        group.bench_with_input(
            BenchmarkId::new("statevector_ideal", eta),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                    black_box(circuit.sample(32, &mut rng).unwrap())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("density_matrix_noisy", eta),
            &circuit,
            |b, circuit| {
                let executor = NoisyExecutor::new(DeviceModel::ibm_brisbane_like());
                b.iter(|| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                    black_box(executor.sample(circuit, 32, &mut rng).unwrap())
                });
            },
        );
    }
    group.finish();
}

fn bench_session_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_backend_session");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(24)
        .channel(ChannelSpec::noisy_identity_chain(
            10,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()
        .expect("bench config is valid");
    for kind in BackendKind::ALL {
        let scenario = Scenario::new(config.clone(), identities.clone())
            .with_label(format!("bench-{kind}"))
            .with_backend(kind);
        group.bench_with_input(
            BenchmarkId::new("noisy_session", kind.as_str()),
            &scenario,
            |b, scenario| {
                let engine = SessionEngine::new(3);
                b.iter(|| black_box(engine.run_nth(scenario, 0).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_session_backends);
criterion_main!(benches);
