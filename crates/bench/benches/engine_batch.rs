//! Criterion bench for the engine over a batch of scenarios: the legacy per-call shape versus
//! `SessionEngine::run_trials` per scenario, and serial versus `Threads(2)`, `Threads(4)` and
//! `Threads(8)` fan-out over the standard scenario mix, so the speedup from multi-threaded
//! trial execution is measured rather than asserted. Every mode produces bit-for-bit
//! identical summaries (asserted once before timing); only wall time may differ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protocol::engine::{Adversary, Parallelism, Scenario, SessionEngine, TrialSummary};
use protocol::identity::IdentityPair;
use protocol::message::SecretMessage;
use protocol::session::Impersonation;
use qchannel::quantum::NoTap;
use qchannel::taps::InterceptBasis;
use rand::SeedableRng;
use std::hint::black_box;

/// The standard scenario mix: honest sessions plus one early-aborting attack, so the
/// scheduler sees realistically uneven per-trial costs.
fn scenarios(count: usize) -> Vec<Scenario> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let config = bench::attack_session_config();
    (0..count)
        .map(|i| {
            let scenario = Scenario::new(config.clone(), IdentityPair::generate(3, &mut rng))
                .with_label(format!("bench-{i}"));
            if i % 4 == 3 {
                scenario.with_adversary(Adversary::InterceptResend(InterceptBasis::Computational))
            } else {
                scenario
            }
        })
        .collect()
}

/// `trials` trials of every scenario: one summary per scenario, in order.
fn run_each(engine: &SessionEngine, batch: &[Scenario], trials: usize) -> Vec<TrialSummary> {
    batch
        .iter()
        .map(|scenario| engine.run_trials(scenario, trials).unwrap())
        .collect()
}

fn bench_engine_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    for count in [1usize, 4] {
        let batch = scenarios(count);
        group.bench_with_input(
            BenchmarkId::new("manual_per_call", count),
            &batch,
            |b, batch| {
                b.iter(|| {
                    // The pre-engine shape: every consumer hand-rolls its own loop,
                    // threading one sequential RNG through `run_with` per session.
                    let engine = SessionEngine::default();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                    for scenario in batch {
                        for _ in 0..2 {
                            let message =
                                SecretMessage::random(scenario.config.message_bits(), &mut rng);
                            black_box(
                                engine
                                    .run_with(
                                        &scenario.config,
                                        &scenario.identities,
                                        &message,
                                        Impersonation::None,
                                        &mut NoTap,
                                        &mut rng,
                                    )
                                    .unwrap(),
                            );
                        }
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine_run_trials", count),
            &batch,
            |b, batch| {
                let engine = SessionEngine::new(7);
                b.iter(|| black_box(run_each(&engine, batch, 2)))
            },
        );
    }
    group.finish();
}

/// Serial vs threaded throughput over the standard scenario mix. The interesting number is
/// trials/second by mode: with ≥ 4 cores, `threads:4` should clear 1.5× serial.
fn bench_parallel_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_parallelism");
    group.sample_size(10);
    let batch = scenarios(4);
    let trials = 4;

    // Guard the claim the bench exists to quantify: identical results in every mode.
    let reference = run_each(&SessionEngine::new(7), &batch, trials);
    for mode in [
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ] {
        let threaded = run_each(
            &SessionEngine::new(7).with_parallelism(mode),
            &batch,
            trials,
        );
        assert_eq!(threaded, reference, "{mode} diverged from serial");
    }

    for mode in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ] {
        group.bench_with_input(BenchmarkId::new("run_trials", mode), &batch, |b, batch| {
            let engine = SessionEngine::new(7).with_parallelism(mode);
            b.iter(|| black_box(run_each(&engine, batch, trials)))
        });
    }
    // One stats-carrying run per mode so `cargo bench` output shows the fan-out shape
    // (per-worker trial counts, wall time) next to the timings.
    for mode in [Parallelism::Serial, Parallelism::Threads(4)] {
        let engine = SessionEngine::new(7).with_parallelism(mode);
        let (_, stats) = engine.run_trials_with_stats(&batch[0], trials).unwrap();
        println!(
            "engine_parallelism/{mode}: {stats} ({:.1} trials/s)",
            stats.throughput()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_batch, bench_parallel_modes);
criterion_main!(benches);
