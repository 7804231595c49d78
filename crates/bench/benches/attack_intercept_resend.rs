//! Criterion bench for the intercept-and-resend attack experiment.

use bench::campaigns::{attack_campaign, attack_rows};
use bench::ChannelAttackKind;
use criterion::{criterion_group, criterion_main, Criterion};
use protocol::engine::{BackendKind, NoSampler};
use std::hint::black_box;

fn bench_intercept(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack_intercept_resend");
    group.sample_size(10);
    let campaign = attack_campaign(
        ChannelAttackKind::InterceptResend,
        BackendKind::default(),
        2,
        4,
    );
    group.bench_function("2trials", |b| {
        b.iter(|| {
            let report = campaign
                .run_direct(bench::engine_parallelism(), &NoSampler)
                .expect("attack campaign runs");
            black_box(attack_rows(&report).expect("attack rows recover"))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_intercept);
criterion_main!(benches);
