//! Criterion bench for the Fig. 3 sweep (accuracy vs channel length).

use bench::campaigns::{fig3_campaign, fig3_points, figure_sampler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noise::DeviceModel;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let device = DeviceModel::ibm_brisbane_like();
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    for eta in [10usize, 100, 700] {
        let campaign = fig3_campaign(&device, &[eta], 32, 2);
        group.bench_with_input(BenchmarkId::new("single_point", eta), &eta, |b, _| {
            b.iter(|| {
                let report = campaign
                    .run_direct(bench::engine_parallelism(), &figure_sampler())
                    .expect("fig3 campaign runs");
                black_box(fig3_points(&report).expect("fig3 points recover"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
