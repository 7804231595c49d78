//! Criterion bench for the Fig. 2 experiment (message histograms at η = 10).

use bench::campaigns::{fig2_campaign, fig2_rows, figure_sampler};
use criterion::{criterion_group, criterion_main, Criterion};
use noise::DeviceModel;
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    for (name, device) in [
        ("noisy/eta10/64shots", DeviceModel::ibm_brisbane_like()),
        ("ideal/eta10/64shots", DeviceModel::ideal()),
    ] {
        let campaign = fig2_campaign(&device, 10, 64, 1);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = campaign
                    .run_direct(bench::engine_parallelism(), &figure_sampler())
                    .expect("fig2 campaign runs");
                black_box(fig2_rows(&report).expect("fig2 rows recover"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
