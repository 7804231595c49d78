//! The benchmark's own checks: schedule determinism, the metric catalogue
//! against `BENCHMARK.json`, and a short smoke run of every workload that
//! must pass its output oracle.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{per_layer, RunResult, END_TO_END};
use perfbench::serve_open::{schedule, Planned};
use perfbench::{campaign, fleet, phases, serve_open, RunConfig, Workload};
use std::collections::BTreeSet;
use std::time::Duration;

fn config(workload: Workload, trace: bool, window: Duration) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        window,
        trace,
    }
}

fn assert_clean(result: &RunResult) {
    assert!(result.attempted > 0, "nothing was checked");
    assert_eq!(
        result.failed, 0,
        "{} of {} operations failed",
        result.failed, result.attempted
    );
}

#[test]
fn same_seed_same_schedule_and_mix_other_seed_other() {
    let window = Duration::from_secs(10);
    let a = schedule(3, window);
    assert_eq!(a, schedule(3, window));
    let b = schedule(4, window);
    assert_ne!(a, b);
    let shapes = |s: &[perfbench::serve_open::Arrival]| -> Vec<usize> {
        s.iter()
            .filter_map(|x| match x.kind {
                Planned::Job { shape, .. } => Some(shape),
                Planned::Status => None,
            })
            .collect()
    };
    assert_ne!(
        shapes(&a),
        shapes(&b),
        "the job mix order must depend on the seed"
    );
    // The offered load does not: same job count and shape proportions.
    let mut sa = shapes(&a);
    let mut sb = shapes(&b);
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb);
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    assert!(a
        .iter()
        .all(|x| x.due < window && x.conn < serve_open::CONNECTIONS));
}

fn benchmark_json() -> serde::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &serde::Value, key: &str) -> BTreeSet<(String, String)> {
    doc.get_field(key)
        .and_then(serde::Value::as_seq)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get_field(f)
                    .and_then(serde::Value::as_str)
                    .expect("a string field")
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_reported_metric_is_declared_in_benchmark_json() {
    let doc = benchmark_json();
    let end_to_end: BTreeSet<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), end_to_end);
    let layers: BTreeSet<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
    let workloads: Vec<String> = doc
        .get_field("workloads")
        .and_then(serde::Value::as_seq)
        .expect("a workload list")
        .iter()
        .map(|w| {
            w.get_field("name")
                .and_then(serde::Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let serve_why = doc
        .get_field("workloads")
        .and_then(serde::Value::as_seq)
        .expect("a workload list")[1]
        .get_field("why")
        .and_then(serde::Value::as_str)
        .expect("a why")
        .to_string();
    assert!(serve_why.contains(&format!("{} jobs/s", serve_open::RATE_PER_S)));
    assert!(serve_why.contains(&format!("{} ms", serve_open::SLO.as_millis())));
}

#[test]
fn campaign_smoke_run_passes_its_oracle() {
    let mut small = campaign::load(11);
    small.trials = 1;
    let result = campaign::run_campaign(
        &config(Workload::CampaignAblation, false, Duration::ZERO),
        small.clone(),
    );
    assert_clean(&result);
    for (name, _, _) in &END_TO_END[..5] {
        assert!(
            result.metrics.get(name).is_some_and(f64::is_finite),
            "{name} missing"
        );
    }
    let traced = campaign::run_campaign(
        &config(Workload::CampaignAblation, true, Duration::ZERO),
        small,
    );
    assert_clean(&traced);
    assert!(traced.metrics.get("engine.parallel.speedup").is_some());
}

#[test]
fn fleet_drain_lane_passes_its_oracle() {
    let mut result = RunResult::default();
    let tracer = fleet::measure_drain(11, 256, &mut result);
    assert_clean(&result);
    assert!(!tracer.spans().is_empty());
    let coverage = result
        .metrics
        .get("engine.queue.span_coverage")
        .expect("coverage");
    assert!(
        coverage >= 0.9,
        "named spans cover {coverage} of the fleet's time"
    );
}

#[test]
fn serve_smoke_run_passes_its_oracle() {
    let result = serve_open::run(&config(Workload::ServeOpen, false, Duration::from_secs(1)));
    assert_clean(&result);
    assert!(result.metrics.get("trials_per_s").is_some_and(|v| v > 0.0));
}

#[test]
fn phase_driver_replays_run_with_and_accounts_for_its_time() {
    let mut result = RunResult::default();
    let tracer = phases::measure(5, &mut result);
    assert!(!tracer.spans().is_empty());
    assert_clean(&result);
    let ratio = result
        .metrics
        .get("protocol.phase.sum_ratio")
        .expect("sum ratio");
    assert!((0.5..2.0).contains(&ratio), "phase sum ratio {ratio}");
}

#[test]
fn layer_lanes_check_their_outputs() {
    let mut result = RunResult::default();
    fleet::measure_lanes(5, &mut result);
    serve_open::measure_lanes(5, &mut result);
    assert_clean(&result);
    let lane_metrics = per_layer().into_iter().map(|(n, _)| n).filter(|n| {
        n.starts_with("engine.shard.")
            || n.contains(".shards")
            || n.starts_with("serve.spool_")
            || n.starts_with("serve.frame_")
            || n.starts_with("serve.registry_")
    });
    for name in lane_metrics {
        let value = result.metrics.get(&name);
        assert!(value.is_some_and(|v| v > 0.0), "{name} = {value:?}");
    }
}
