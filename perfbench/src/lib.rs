//! End-to-end benchmark of the UA-DI-QSDC workspace, with per-layer
//! attribution from a separately traced run. See `README.md` beside this
//! crate for the workloads, the metrics and how to read them.

pub mod campaign;
pub mod fleet;
pub mod kernels;
pub mod metrics;
pub mod phases;
pub mod serve_open;
pub mod stats;
pub mod trace;

use metrics::{RunResult, END_TO_END};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The workloads, one per end-to-end path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The checked-in backend-ablation campaign through `Campaign::run_direct`.
    CampaignAblation,
    /// An in-process `qsdc-serve` under a seeded open-loop arrival schedule.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::CampaignAblation, Workload::ServeOpen];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignAblation => "campaign-ablation",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
}

/// Runs one workload and returns its result, with the metrics trimmed to
/// the set the run kind reports.
pub fn run(config: &RunConfig) -> RunResult {
    let mut result = match config.workload {
        Workload::CampaignAblation => campaign::run(config),
        Workload::ServeOpen => serve_open::run(config),
    };
    if config.trace {
        // Micro-lanes price each layer on its own, whatever the workload.
        kernels::measure(&mut result);
        let stem = format!("{}-seed{}", config.workload.name(), config.seed);
        let phase_spans = phases::measure(config.seed, &mut result);
        write_spans(&format!("{stem}.phases"), &phase_spans);
        let fleet_spans = fleet::measure_drain(config.seed, fleet::TRIALS, &mut result);
        write_spans(&format!("{stem}.fleet"), &fleet_spans);
        campaign::measure_layer(config.seed, &mut result);
        fleet::measure_lanes(config.seed, &mut result);
        serve_open::measure_lanes(config.seed, &mut result);
        result.metrics.fill_unexercised_layers();
        let keep: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
        result.metrics.retain(&keep);
    } else {
        result.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        let keep: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        result.metrics.retain(&keep);
    }
    result
}

/// The host record every report carries.
pub fn host_record(config: &RunConfig) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("workload", config.workload.name().to_string()),
        ("seed", config.seed.to_string()),
        ("seconds", config.window.as_secs_f64().to_string()),
        ("trace", u8::from(config.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "auto_workers",
            protocol::engine::Parallelism::Auto
                .worker_count()
                .to_string(),
        ),
        ("fleet_workers", fleet::WORKERS.to_string()),
        ("serve_workers", serve_open::SERVER_WORKERS.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("host", host),
        ("os", std::env::consts::OS.to_string()),
    ]
}

/// Where reports, span files and scratch directories go: `out/` beside this
/// crate, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty scratch directory under [`out_dir`]; the caller removes
/// it.
///
/// # Panics
///
/// Panics when the directory cannot be created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory must be creatable");
    dir
}

/// Writes a tracer's spans to `out/<stem>.spans.jsonl`, reporting (not
/// failing on) an unwritable file.
pub fn write_spans(stem: &str, tracer: &trace::Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("{stem}.spans.jsonl"));
    if let Err(error) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        eprintln!("could not write spans to {}: {error}", path.display());
    }
}

/// Removes a scratch directory, ignoring a directory that is already gone.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A deterministic 64-bit value derived from `seed` and `index` (one
/// splitmix64 step over their mix).
pub fn derive(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    rand::splitmix64(&mut state)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
