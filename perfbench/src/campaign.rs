//! `campaign-ablation`: the checked-in backend-ablation campaign (η ∈ {0,
//! 10, 50} × honest / intercept-resend / MITM × three substrates, 20
//! sessions a point) run in-process through `Campaign::run_direct` at
//! `Parallelism::Auto`, with the workload seed as master seed.
//!
//! Kernels and session phases do almost all the work; the fabric and the
//! service do none. The reference is built outside the timed window by
//! another path: every trial through `SessionEngine::run_nth` on the
//! benchmark's own two threads, then one serial fold.

use crate::metrics::RunResult;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{ms, RunConfig};
use protocol::engine::{
    Adversary, BackendKind, Campaign, CampaignPoint, CampaignPointReport, CampaignReport,
    NoSampler, Parallelism, RateInterval, SessionEngine, TrialSummary, TrialSummaryBuilder,
};
use protocol::SessionOutcome;
use std::time::{Duration, Instant};

/// A campaign run (one `run_direct` call) meets its objective when it
/// finishes within this limit.
pub const SLO: Duration = Duration::from_secs(20);

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 51;

/// The ablation campaign with `seed` as master seed.
///
/// # Panics
///
/// Panics when the stored definition does not parse (a build defect).
pub fn load(seed: u64) -> Campaign {
    let mut campaign = bench::campaigns::stored_campaign("ablation_backend")
        .expect("the ablation campaign is checked in and parses");
    campaign.master_seed = seed;
    campaign
}

/// One point's report row: its summary plus the Wilson interval of its
/// abort rate, as detection for attacked points and false alarm for honest
/// ones.
pub fn point_report(point: &CampaignPoint, summary: TrialSummary) -> CampaignPointReport {
    let interval = RateInterval::wilson(summary.total_aborts(), summary.trials);
    let honest = point.scenario.as_ref().map(|s| &s.adversary) == Some(&Adversary::Honest);
    CampaignPointReport {
        index: point.index,
        label: point.label.clone(),
        coords: point.coords.clone(),
        trials: point.trials,
        summary: Some(summary),
        sampled: None,
        detection: (!honest).then_some(interval),
        false_alarm: honest.then_some(interval),
    }
}

/// The campaign report over per-point rows.
fn report_of(campaign: &Campaign, points: Vec<CampaignPointReport>) -> CampaignReport {
    CampaignReport {
        label: campaign.label.clone(),
        fingerprint: campaign.fingerprint(),
        master_seed: campaign.master_seed,
        points,
    }
}

/// Folds per-point outcomes (in trial order) serially into the campaign
/// report.
pub fn fold_report(
    campaign: &Campaign,
    points: &[CampaignPoint],
    outcomes: &[Vec<SessionOutcome>],
) -> CampaignReport {
    let rows = points
        .iter()
        .zip(outcomes)
        .map(|(point, outcomes)| {
            let scenario = point
                .scenario
                .as_ref()
                .expect("session points carry scenarios");
            let mut builder =
                TrialSummaryBuilder::new(scenario.label.clone(), scenario.adversary.name());
            for outcome in outcomes {
                builder.record(outcome);
            }
            point_report(point, builder.finish())
        })
        .collect();
    report_of(campaign, rows)
}

/// Every outcome of every point, computed trial by trial with
/// `run_nth` on two of the benchmark's own threads.
pub fn outcomes_by_trial(master_seed: u64, points: &[CampaignPoint]) -> Vec<Vec<SessionOutcome>> {
    let tasks: Vec<(usize, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(p, point)| (0..point.trials as u64).map(move |t| (p, t)))
        .collect();
    let engine = SessionEngine::new(master_seed);
    let halves: Vec<Vec<(usize, u64, SessionOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|lane| {
                let (tasks, engine) = (&tasks, &engine);
                scope.spawn(move || {
                    tasks
                        .iter()
                        .skip(lane)
                        .step_by(2)
                        .map(|&(p, t)| {
                            let scenario = points[p].scenario.as_ref().expect("session point");
                            let outcome = engine
                                .run_nth(scenario, t)
                                .expect("campaign scenarios are valid");
                            (p, t, outcome)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut outcomes: Vec<Vec<Option<SessionOutcome>>> =
        points.iter().map(|p| vec![None; p.trials]).collect();
    for (p, t, outcome) in halves.into_iter().flatten() {
        outcomes[p][t as usize] = Some(outcome);
    }
    outcomes
        .into_iter()
        .map(|trials| {
            trials
                .into_iter()
                .map(|o| o.expect("every trial ran"))
                .collect()
        })
        .collect()
}

/// Counts the points of `got` that equal the reference's.
fn check_report(result: &mut RunResult, got: &CampaignReport, want: &CampaignReport) {
    let header_ok = got.label == want.label
        && got.fingerprint == want.fingerprint
        && got.master_seed == want.master_seed
        && got.points.len() == want.points.len();
    for (i, point) in want.points.iter().enumerate() {
        result.check(header_ok && got.points.get(i) == Some(point));
    }
}

/// Runs the workload. See the module docs.
pub fn run(config: &RunConfig) -> RunResult {
    run_campaign(config, load(config.seed))
}

/// [`run`] on an explicit campaign (tests pass a smaller one).
pub fn run_campaign(config: &RunConfig, campaign: Campaign) -> RunResult {
    let mut result = RunResult::default();
    // Set-up: load and expand the campaign.
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut loaded = load(config.seed);
            loaded.trials = campaign.trials;
            std::hint::black_box(loaded.expand().expect("campaign expands"));
            start.elapsed().as_secs_f64()
        })
        .collect();
    result.metrics.set("setup_s", median(&setup), "s");
    let points = campaign.expand().expect("campaign expands");
    let reference = fold_report(
        &campaign,
        &points,
        &outcomes_by_trial(campaign.master_seed, &points),
    );
    let sessions: usize = points.iter().map(|p| p.trials).sum();
    result.detail("sessions_per_campaign", sessions);

    if config.trace {
        run_traced(config, &campaign, &reference, &mut result);
        return result;
    }
    let mut latencies = Vec::new();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed() < config.window {
        let t0 = Instant::now();
        let report = campaign.run_direct(Parallelism::Auto, &NoSampler);
        latencies.push(ms(t0.elapsed()));
        match report {
            Ok(report) => check_report(&mut result, &report, &reference),
            Err(error) => {
                eprintln!("campaign run failed: {error}");
                result.check(false);
            }
        }
    }
    // Throughput from the median campaign, so one run disturbed by the host
    // does not move the figure.
    let p50 = median(&latencies);
    let t = tail(&latencies);
    let met = latencies.iter().filter(|&&l| l <= ms(SLO)).count();
    result
        .metrics
        .set("trials_per_s", sessions as f64 / (p50 / 1e3), "1/s");
    result.metrics.set("job_latency_p50_ms", p50, "ms");
    result.metrics.set("job_latency_tail_ms", t.value, "ms");
    result
        .metrics
        .set("slo_met_frac", met as f64 / latencies.len() as f64, "frac");
    result.detail("job", "one Campaign::run_direct call");
    result.detail("jobs", latencies.len());
    result.detail("campaign_ms", format!("{latencies:.1?}"));
    result.detail("tail_percentile", t.percentile);
    result.detail("tail_samples", t.samples);
    result.detail("slo_ms", ms(SLO));
    result
}

/// The traced run: one untraced `run_direct` for the overhead baseline,
/// then the same campaign through the public calls `run_direct` makes
/// (expand, `run_trials_with_stats` per point, the report fold), each in a
/// span, then a serial pass over the same points for the executor speedup.
fn run_traced(
    config: &RunConfig,
    campaign: &Campaign,
    reference: &CampaignReport,
    result: &mut RunResult,
) {
    let t0 = Instant::now();
    match campaign.run_direct(Parallelism::Auto, &NoSampler) {
        Ok(report) => check_report(result, &report, reference),
        Err(_) => result.check(false),
    }
    let untraced = t0.elapsed().as_secs_f64();

    let tracer = Tracer::new(true);
    let t0 = Instant::now();
    let engine = SessionEngine::new(campaign.master_seed).with_parallelism(Parallelism::Auto);
    let (report, imbalances, auto_points) = tracer.span("engine.campaign.run", 0, 0, |root| {
        let points = tracer.span("engine.campaign.expand", root, 0, |_| {
            campaign.expand().expect("campaign expands")
        });
        let mut summaries = Vec::with_capacity(points.len());
        let mut imbalances = Vec::with_capacity(points.len());
        let mut auto_points = 0.0;
        for point in &points {
            let scenario = point.scenario.as_ref().expect("session point");
            let p0 = Instant::now();
            let (summary, stats) = tracer.span(
                "engine.parallel.run_trials",
                root,
                point.index as u64,
                |_| {
                    engine
                        .run_trials_with_stats(scenario, point.trials)
                        .expect("campaign scenarios are valid")
                },
            );
            auto_points += p0.elapsed().as_secs_f64();
            let max = stats.tasks_per_worker.iter().copied().max().unwrap_or(0) as f64;
            let mean = stats.tasks as f64 / stats.workers.max(1) as f64;
            imbalances.push(max / mean.max(1e-9));
            summaries.push(summary);
        }
        let report = tracer.span("engine.campaign.report", root, 0, |_| {
            let rows = points
                .iter()
                .zip(summaries)
                .map(|(p, s)| point_report(p, s))
                .collect();
            report_of(campaign, rows)
        });
        (report, imbalances, auto_points)
    });
    let traced = t0.elapsed().as_secs_f64();
    check_report(result, &report, reference);

    let serial_engine = SessionEngine::new(campaign.master_seed);
    let points = campaign.expand().expect("campaign expands");
    let s0 = Instant::now();
    for point in &points {
        let scenario = point.scenario.as_ref().expect("session point");
        let summary = serial_engine
            .run_trials(scenario, point.trials)
            .expect("valid scenario");
        result.check(Some(&summary) == reference.points[point.index].summary.as_ref());
    }
    let serial = s0.elapsed().as_secs_f64();

    result
        .metrics
        .set("engine.parallel.imbalance", median(&imbalances), "ratio");
    result
        .metrics
        .set("engine.parallel.speedup", serial / auto_points, "ratio");
    result
        .metrics
        .set("trace_overhead_frac", traced / untraced - 1.0, "frac");
    result.detail("untraced_s", untraced);
    result.detail("traced_s", traced);
    result.detail("serial_points_s", serial);
    crate::write_spans(
        &format!("{}-seed{}", config.workload.name(), config.seed),
        &tracer,
    );
}

/// Layer lanes of the campaign layer and the analysis fold:
/// `engine.campaign.expand_ms` (median expand of the ablation campaign) and
/// `engine.campaign.report_ms` (the fold plus Wilson intervals over the
/// campaign's 27 × 20 outcomes, produced on the cheap pauli-twirled
/// substrate — the fold's cost does not depend on the substrate).
pub fn measure_layer(seed: u64, result: &mut RunResult) {
    let campaign = load(seed);
    let expand: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(campaign.expand().expect("campaign expands"));
            ms(start.elapsed())
        })
        .collect();
    result
        .metrics
        .set("engine.campaign.expand_ms", median(&expand), "ms");

    let mut points = campaign.expand().expect("campaign expands");
    for point in &mut points {
        point.scenario = point
            .scenario
            .take()
            .map(|s| s.with_backend(BackendKind::PauliTwirled));
    }
    let engine = SessionEngine::new(seed);
    let outcomes: Vec<Vec<SessionOutcome>> = points
        .iter()
        .map(|p| {
            engine
                .run_outcomes(p.scenario.as_ref().expect("session point"), p.trials)
                .expect("valid scenario")
        })
        .collect();
    let fold: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(fold_report(&campaign, &points, &outcomes));
            ms(start.elapsed())
        })
        .collect();
    result
        .metrics
        .set("engine.campaign.report_ms", median(&fold), "ms");
}
