//! Smoke tests for the figure/table regeneration pipeline: small-scale versions of every
//! experiment the bench binaries run, checking that the *shape* of each result matches the
//! paper's claims.

use analysis::prelude::*;
use bench::campaigns::{
    attack_campaign, attack_rows, fig2_campaign, fig2_rows, fig3_campaign, fig3_points,
    figure_sampler,
};
use noise::DeviceModel;
use protocol::engine::{BackendKind, Campaign, CampaignReport};
use protocol::session::Impersonation;

/// Runs a campaign the way the figure binaries do.
fn run(campaign: Campaign) -> CampaignReport {
    campaign
        .run_direct(bench::engine_parallelism(), &figure_sampler())
        .expect("campaign runs")
}

#[test]
fn table1_shape_matches_the_paper() {
    let rows = bench::table1_rows();
    assert_eq!(rows.len(), 5);
    let proposed = rows.last().unwrap();
    assert_eq!(proposed.protocol, "Proposed UA-DI-QSDC");
    assert!(proposed.user_authentication);
    assert_eq!(proposed.qubits_per_bit, 1.0);
    assert!(rows[..4].iter().all(|r| !r.user_authentication));
    // Rendering succeeds and includes every protocol.
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.protocol.clone(), r.qubits_per_bit.to_string()])
        .collect();
    let md = render_markdown_table(&["protocol", "qubits/bit"], &cells);
    assert!(md.contains("Proposed UA-DI-QSDC"));
}

#[test]
fn fig2_shape_high_fidelity_at_eta_10() {
    let campaign = fig2_campaign(&DeviceModel::ibm_brisbane_like(), 10, 512, 101);
    let rows = fig2_rows(&run(campaign)).unwrap();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert_eq!(row.shots, 512);
        assert!(
            row.accuracy() > 0.85,
            "paper reports ≥0.95 average fidelity at η=10; {} gave {}",
            row.encoded,
            row.accuracy()
        );
        // The dominant outcome is the encoded message.
        let max_count = *row.counts.iter().max().unwrap();
        let encoded_index = ["00", "01", "10", "11"]
            .iter()
            .position(|&l| l == row.encoded)
            .unwrap();
        assert_eq!(row.counts[encoded_index], max_count);
    }
    let mean_fidelity: f64 = rows.iter().map(|r| r.fidelity).sum::<f64>() / 4.0;
    assert!(mean_fidelity > 0.85);
}

#[test]
fn fig3_shape_monotone_decay_and_sixty_percent_crossing() {
    // Coarse version of the sweep: the accuracy decreases (roughly) with η, stays high at
    // η = 10 and lands in the vicinity of the paper's 60 % threshold by η = 700.
    let etas = [10usize, 200, 400, 700];
    let campaign = fig3_campaign(&DeviceModel::ibm_brisbane_like(), &etas, 384, 202);
    let points = fig3_points(&run(campaign)).unwrap();
    assert_eq!(points.len(), 4);
    assert!(
        points[0].accuracy > 0.9,
        "η=10 accuracy: {}",
        points[0].accuracy
    );
    assert!(
        points[3].accuracy < points[0].accuracy - 0.2,
        "η=700 must be far below η=10: {points:?}"
    );
    assert!(
        points[3].accuracy < 0.72,
        "η=700 accuracy should approach the paper's ~60% threshold, got {}",
        points[3].accuracy
    );
    assert!(points[3].accuracy > 0.3);
    // The trend over the sweep is negative.
    let trend: Vec<(f64, f64)> = points.iter().map(|p| (p.eta as f64, p.accuracy)).collect();
    let (slope, _) = linear_trend(&trend).unwrap();
    assert!(slope < 0.0);
}

#[test]
fn impersonation_detection_curve_shape() {
    let points = bench::impersonation_experiment(&[1, 3], Impersonation::OfAlice, 80, 303);
    assert_eq!(points.len(), 2);
    assert!(points[0].measured < points[1].measured + 0.05);
    assert!((points[0].analytic - 0.75).abs() < 1e-12);
    assert!(points[1].analytic > 0.98);
    for p in &points {
        assert!(p.deviation() < 0.12, "{p:?}");
    }
}

#[test]
fn channel_attack_rows_shape() {
    let campaign = attack_campaign(
        bench::ChannelAttackKind::ManInTheMiddle,
        BackendKind::DensityMatrix,
        4,
        404,
    );
    let (attacked, honest) = attack_rows(&run(campaign)).unwrap();
    assert_eq!(attacked.delivered, 0);
    assert_eq!(honest.delivered, 4);
    assert!(attacked.detection_rate > 0.99);
    assert!(honest.detection_rate < 0.01);
    // Under MITM the second CHSH check shows no Bell violation.
    if let Some(s2) = attacked.mean_chsh_round2 {
        assert!(s2 <= 2.1);
    }
    assert!(honest.mean_chsh_round2.unwrap() > 2.2);
}

#[test]
fn chsh_estimation_spread_shrinks_with_more_pairs() {
    let points = bench::chsh_baseline_experiment(&[50, 800], &[0.0], 6, 505);
    assert_eq!(points.len(), 2);
    let small = &points[0];
    let large = &points[1];
    assert!(
        small.std_dev > large.std_dev,
        "more check pairs must tighten the estimate: {points:?}"
    );
    assert!((large.mean_chsh - 2.0 * std::f64::consts::SQRT_2).abs() < 0.2);
}
