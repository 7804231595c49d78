//! Channel survey: reproduce the spirit of the paper's Fig. 3 with full protocol sessions —
//! how do delivery and message accuracy degrade as the quantum channel gets longer?
//!
//! Each channel length becomes one [`Scenario`] run on a single engine, so the whole sweep
//! replays bit-for-bit from one master seed.
//!
//! ```text
//! cargo run --release --example channel_survey
//! ```

use ua_di_qsdc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceModel::ibm_brisbane_like();
    println!("device: {device}");

    let identities = IdentityPair::generate(4, &mut rng_from_seed(31337));
    let etas = [10usize, 50, 100, 200, 300, 400, 500, 600, 700];
    let trials = 4;

    // Loose tolerances: we want to *observe* the raw accuracy at every length
    // rather than abort, so integrity/auth checks are disabled and the CHSH
    // threshold is left at 0 (an honest channel never yields S ≤ 0).
    let scenarios: Vec<Scenario> = etas
        .iter()
        .map(|&eta| {
            let config = SessionConfig::builder()
                .message_bits(32)
                .check_bits(8)
                .di_check_pairs(64)
                .chsh_abort_threshold(0.0)
                .auth_error_tolerance(1.0)
                .check_bit_error_tolerance(1.0)
                .channel(ChannelSpec::noisy_identity_chain(eta, device.clone()))
                .build()
                .expect("survey config is valid");
            Scenario::new(config, identities.clone()).with_label(format!("eta-{eta}"))
        })
        .collect();

    let engine = SessionEngine::new(31337);
    let summaries = scenarios
        .iter()
        .map(|scenario| engine.run_trials(scenario, trials))
        .collect::<Result<Vec<_>, _>>()?;

    println!("\n  η (id gates)   duration (µs)   delivered   accuracy");
    let mut crossing = None;
    for (&eta, summary) in etas.iter().zip(&summaries) {
        let duration_us = eta as f64 * device.identity_gate_time_ns() / 1000.0;
        let accuracy = summary.mean_message_accuracy.unwrap_or(0.0);
        if crossing.is_none() && accuracy < 0.6 {
            crossing = Some((eta, duration_us));
        }
        let bar_len = (accuracy * 40.0).round() as usize;
        println!(
            "  {:>12}   {:>13.2}   {:>4}/{:<4}   {:>7.3}  {}",
            eta,
            duration_us,
            summary.delivered,
            summary.trials,
            accuracy,
            "#".repeat(bar_len)
        );
    }
    match crossing {
        Some((eta, duration_us)) => println!(
            "\naccuracy first drops below 60% around η = {eta} ({duration_us} µs) — the paper \
             reports the same threshold near η ≈ 700."
        ),
        None => println!(
            "\naccuracy stayed above 60% across the sweep (paper: drops below 60% past η ≈ 700)."
        ),
    }
    Ok(())
}
