//! Authenticated vs baseline: show concretely what the paper's contribution buys.
//!
//! The baseline DI-QSDC (Zhou et al. 2020 shape, no user authentication) happily hands the
//! message to anyone holding the receiving end; the proposed UA-DI-QSDC aborts unless the
//! receiver can prove knowledge of `id_B`.
//!
//! ```text
//! cargo run --example authenticated_vs_baseline
//! ```

use ua_di_qsdc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rng_from_seed(99);
    let identities = IdentityPair::generate(8, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(16)
        .check_bits(4)
        .di_check_pairs(220)
        .auth_error_tolerance(0.0)
        .build()?;
    let message = SecretMessage::from_bitstring("1011001110001111")?;

    println!("scenario: Eve has taken over Bob's end of the link and does not know id_B.\n");

    // Baseline: no authentication phase at all.
    let mut no_eavesdropper = qchannel::quantum::NoTap;
    let baseline = run_baseline_di_qsdc(&config, &message, &mut no_eavesdropper, &mut rng)?;
    println!("baseline DI-QSDC (no UA) : {baseline}");
    if let Some(received) = &baseline.received_message {
        println!(
            "  -> Eve now holds the secret message: {} (accuracy {:.2})",
            received,
            baseline.message_accuracy().unwrap_or(0.0)
        );
    }

    // Proposed protocol: Eve must encode id_B on the D_B block, but she can only guess.
    let scenario = Scenario::new(config, identities.clone())
        .with_label("eve-as-bob")
        .with_message(message)
        .with_adversary(Adversary::ImpersonateBob);
    let outcome = SessionEngine::new(99).run_nth(&scenario, 0)?;
    println!("\nproposed UA-DI-QSDC      : {}", outcome.status);
    if let Some(report) = &outcome.bob_auth {
        println!("  -> Alice's verdict on \"Bob\": {report}");
    }
    println!(
        "  -> message delivered: {} (detection probability for l = {}: {:.6})",
        outcome.is_delivered(),
        identities.qubit_len(),
        protocol::auth::impersonation_detection_probability(identities.qubit_len())
    );
    Ok(())
}
