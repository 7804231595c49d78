//! Quickstart: run one honest UA-DI-QSDC session end to end through the
//! [`SessionEngine`] and print what happened.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ua_di_qsdc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Alice and Bob share secret identities (l = 8 qubits → 16 bits each) ahead of time.
    let identities = IdentityPair::generate(8, &mut rng_from_seed(2024));

    let message = SecretMessage::from_text("Hi Bob!");
    println!(
        "Alice wants to send      : {:?} ({} bits)",
        message.to_text_lossy(),
        message.len()
    );

    // The channel between them is modelled exactly like the paper's emulation: η = 10 noisy
    // identity gates on an ibm_brisbane-like device (0.6 µs of flight time).
    let config = SessionConfig::builder()
        .message_bits(message.len())
        .check_bits(8)
        .di_check_pairs(300)
        .channel(ChannelSpec::noisy_identity_chain(
            10,
            DeviceModel::ibm_brisbane_like(),
        ))
        .build()?;

    // A scenario is pure data: what to run. The engine owns how: the simulation
    // backend and the deterministic per-trial RNG streams.
    let scenario = Scenario::new(config, identities)
        .with_label("quickstart")
        .with_message(message);
    let engine = SessionEngine::new(2024);
    println!(
        "engine                   : master seed {}, backend {} ({})",
        engine.master_seed(),
        engine.backend_name(),
        scenario.backend
    );

    let outcome = engine.run_nth(&scenario, 0)?;

    println!("session status           : {}", outcome.status);
    if let Some(report) = &outcome.di_check_round1 {
        println!("DI check round 1         : {report}");
    }
    if let Some(report) = &outcome.bob_auth {
        println!("Alice verified Bob       : {report}");
    }
    if let Some(report) = &outcome.alice_auth {
        println!("Bob verified Alice       : {report}");
    }
    if let Some(report) = &outcome.di_check_round2 {
        println!("DI check round 2         : {report}");
    }
    if let Some(received) = &outcome.received_message {
        println!("Bob decoded              : {:?}", received.to_text_lossy());
        println!(
            "message accuracy         : {:.4}",
            outcome.message_accuracy().unwrap_or(0.0)
        );
    }
    println!(
        "resources                : {} EPR pairs total ({} message, {} identity, {} DI-check)",
        outcome.resources.total_pairs,
        outcome.resources.message_pairs,
        outcome.resources.identity_pairs,
        outcome.resources.check_pairs
    );
    println!(
        "classical channel        : {} messages, no secret-correlated content (see attack_leakage)",
        outcome.resources.classical_messages
    );
    println!(
        "\nreplay                   : the same master seed reproduces this outcome bit for bit."
    );
    Ok(())
}
