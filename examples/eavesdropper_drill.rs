//! Eavesdropper drill: throw every attack from the paper's Section III at the protocol under
//! one master seed and watch each one get caught.
//!
//! ```text
//! cargo run --example eavesdropper_drill
//! ```

use ua_di_qsdc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let identities = IdentityPair::generate(6, &mut rng_from_seed(7));
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(0.0)
        .build()?;
    let trials = 8;

    // One scenario per attack of Section III.
    let scenario = |label: &str, adversary: Adversary| {
        Scenario::new(config.clone(), identities.clone())
            .with_label(label)
            .with_adversary(adversary)
    };
    let scenarios = vec![
        scenario("III-A Eve-as-Alice", Adversary::ImpersonateAlice),
        scenario("III-A Eve-as-Bob", Adversary::ImpersonateBob),
        scenario(
            "III-B intercept-resend",
            Adversary::InterceptResend(qchannel::taps::InterceptBasis::Computational),
        ),
        scenario(
            "III-C man-in-the-middle",
            Adversary::ManInTheMiddle(qchannel::taps::SubstituteState::RandomComputational),
        ),
        scenario(
            "III-D entangle-measure",
            Adversary::EntangleMeasure { strength: 1.0 },
        ),
    ];

    let engine = SessionEngine::new(7);
    println!("== attack drill ({trials} trials each, one master seed) ==");
    for scenario in &scenarios {
        let summary = engine.run_trials(scenario, trials)?;
        println!("  {summary}");
        assert_eq!(summary.delivered, 0, "no attack may ever deliver");
    }

    println!("\n== information leakage (Section III-E) ==");
    let honest = Scenario::new(config, identities.clone()).with_label("honest");
    let transcripts: Vec<_> = engine
        .run_outcomes(&honest, 10)?
        .into_iter()
        .map(|outcome| outcome.transcript)
        .collect();
    let audit = LeakageAudit::with_identity(&transcripts, &identities.bob);
    println!("  {audit}");

    println!("\nEvery attack was detected; the honest transcript leaks nothing.");
    Ok(())
}
