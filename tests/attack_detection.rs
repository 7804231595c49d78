//! Cross-crate integration tests for the security claims: every attack from the paper's
//! Section III is detected when its scenario runs through the `SessionEngine`, and the
//! classical channel leaks nothing.

use attacks::prelude::*;
use ua_di_qsdc::prelude::*;

fn attack_config() -> SessionConfig {
    SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(220)
        .auth_error_tolerance(0.0)
        .build()
        .unwrap()
}

#[test]
fn impersonation_of_either_party_is_detected_with_long_identities() {
    let identities = IdentityPair::generate(10, &mut rng_from_seed(11));
    let engine = SessionEngine::new(11);
    for adversary in [Adversary::ImpersonateAlice, Adversary::ImpersonateBob] {
        let scenario = Scenario::new(attack_config(), identities.clone())
            .with_label(adversary.name())
            .with_adversary(adversary);
        let summary = engine.run_trials(&scenario, 10).unwrap();
        assert_eq!(
            summary.delivered, 0,
            "an impersonator with a 10-qubit identity gap must never receive the message: {summary}"
        );
        assert!(summary.detection_rate() > 0.9, "{summary}");
    }
}

#[test]
fn impersonation_detection_rate_follows_quarter_power_law() {
    let identities = IdentityPair::generate(1, &mut rng_from_seed(12));
    let summary = run_impersonation_trials(
        &attack_config(),
        &identities,
        Impersonation::OfBob,
        300,
        &mut rng_from_seed(12),
    )
    .unwrap();
    // l = 1: analytic detection probability is 0.75.
    assert!((summary.detection_rate - 0.75).abs() < 0.08, "{summary}");
}

#[test]
fn intercept_resend_never_delivers_and_kills_the_chsh_violation() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(13));
    let scenario = Scenario::new(attack_config(), identities).with_adversary(
        Adversary::InterceptResend(qchannel::taps::InterceptBasis::Computational),
    );
    let summary = SessionEngine::new(13).run_trials(&scenario, 5).unwrap();
    assert_eq!(summary.delivered, 0, "{summary}");
    assert!(
        summary.mean_chsh_round1.unwrap() > 2.2,
        "round 1 precedes the attack"
    );
    if let Some(s2) = summary.mean_chsh_round2 {
        assert!(
            s2 <= 2.1,
            "round 2 must not show a Bell violation, got {s2}"
        );
    }
}

#[test]
fn mitm_and_entangle_measure_are_detected_every_time() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(14));
    let scenarios = [
        Scenario::new(attack_config(), identities.clone())
            .with_label("mitm")
            .with_adversary(Adversary::ManInTheMiddle(
                qchannel::taps::SubstituteState::RandomComputational,
            )),
        Scenario::new(attack_config(), identities)
            .with_label("entangle-measure")
            .with_adversary(Adversary::EntangleMeasure { strength: 1.0 }),
    ];
    let engine = SessionEngine::new(14);
    for scenario in &scenarios {
        let summary = engine.run_trials(scenario, 5).unwrap();
        assert_eq!(summary.delivered, 0, "{summary}");
        assert!(summary.detection_rate() > 0.99, "{summary}");
    }
}

#[test]
fn weak_entangling_probes_may_pass_but_strong_ones_never_do() {
    // The information/disturbance trade-off: a weak probe gains little and may slip through;
    // the full CNOT probe (which would give Eve the whole computational value) is always caught.
    let identities = IdentityPair::generate(4, &mut rng_from_seed(15));
    let engine = SessionEngine::new(15);
    let strong = Scenario::new(attack_config(), identities.clone())
        .with_label("strong-probe")
        .with_adversary(Adversary::EntangleMeasure { strength: 1.0 });
    let strong_summary = engine.run_trials(&strong, 4).unwrap();
    assert_eq!(strong_summary.delivered, 0);
    let weak = Scenario::new(attack_config(), identities)
        .with_label("weak-probe")
        .with_adversary(Adversary::EntangleMeasure { strength: 0.05 });
    let weak_summary = engine.run_trials(&weak, 4).unwrap();
    // A 5% probe barely disturbs the state; the protocol usually proceeds.
    assert!(weak_summary.delivered >= 2, "{weak_summary}");
}

#[test]
fn classical_transcripts_leak_nothing_across_many_sessions() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(16));
    let scenario = Scenario::new(attack_config(), identities.clone()).with_label("leakage");
    let transcripts: Vec<_> = SessionEngine::new(16)
        .run_outcomes(&scenario, 30)
        .unwrap()
        .into_iter()
        .map(|outcome| outcome.transcript)
        .collect();
    let audit = LeakageAudit::with_identity(&transcripts, &identities.bob);
    assert!(audit.structurally_clean(), "{audit}");
    assert!(audit.bell_distribution_bias() < 0.12, "{audit}");
    assert!(
        audit.mutual_information_with_id_b.unwrap() < 0.12,
        "{audit}"
    );
}

#[test]
fn baseline_without_authentication_cannot_detect_an_impersonator() {
    // The contrast that motivates the paper: same attack, no defence in the baseline.
    let mut rng = rng_from_seed(17);
    let config = attack_config();
    let message = SecretMessage::random(config.message_bits(), &mut rng);
    let mut tap = qchannel::quantum::NoTap;
    let outcome = run_baseline_di_qsdc(&config, &message, &mut tap, &mut rng).unwrap();
    assert!(outcome.delivered, "{outcome}");
}
