//! Cross-crate integration tests: the whole stack (mathkit → qsim → noise → qchannel →
//! protocol) exercised through the facade crate's public API — scenarios executed by the
//! `SessionEngine`, the same way a downstream user would drive it.

use ua_di_qsdc::prelude::*;

fn config_with_channel(eta: usize, message_bits: usize) -> SessionConfig {
    let channel = if eta == 0 {
        ChannelSpec::ideal()
    } else {
        ChannelSpec::noisy_identity_chain(eta, DeviceModel::ibm_brisbane_like())
    };
    SessionConfig::builder()
        .message_bits(message_bits)
        .check_bits(4)
        .di_check_pairs(240)
        .channel(channel)
        .build()
        .expect("valid config")
}

#[test]
fn ideal_channel_session_delivers_exact_message() {
    let identities = IdentityPair::generate(6, &mut rng_from_seed(1));
    let message = SecretMessage::from_bitstring("11010010101011110000").unwrap();
    let scenario = Scenario::new(config_with_channel(0, message.len()), identities)
        .with_message(message.clone());
    let outcome = SessionEngine::new(1).run_nth(&scenario, 0).unwrap();
    assert!(outcome.is_delivered(), "{}", outcome.status);
    assert_eq!(outcome.received_message.unwrap(), message);
    assert_eq!(outcome.message_bit_error_rate, Some(0.0));
}

#[test]
fn short_noisy_channel_session_has_high_accuracy_and_chsh_violation() {
    let identities = IdentityPair::generate(6, &mut rng_from_seed(2));
    let scenario = Scenario::new(config_with_channel(10, 24), identities);
    let outcome = SessionEngine::new(2).run_nth(&scenario, 0).unwrap();
    assert!(outcome.is_delivered(), "{}", outcome.status);
    assert!(outcome.message_accuracy().unwrap() > 0.85);
    let s1 = outcome.di_check_round1.unwrap().chsh.unwrap();
    let s2 = outcome.di_check_round2.unwrap().chsh.unwrap();
    assert!(
        s1 > 2.0 && s2 > 2.0,
        "honest noisy run keeps both CHSH rounds quantum (s1={s1}, s2={s2})"
    );
    assert!(s1 <= 2.0 * std::f64::consts::SQRT_2 + 0.4);
}

#[test]
fn text_round_trip_through_the_protocol() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(3));
    let message = SecretMessage::from_text("qsdc");
    let scenario =
        Scenario::new(config_with_channel(0, message.len()), identities).with_message(message);
    let outcome = SessionEngine::new(3).run_nth(&scenario, 0).unwrap();
    assert_eq!(outcome.received_message.unwrap().to_text_lossy(), "qsdc");
}

#[test]
fn resource_accounting_matches_paper_formula() {
    // N + 2l + 2d pairs, one transmitted qubit per pair except the first check round.
    let identities = IdentityPair::generate(5, &mut rng_from_seed(4));
    let config = config_with_channel(0, 16);
    let scenario = Scenario::new(config.clone(), identities.clone());
    let outcome = SessionEngine::new(4).run_nth(&scenario, 0).unwrap();
    let n = config.message_qubits();
    let d = config.di_check_pairs();
    let l = identities.qubit_len();
    assert_eq!(outcome.resources.total_pairs, n + 2 * l + 2 * d);
    assert_eq!(outcome.resources.message_pairs, n);
    assert_eq!(outcome.resources.identity_pairs, 2 * l);
    assert_eq!(outcome.resources.check_pairs, 2 * d);
    assert_eq!(outcome.resources.transmitted_qubits, n + 2 * l + d);
    assert!((outcome.resources.qubits_per_message_bit - 1.0).abs() < 1e-12);
}

#[test]
fn transcript_is_public_but_harmless() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(5));
    let scenario = Scenario::new(config_with_channel(0, 16), identities);
    let outcome = SessionEngine::new(5).run_nth(&scenario, 0).unwrap();
    let audit = LeakageAudit::structural(std::slice::from_ref(&outcome.transcript));
    assert!(audit.structurally_clean());
    assert!(
        outcome.transcript.len() >= 8,
        "all protocol phases announce something"
    );
    assert!(!outcome.transcript.contains_abort());
}

#[test]
fn sessions_are_reproducible_for_a_fixed_master_seed() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(6));
    let scenario = Scenario::new(config_with_channel(10, 16), identities);
    let a = SessionEngine::new(7).run_nth(&scenario, 0).unwrap();
    let b = SessionEngine::new(7).run_nth(&scenario, 0).unwrap();
    assert_eq!(a, b, "identical engines replay identical outcomes");
    assert_eq!(a.sent_message, b.sent_message);
    assert_eq!(
        a.di_check_round1.unwrap().chsh,
        b.di_check_round1.unwrap().chsh
    );
}

#[test]
fn longer_channels_degrade_delivered_accuracy() {
    let identities = IdentityPair::generate(4, &mut rng_from_seed(8));
    let scenarios: Vec<Scenario> = [10usize, 400]
        .into_iter()
        .map(|eta| {
            let config = SessionConfig::builder()
                .message_bits(40)
                .check_bits(8)
                .di_check_pairs(240)
                .check_bit_error_tolerance(1.0) // never abort on integrity so we can observe accuracy
                .auth_error_tolerance(1.0)
                .channel(ChannelSpec::noisy_identity_chain(
                    eta,
                    DeviceModel::ibm_brisbane_like(),
                ))
                .build()
                .unwrap();
            Scenario::new(config, identities.clone()).with_label(format!("eta-{eta}"))
        })
        .collect();
    let engine = SessionEngine::new(8);
    let summaries: Vec<TrialSummary> = scenarios
        .iter()
        .map(|scenario| engine.run_trials(scenario, 1).unwrap())
        .collect();
    for summary in &summaries {
        assert_eq!(summary.delivered, 1, "{summary}");
    }
    let accuracies: Vec<f64> = summaries
        .iter()
        .map(|s| s.mean_message_accuracy.unwrap())
        .collect();
    assert!(
        accuracies[0] > accuracies[1],
        "accuracy must degrade with channel length: {accuracies:?}"
    );
}
