//! Replay guarantees of the execution engine: scenarios serde round-trip, and a fixed master
//! seed reproduces `run_trials` results bit for bit — independent of the number of worker
//! threads.
//!
//! The CI `determinism` job runs this file several times with the `UA_DI_QSDC_PARALLELISM`
//! environment variable set to `serial`, `threads:2` and `threads:8`; the env-selected tests
//! below compare that mode's results against the serial baseline and fail on any divergence.

use ua_di_qsdc::prelude::*;

/// The parallelism mode under test: taken from `UA_DI_QSDC_PARALLELISM` when set (as the CI
/// determinism matrix does), serial otherwise.
fn env_parallelism() -> Parallelism {
    Parallelism::from_env().unwrap_or(Parallelism::Serial)
}

/// `trials` trials of every scenario: one summary per scenario, in order.
fn run_each(engine: &SessionEngine, scenarios: &[Scenario], trials: usize) -> Vec<TrialSummary> {
    scenarios
        .iter()
        .map(|scenario| engine.run_trials(scenario, trials).expect("trials run"))
        .collect()
}

fn scenarios() -> Vec<Scenario> {
    let mut rng = rng_from_seed(77);
    let identities = IdentityPair::generate(4, &mut rng);
    let config = SessionConfig::builder()
        .message_bits(8)
        .check_bits(2)
        .di_check_pairs(64)
        .build()
        .unwrap();
    vec![
        Scenario::new(config.clone(), identities.clone()).with_label("honest"),
        Scenario::new(config.clone(), identities.clone())
            .with_label("fixed-message")
            .with_message(SecretMessage::from_bitstring("10110100").unwrap()),
        Scenario::new(config.clone(), identities.clone())
            .with_label("impersonation")
            .with_adversary(Adversary::ImpersonateBob),
        Scenario::new(config.clone(), identities.clone())
            .with_label("intercept")
            .with_adversary(Adversary::InterceptResend(
                qchannel::taps::InterceptBasis::Computational,
            )),
        Scenario::new(config.clone(), identities.clone())
            .with_label("mitm")
            .with_adversary(Adversary::ManInTheMiddle(
                qchannel::taps::SubstituteState::RandomBb84,
            )),
        Scenario::new(config.clone(), identities.clone())
            .with_label("weak-probe")
            .with_adversary(Adversary::EntangleMeasure { strength: 0.3 }),
        // The sampled statevector substrate carries the same replay, serde
        // and sharding guarantees as the default emulation.
        Scenario::new(config.clone(), identities.clone())
            .with_label("honest-statevector")
            .with_backend(BackendKind::Statevector),
        Scenario::new(config, identities)
            .with_label("intercept-statevector")
            .with_adversary(Adversary::InterceptResend(
                qchannel::taps::InterceptBasis::Computational,
            ))
            .with_backend(BackendKind::Statevector),
    ]
}

#[test]
fn scenario_serde_round_trips() {
    for scenario in scenarios() {
        let json = serde::json::to_string(&scenario);
        let back: Scenario = serde::json::from_str(&json).expect("scenario deserializes");
        assert_eq!(back, scenario, "via {json}");
        assert_eq!(
            back.fingerprint(),
            scenario.fingerprint(),
            "fingerprints must survive the round trip"
        );
    }
}

#[test]
fn deserialized_scenarios_replay_identically() {
    // A scenario shipped through its serialized form (e.g. to a remote worker) must produce
    // exactly the outcomes of the original.
    let engine = SessionEngine::new(2024);
    for scenario in scenarios() {
        let json = serde::json::to_string(&scenario);
        let shipped: Scenario = serde::json::from_str(&json).unwrap();
        let original = engine.run_nth(&scenario, 0).unwrap();
        let replayed = engine.run_nth(&shipped, 0).unwrap();
        assert_eq!(original, replayed, "scenario `{}`", scenario.label);
    }
}

#[test]
fn run_trials_replays_bit_for_bit_under_a_fixed_master_seed() {
    let batch = scenarios();
    let trials = 3;
    let first = run_each(&SessionEngine::new(424242), &batch, trials);
    let second = run_each(&SessionEngine::new(424242), &batch, trials);
    assert_eq!(
        first, second,
        "identical master seeds must replay identically"
    );
    // Bit-for-bit extends to the serialized form.
    assert_eq!(
        serde::json::to_string(&first),
        serde::json::to_string(&second)
    );
    // A different master seed gives a genuinely different execution.
    let third = run_each(&SessionEngine::new(424243), &batch, trials);
    assert_ne!(first, third);
}

#[test]
fn run_trials_results_do_not_depend_on_run_order() {
    let batch = scenarios();
    let engine = SessionEngine::new(9000);
    let forward = run_each(&engine, &batch, 2);
    // Reversed order on the same engine: summaries follow their scenarios.
    let reversed_batch: Vec<Scenario> = batch.iter().rev().cloned().collect();
    let reversed = run_each(&engine, &reversed_batch, 2);
    for (summary, expected) in reversed.iter().zip(forward.iter().rev()) {
        assert_eq!(summary, expected);
    }
    // Each scenario alone on a fresh engine: identical to its run among the others.
    for (scenario, expected) in batch.iter().zip(&forward) {
        let alone = SessionEngine::new(9000).run_trials(scenario, 2).unwrap();
        assert_eq!(&alone, expected);
    }
}

#[test]
fn threaded_run_trials_is_byte_identical_to_serial() {
    let batch = scenarios();
    let trials = 3;
    let serial = run_each(&SessionEngine::new(77), &batch, trials);
    let serial_bytes = serde::json::to_string(&serial);
    for n in [1usize, 2, 8] {
        let engine = SessionEngine::new(77).with_parallelism(Parallelism::Threads(n));
        let threaded = run_each(&engine, &batch, trials);
        assert_eq!(threaded, serial, "Threads({n}) diverged from Serial");
        assert_eq!(
            serde::json::to_string(&threaded),
            serial_bytes,
            "Threads({n}) serialized form diverged from Serial"
        );
    }
    // The per-outcome path carries the same guarantee, down to transcripts.
    let serial_outcomes = SessionEngine::new(77)
        .run_outcomes(&batch[0], 4)
        .expect("serial outcomes run");
    for n in [2usize, 8] {
        let threaded_outcomes = SessionEngine::new(77)
            .with_parallelism(Parallelism::Threads(n))
            .run_outcomes(&batch[0], 4)
            .expect("threaded outcomes run");
        assert_eq!(threaded_outcomes, serial_outcomes);
    }
}

#[test]
fn env_selected_parallelism_matches_serial() {
    let mode = env_parallelism();
    let batch = scenarios();
    let serial = run_each(&SessionEngine::new(20240916), &batch, 2);
    let selected = run_each(
        &SessionEngine::new(20240916).with_parallelism(mode),
        &batch,
        2,
    );
    assert_eq!(
        serde::json::to_string(&selected),
        serde::json::to_string(&serial),
        "parallelism mode {mode} diverged from the serial baseline"
    );
}

#[test]
fn env_selected_parallelism_replays_run_trials_with_stats() {
    let mode = env_parallelism();
    let scenario = &scenarios()[0];
    let engine = SessionEngine::new(4242).with_parallelism(mode);
    let (summary, stats) = engine
        .run_trials_with_stats(scenario, 5)
        .expect("trials run");
    assert_eq!(summary.trials, 5);
    assert_eq!(stats.tasks, 5);
    assert_eq!(
        stats.tasks_per_worker.iter().sum::<usize>(),
        5,
        "every trial must be accounted to exactly one worker: {stats}"
    );
    let reference = SessionEngine::new(4242)
        .run_trials(scenario, 5)
        .expect("serial trials run");
    assert_eq!(summary, reference);
}

#[test]
fn shards_shipped_as_json_merge_to_the_single_process_run() {
    // The full multi-process story in miniature, exactly as `shardctl
    // plan | run | merge` ships it: plans leave as JSON, every shard is
    // executed by a *fresh* engine built only from the deserialized plan,
    // results come back as JSON, and the merge reproduces the single-process
    // run byte for byte — for summary and outcome payloads alike.
    for scenario in scenarios() {
        let trials = 4;
        let engine = SessionEngine::new(777);
        let whole_summary = engine.run_trials(&scenario, trials).unwrap();
        let whole_outcomes = engine.run_outcomes(&scenario, trials).unwrap();

        let plans_json = serde::json::to_string(&engine.plan(&scenario, trials).split_into(3));
        let plans: Vec<ShardPlan> = serde::json::from_str(&plans_json).unwrap();
        for (output, expected) in [
            (ShardOutput::Summary, None),
            (ShardOutput::Outcomes, Some(&whole_outcomes)),
        ] {
            let results_json: Vec<String> = plans
                .iter()
                .map(|plan| {
                    // Worker process: any engine, any seed — the plan governs.
                    let result = SessionEngine::new(1).execute_shard(plan, output).unwrap();
                    serde::json::to_string(&result)
                })
                .collect();
            let results: Vec<ShardResult> = results_json
                .iter()
                .map(|json| serde::json::from_str(json).unwrap())
                .collect();
            match merge_shard_results(results).unwrap() {
                MergedRun::Summary(summary) => {
                    assert_eq!(summary, whole_summary, "scenario `{}`", scenario.label);
                    assert_eq!(
                        serde::json::to_string(&summary),
                        serde::json::to_string(&whole_summary)
                    );
                }
                MergedRun::Outcomes(outcomes) => {
                    assert_eq!(
                        &outcomes,
                        expected.unwrap(),
                        "scenario `{}`",
                        scenario.label
                    );
                    assert_eq!(
                        serde::json::to_string(&outcomes),
                        serde::json::to_string(expected.unwrap())
                    );
                }
            }
        }
    }
}

#[test]
fn trial_summaries_serde_round_trip() {
    let summaries = run_each(&SessionEngine::new(5), &scenarios()[..2], 2);
    for summary in summaries {
        let json = serde::json::to_string(&summary);
        let back: TrialSummary = serde::json::from_str(&json).unwrap();
        assert_eq!(back, summary, "via {json}");
    }
}
