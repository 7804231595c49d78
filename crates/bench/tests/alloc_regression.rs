//! Allocation-regression tests for the compiled-kernel hot path.
//!
//! This binary installs the workspace's [`alloc_counter::CountingAllocator`]
//! as the global allocator (one binary, one allocator — which is why these
//! tests live in their own integration-test file) and asserts two levels of
//! the tentpole contract:
//!
//! 1. the compiled emit/transmit/measure kernel loop is **allocation-free**
//!    in steady state — exactly zero heap allocations per pair once the
//!    thread-local pools and scratch buffers are warm;
//! 2. a whole engine trial stays under a per-trial allocation budget, so
//!    bookkeeping growth (records, outcomes, summaries) cannot silently
//!    regress back toward the pre-pool ~200 allocations/trial.
//!
//! The counters are per thread, so each test measures only its own thread
//! and the tests run concurrently like any others.

use protocol::engine::{BackendKind, Parallelism, SessionEngine};
use qchannel::epr::EprPair;
use qchannel::quantum::QuantumChannel;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

#[test]
fn compiled_kernel_loop_is_allocation_free_in_steady_state() {
    let scenario = bench::shard_io::demo_scenario("intercept", 7, BackendKind::default())
        .expect("demo scenario");
    let compiled = QuantumChannel::new(scenario.config.channel().clone()).compile();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut pair = EprPair::ideal();
    let angles = [
        0.0,
        std::f64::consts::FRAC_PI_4,
        std::f64::consts::FRAC_PI_2,
    ];

    let step = |pair: &mut EprPair, rng: &mut rand::rngs::StdRng| {
        compiled.emit_noisy_pair_into(pair);
        compiled.transmit(pair, rng);
        for theta_a in angles {
            for theta_b in angles {
                compiled.emit_noisy_pair_into(pair);
                pair.measure_both_in_bases(theta_a, theta_b, rng);
            }
        }
    };

    // Warm the thread-local scratch buffers and the pair's own storage.
    for _ in 0..8 {
        step(&mut pair, &mut rng);
    }

    let ((), allocations) = alloc_counter::CountingAllocator::measure(|| {
        for _ in 0..64 {
            step(&mut pair, &mut rng);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state kernel loop allocated {allocations} times over 64 iterations"
    );
}

#[test]
fn twirled_trial_loop_is_allocation_free_once_warm() {
    // The η-sweep workload: 50 noisy identity gates on a brisbane-like
    // device, so both the emission and the convolved transmit distributions
    // are non-trivial — every emit and transmit below really samples a Pauli
    // and XORs it into the frame.
    let scenario = bench::sweep_scenario(50, 7, BackendKind::PauliTwirled);
    let compiled = QuantumChannel::new(scenario.config.channel().clone()).compile();
    assert!(!compiled.twirled().is_trivial(), "sweep noise must twirl");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut pair = EprPair::ideal();
    let angles = [
        0.0,
        std::f64::consts::FRAC_PI_4,
        std::f64::consts::FRAC_PI_2,
    ];

    let step = |pair: &mut EprPair, rng: &mut rand::rngs::StdRng| {
        for theta_a in angles {
            for theta_b in angles {
                compiled.emit_twirled_pair_into(pair, rng);
                compiled.transmit_twirled(pair, rng);
                pair.measure_both_in_bases(theta_a, theta_b, rng);
            }
        }
    };

    // One warm-up pass allocates the pair's frame storage; after that the
    // loop is pure integer/bitmask work and may not allocate at all.
    step(&mut pair, &mut rng);

    let ((), allocations) = alloc_counter::CountingAllocator::measure(|| {
        for _ in 0..256 {
            step(&mut pair, &mut rng);
        }
    });
    assert_eq!(
        allocations, 0,
        "warm twirled trial loop allocated {allocations} times over 256 iterations"
    );
}

#[test]
fn steady_state_trial_allocations_stay_bounded() {
    let scenario = bench::shard_io::demo_scenario("intercept", 7, BackendKind::default())
        .expect("demo scenario");
    let engine = SessionEngine::new(7).with_parallelism(Parallelism::Serial);

    // Warm the thread-local pair pool, basis cache, and kernel scratch.
    engine.run_trials(&scenario, 16).expect("warm-up trials");

    const TRIALS: usize = 64;
    // Measured steady state is ~66 allocations/trial (session records and
    // outcome bookkeeping); the pre-pool kernels sat at ~207. The budget
    // leaves headroom for summary growth without letting the pools regress.
    const BUDGET_PER_TRIAL: u64 = 120;
    let (summary, allocations) =
        alloc_counter::CountingAllocator::measure(|| engine.run_trials(&scenario, TRIALS));
    summary.expect("measured trials");
    let per_trial = allocations / TRIALS as u64;
    assert!(
        per_trial <= BUDGET_PER_TRIAL,
        "steady-state trials allocate {per_trial}/trial ({allocations} over {TRIALS}), \
         budget is {BUDGET_PER_TRIAL}/trial"
    );
}
