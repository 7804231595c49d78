//! Golden outputs of the paper's figure, table, attack and ablation
//! binaries: each case runs one binary and byte-diffs its stdout against the
//! file committed under `tests/golden/`. Every binary's stdout is a pure
//! function of its arguments (the live-timed Pareto table of
//! `ablation_backend` goes to stderr), so the goldens hold on any host and
//! under any engine parallelism.
//!
//! After an intended output change, rewrite the golden from the binary itself,
//! e.g. `cargo run --release -p bench --bin attack_mitm -- --backend pauli-twirled > crates/bench/tests/golden/attack_mitm.pauli-twirled.txt`.

use std::path::Path;
use std::process::Command;

/// `(binary, arguments, golden file)` for every committed output.
const CASES: &[(&str, &[&str], &str)] = &[
    (env!("CARGO_BIN_EXE_fig2"), &[], "fig2.txt"),
    (env!("CARGO_BIN_EXE_fig3"), &[], "fig3.txt"),
    (env!("CARGO_BIN_EXE_table1"), &[], "table1.txt"),
    (
        env!("CARGO_BIN_EXE_attack_intercept"),
        &[],
        "attack_intercept.txt",
    ),
    (env!("CARGO_BIN_EXE_attack_mitm"), &[], "attack_mitm.txt"),
    (
        env!("CARGO_BIN_EXE_attack_entangle"),
        &[],
        "attack_entangle.txt",
    ),
    (
        env!("CARGO_BIN_EXE_attack_impersonation"),
        &[],
        "attack_impersonation.txt",
    ),
    (
        env!("CARGO_BIN_EXE_attack_leakage"),
        &[],
        "attack_leakage.txt",
    ),
    (
        env!("CARGO_BIN_EXE_chsh_baseline"),
        &[],
        "chsh_baseline.txt",
    ),
    (
        env!("CARGO_BIN_EXE_ablation_backend"),
        &[],
        "ablation_backend.txt",
    ),
    (
        env!("CARGO_BIN_EXE_attack_intercept"),
        &["--backend", "pauli-twirled"],
        "attack_intercept.pauli-twirled.txt",
    ),
    (
        env!("CARGO_BIN_EXE_attack_mitm"),
        &["--backend", "pauli-twirled"],
        "attack_mitm.pauli-twirled.txt",
    ),
    (
        env!("CARGO_BIN_EXE_attack_entangle"),
        &["--backend", "pauli-twirled"],
        "attack_entangle.pauli-twirled.txt",
    ),
    (
        env!("CARGO_BIN_EXE_ablation_backend"),
        &["--trials", "3", "--etas", "0,10", "--seed", "11"],
        "ablation_backend.trials3-etas0-10-seed11.txt",
    ),
];

/// The first line where `actual` leaves `expected`, for the failure message.
fn first_difference(expected: &str, actual: &str) -> String {
    let same = expected
        .lines()
        .zip(actual.lines())
        .take_while(|(e, a)| e == a)
        .count();
    format!(
        "line {}:\n  golden: {:?}\n  actual: {:?}",
        same + 1,
        expected.lines().nth(same),
        actual.lines().nth(same)
    )
}

#[test]
fn binaries_reproduce_their_golden_outputs() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut failures = Vec::new();
    for &(binary, args, golden) in CASES {
        let expected = std::fs::read_to_string(golden_dir.join(golden))
            .unwrap_or_else(|e| panic!("cannot read golden {golden}: {e}"));
        let output = Command::new(binary)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"));
        assert!(
            output.status.success(),
            "{binary} {args:?} failed: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        if actual != expected {
            failures.push(format!(
                "{golden} ({binary} {args:?}) — {}",
                first_difference(&expected, &actual)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} outputs drifted from their goldens:\n{}",
        failures.len(),
        CASES.len(),
        failures.join("\n")
    );
}
