//! Man-in-the-middle attack simulation (Sections III-C and IV).
//!
//! Runs the checked-in `campaigns/attack_mitm.json` definition (rebuilt via
//! [`bench::campaigns::attack_campaign`] when `--backend` overrides the
//! stored substrate).

use analysis::report::render_markdown_table;
use bench::campaigns::attack_experiment_rows;
use bench::ChannelAttackKind;

fn main() {
    let backend = bench::backend_from_args();
    bench::announce_parallelism();
    let (attacked, honest) =
        attack_experiment_rows(ChannelAttackKind::ManInTheMiddle, backend, 20, 13).unwrap_or_else(
            |e| {
                eprintln!("attack_mitm: {e}");
                std::process::exit(2)
            },
        );
    println!("# Man-in-the-middle attack vs honest channel ({backend} backend)\n");
    let cells: Vec<Vec<String>> = [attacked, honest]
        .iter()
        .map(|r| {
            vec![
                r.attack.clone(),
                r.trials.to_string(),
                r.delivered.to_string(),
                format!("{:.3}", r.detection_rate),
                format!("{:.3}", r.mean_chsh_round1.unwrap_or(f64::NAN)),
                format!("{:.3}", r.mean_chsh_round2.unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &[
                "scenario",
                "trials",
                "delivered",
                "detection rate",
                "mean S1",
                "mean S2"
            ],
            &cells
        )
    );
    println!("expected shape: Eve's substituted qubits give S2 ≤ 2 → protocol aborts every time.");
}
