//! Command-line entry point:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints progress and the host record on stderr, writes a report file
//! under `out/`, and prints the result object as the last line of stdout.

use perfbench::{host_record, out_dir, run, RunConfig, Workload};
use std::process::ExitCode;
use std::time::Duration;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown option {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every option is required and must be valid");
    };
    let config = RunConfig {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
    };
    let host = host_record(&config);
    for (key, value) in &host {
        eprintln!("host.{key} = {value}");
    }
    let result = run(&config);
    for (key, value) in &result.details {
        eprintln!("{key} = {value}");
    }
    let line = result.result_line();
    let report = out_dir().join(format!(
        "{}-seed{}-trace{}.report.txt",
        workload.name(),
        seed,
        u8::from(trace)
    ));
    let mut text = String::new();
    for (key, value) in &host {
        text.push_str(&format!("host.{key} = {value}\n"));
    }
    for (key, value) in &result.details {
        text.push_str(&format!("{key} = {value}\n"));
    }
    text.push_str(&line);
    text.push('\n');
    if let Err(error) =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&report, text))
    {
        eprintln!("could not write {}: {error}", report.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
