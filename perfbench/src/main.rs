//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric measured, then a report line stamped with the
//! host fingerprint, then (last) the result line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With `--trace 0` its
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! `--workload all` runs every workload in its own child process and prints all
//! their tables; it has no result line.

use perfbench::rep::Size;
use perfbench::{host, measure, Scope, Summary, Workload, END_TO_END, PER_LAYER};
use renaissance_bench::report::Json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {}",
            args.seconds
        ));
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload takes all or one of {}",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn print_table(workload: &str, summary: &Summary) {
    let count = |kind: &str| summary.repetitions.iter().filter(|r| r.0 == kind).count();
    println!(
        "# {workload}: 1 warm-up + {} untraced + {} traced repetitions",
        count("untraced"),
        count("traced")
    );
    for (name, (scope, m)) in &summary.metrics {
        let scope = match scope {
            Scope::EndToEnd => "e2e",
            Scope::Layer => "layer",
        };
        println!(
            "{workload:<14} {scope:<5} {name:<34} {:>16.6} {:<8} {}={:.6} n={}",
            m.value, m.unit, m.tail.0, m.tail.1, m.n
        );
    }
    for violation in &summary.violations {
        println!("{workload:<14} VIOLATION {violation}");
    }
}

fn report_line(args: &Args, summary: &Summary, pinned: Option<usize>) -> Json {
    let metrics = summary
        .metrics
        .iter()
        .map(|(name, (_, m))| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                    ("tail", Json::str(m.tail.0)),
                    ("tail_value", Json::num(m.tail.1)),
                    ("n", Json::num(m.n as f64)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::fingerprint(pinned)),
        ("metrics", Json::Obj(metrics)),
        (
            "repetitions",
            Json::arr(summary.repetitions.iter().map(|&(kind, setup_s, run_s)| {
                Json::obj([
                    ("kind", Json::str(kind)),
                    ("setup_s", Json::num(setup_s)),
                    ("run_s", Json::num(run_s)),
                ])
            })),
        ),
        (
            "violations",
            Json::arr(summary.violations.iter().map(|v| Json::str(v.as_str()))),
        ),
    ])
}

/// The result line. A metric the contract names but the run did not measure is a
/// violation, except layer counts of a layer the workload never reaches, which
/// read 0.
fn result_line(args: &Args, summary: &mut Summary) -> Json {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match summary.value(name) {
            Some(value) => value,
            None if matches!(unit, "count" | "bytes" | "share") => 0.0,
            None => {
                summary.violations.push(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let failed = summary.violations.len() as u64;
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(summary.attempted.max(failed) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs every workload in a child process of this binary and prints their tables.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("perfbench: cannot locate this binary: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match output {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                let lines: Vec<&str> = text.lines().collect();
                // Everything but the child's result line: its table and report.
                for line in &lines[..lines.len().saturating_sub(1)] {
                    println!("{line}");
                }
                ok &= out.status.success();
            }
            Err(error) => {
                eprintln!("perfbench: cannot run {}: {error}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        return ExitCode::from(2);
    };
    let pinned = host::pin_to_current_cpu();
    let mut summary = measure(workload, Size::Full, args.seed, args.seconds, args.trace);
    let result = result_line(&args, &mut summary);
    print_table(&args.workload, &summary);
    println!("{}", report_line(&args, &summary, pinned));
    println!("{result}");
    ExitCode::SUCCESS
}
