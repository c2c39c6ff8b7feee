//! `spinamm-perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <face-parasitic|serve|tiled-churn|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the program under test only
//! ever sees the generated inputs. With `--trace 0` the run measures the
//! end-to-end metrics untraced; with `--trace 1` it times every call into
//! a layer's public API and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `perfbench/README.md` for the workloads and the
//! metric → layer → end-to-end map.

mod face;
mod report;
mod serve;
mod spans;
mod stats;
mod tiled;

use report::{Report, Run};
use std::process::ExitCode;

/// The default seed; results under it and under [`HELD_OUT_SEED`] are
/// recorded in `perfbench/results/`.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, so a later claim can be checked on it.
const HELD_OUT_SEED: u64 = 20_261_017;

const WORKLOADS: [&str; 3] = ["face-parasitic", "serve", "tiled-churn"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, run))
}

/// Runs one workload in this process.
pub fn run_workload(workload: &str, run: &Run) -> Result<Report, String> {
    let started = stats::CpuTimes::now();
    match workload {
        "face-parasitic" => face::run(run),
        "serve" => serve::run(run),
        "tiled-churn" => tiled::run(run),
        other => Err(format!("unknown workload {other}")),
    }
    .map(|mut report| {
        report.steal = started;
        report.finish(workload, run);
        report
    })
}

/// `--workload all`: each workload in its own child process (so peak
/// memory stays per workload), one after another.
fn run_all(run: &Run) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawning {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload} exited with {status}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return match run_all(&run) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_workload(&workload, &run) {
        Ok(report) => {
            report.print(&workload, &run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod selftest;
