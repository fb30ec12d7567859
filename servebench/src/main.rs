//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result as one JSON object on
//! the last line. Exits non-zero on any wrong answer or failed run.

use std::path::PathBuf;
use std::process::ExitCode;

use servebench::workload::{Scale, Workload};
use servebench::{run, Options};

const USAGE: &str = "usage: servebench --workload read_heavy|write_heavy|routed --seed N \
                     --seconds S --trace 0|1 [--scale full|tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ReadHeavy,
        seed: 1,
        seconds: 16.0,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
        work_dir: PathBuf::from(".servebench"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds < 3600.0) {
                    return Err("--seconds must be within (0, 3600)".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace 0|1, got {other:?}")),
                }
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale full|tiny, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or(USAGE)?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            for m in &report.metrics {
                println!("# {:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: wrong answers (see oracle lines above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
