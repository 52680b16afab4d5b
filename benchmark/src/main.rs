//! The TROPIC end-to-end benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! tropic-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! tropic-benchmark run    [--seed N] [--seconds S] [--workload NAME] [--smoke]
//! tropic-benchmark repeat [--seed N] [--seconds S] [--workload NAME] [--smoke]
//! ```
//!
//! Without a subcommand it runs one pass of one workload in this process
//! and prints the pass's result as one JSON object on the last line of
//! standard output. `run` and `repeat` run such passes as child processes.

mod live;
mod metrics;
mod pass;
mod probes;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

use pass::Sizing;
use workload::{Workload, WORKLOADS};

/// Parsed command line, shared by the three modes.
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: metrics::BenchmarkJson::load().run_seconds,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            "run" | "repeat" if args.command.is_none() => args.command = Some(arg.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

fn one_pass(args: &Args) -> Result<(), String> {
    let wl = args
        .workload
        .ok_or("a pass needs --workload (or use the `run` subcommand)")?;
    let sizing = match args.smoke {
        true => Sizing::smoke(),
        false => Sizing::full(args.seconds),
    };
    let result = pass::run(wl, args.seed, &sizing, args.trace)?;
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| format!("encode result: {e}"))?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| match args.command.as_deref() {
        None => one_pass(&args),
        Some("run") => report::run(&args),
        Some(_) => report::repeat(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_command_line() {
        let argv: Vec<String> = "--workload inproc_mem_1k --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse(&argv).unwrap();
        assert_eq!(args.workload.unwrap().name, "inproc_mem_1k");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3, true));
        assert!(args.command.is_none() && !args.smoke);
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--trace".into(), "2".into()]).is_err());
    }

    /// `--smoke` sizes (not for reported numbers) drive every workload,
    /// both passes, and every output check.
    #[test]
    fn smoke_drives_every_workload_and_check() {
        for wl in &WORKLOADS {
            for trace in [false, true] {
                let r = pass::run(wl, 5, &Sizing::smoke(), trace).unwrap();
                assert!(r.correct, "{} trace={trace}", wl.name);
                assert_eq!(r.failed, 0, "{}", wl.name);
                assert!(r.attempted > 0, "{}", wl.name);
                let expected = match trace {
                    true => metrics::PER_LAYER.len(),
                    false => metrics::END_TO_END.len(),
                };
                assert_eq!(r.metrics.len(), expected, "{}", wl.name);
            }
        }
    }
}
