//! The repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! benchmark run <name> | trace <name>     the same, by name (seed 1, BENCHMARK.json's seconds)
//! benchmark all [--seed n] [--runs k] [--out file]     every workload, one result file
//! benchmark diff <base.json> <change.json>             verdict per workload and metric
//! ```

mod check;
mod gen;
mod layers;
mod os;
mod report;
mod run;
mod stats;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;
use report::Spec;
use sut::Res;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Res<Args> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut words = std::env::args().skip(1);
        while let Some(word) = words.next() {
            match word.strip_prefix("--") {
                Some(flag) => {
                    let value = words.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.positional.push(word),
            }
        }
        Ok(args)
    }

    fn flag<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        let found = self.flags.iter().find(|(flag, _)| flag == name);
        found
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("--{name} {v}: not understood"))
            })
            .transpose()
    }

    /// `--seed` (1), `--seconds` (`BENCHMARK.json`'s) and `--warmup`.
    fn seed_and_times(&self, spec: &Spec) -> Res<(u64, f64, f64)> {
        Ok((
            self.flag("seed")?.unwrap_or(1),
            self.flag("seconds")?.unwrap_or(spec.run_seconds),
            self.flag("warmup")?.unwrap_or(run::WARMUP_S),
        ))
    }
}

/// One run in this process; its last line of standard output is the
/// driver's JSON object.
fn one_run(spec: &Spec, args: &Args, workload: &str, trace: bool) -> Res<()> {
    let workload = Workload::parse(workload).ok_or(format!("no workload named {workload}"))?;
    let (seed, seconds, warmup_s) = args.seed_and_times(spec)?;
    let title = format!(
        "{} seed {seed}, {warmup_s} s warm-up + {seconds} s",
        workload.name()
    );
    let line = if trace {
        let (outcome, tracer) = layers::per_layer(workload, seed, warmup_s, seconds)?;
        report::print_table(&title, &outcome, &spec.per_layer);
        report::write_trace(spec, workload.name(), seed, &outcome, &tracer)?;
        report::driver_line(&outcome, &spec.per_layer, false)?
    } else {
        let outcome = run::end_to_end(workload, seed, warmup_s, seconds)?;
        report::print_table(&title, &outcome, &spec.end_to_end);
        report::driver_line(&outcome, &spec.end_to_end, true)?
    };
    println!("{line}");
    Ok(())
}

fn real_main() -> Res<ExitCode> {
    let spec = Spec::load();
    let args = Args::parse()?;
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match words.as_slice() {
        [] => {
            let workload: String = args
                .flag("workload")?
                .ok_or("--workload <name> is required")?;
            let trace: u8 = args.flag("trace")?.unwrap_or(0);
            one_run(&spec, &args, &workload, trace == 1)?;
        }
        ["run", workload] => one_run(&spec, &args, workload, false)?,
        ["trace", workload] => one_run(&spec, &args, workload, true)?,
        ["all"] => {
            let (seed, seconds, warmup_s) = args.seed_and_times(&spec)?;
            let out = args.flag::<PathBuf>("out")?;
            let out = out.unwrap_or_else(|| report::results_dir().join(format!("seed{seed}.json")));
            report::all(
                &spec,
                seed,
                seconds,
                warmup_s,
                args.flag("runs")?.unwrap_or(1),
                &out,
            )?;
        }
        ["diff", base, change] => {
            if report::diff(&spec, base.as_ref(), change.as_ref())? {
                return Ok(ExitCode::FAILURE);
            }
        }
        other => {
            return Err(format!(
                "not understood: {other:?} (see benchmark/README.md)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
