//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the paper-scale benchmark and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! check passed, 1 when a check failed and 2 when it refuses to run.
//!
//! Further options: `--instances a,b` (instance seeds; default 11,23,
//! held out for claims: 47,83), `--small` (the `dac2001-small` shape),
//! `--work-dir DIR` and `--print-digests`.

use perfbench::workload::{Shape, Workload};
use perfbench::{default_work_dir, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-search|lifecycle-churn> \
--seed <n> --seconds <s> --trace <0|1> [--instances a,b] [--small] [--work-dir DIR] [--print-digests]";

fn refuse(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut instances = vec![11u64, 23];
    let mut small = false;
    let mut work_dir = default_work_dir();
    let mut print_digests = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--instances" => {
                let parsed: Result<Vec<u64>, _> = value().split(',').map(str::parse).collect();
                match parsed {
                    Ok(v) if !v.is_empty() => instances = v,
                    _ => return refuse(&format!("bad --instances\n{USAGE}")),
                }
            }
            "--small" => small = true,
            "--work-dir" => work_dir = PathBuf::from(value()),
            "--print-digests" => print_digests = true,
            other => return refuse(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return refuse(USAGE);
    };

    // Environment hygiene: overrides change what is measured.
    if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("INCDES_")) {
        return refuse(&format!("refusing to run with {name} set; unset it"));
    }
    if cfg!(debug_assertions) {
        return refuse("refusing to run a non-release build; build with --release");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < workload.threads(trace) {
        return refuse(&format!(
            "refusing to run {} with --trace {}: it needs {} CPUs, this host has {nproc}",
            workload.name(),
            u8::from(trace),
            workload.threads(trace)
        ));
    }

    let opts = Options {
        workload,
        shape: if small {
            Shape::small()
        } else {
            Shape::paper()
        },
        instances,
        seed,
        seconds,
        trace,
        work_dir,
    };
    let instances: Vec<String> = opts.instances.iter().map(u64::to_string).collect();
    eprintln!(
        "perfbench: workload={} preset={} instances={} seed={seed} nproc={nproc} trace={}",
        workload.name(),
        opts.shape.preset,
        instances.join(","),
        u8::from(trace)
    );
    let result = run(&opts);
    for metric in &result.metrics {
        eprintln!(
            "  {:<30} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for (name, value, unit) in &result.extras {
        match value {
            Some(v) => eprintln!("  {name:<30} {v:>16.6} {unit}"),
            None => eprintln!("  {name:<30} {:>16} {unit}", "n/a"),
        }
    }
    for problem in &result.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    if print_digests {
        eprint!("{}", result.digest_lines);
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
