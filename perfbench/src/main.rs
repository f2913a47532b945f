//! `prio-perfbench`: the repository's benchmark.
//!
//! One run measures one workload in a closed loop for `--seconds` and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Any oracle mismatch makes the run incorrect and the
//! exit code 1. See `README.md` beside this package for the workloads,
//! the metrics and what each layer metric is predicted to move.

mod alloc;
mod host;
mod oracle;
mod probes;
mod run;
mod spans;
mod stats;
mod workload;

use prio_afe::linreg::LinRegAfe;
use prio_afe::sum::SumAfe;
use prio_field::{Field128, Field64};
use run::{Args, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use workload::AfeKind;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: prio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--flip-expected-bit]

workloads: sum8-s3-tcp, linreg12-f128-s2-sim, wan-adversarial-s3";

fn usage_error(msg: &str) -> ! {
    eprintln!("prio-perfbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        flip_expected_bit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage_error("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            "--tiny" => args.tiny = true,
            "--flip-expected-bit" => args.flip_expected_bit = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        usage_error("missing --workload");
    }
    args
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn out_dir() -> PathBuf {
    host::repo_root().join("perfbench").join("out")
}

fn main() {
    let args = parse_args();
    let Some(spec) = workload::specs()
        .into_iter()
        .find(|s| s.name == args.workload)
    else {
        usage_error(&format!("unknown workload {}", args.workload));
    };
    let mut host = host::Host::capture();
    let mut report: Report = match spec.afe {
        AfeKind::Sum8 => run::run::<Field64, _>(&spec, SumAfe::new(8), &args),
        AfeKind::LinReg12 => run::run::<Field128, _>(&spec, LinRegAfe::new(12, 16), &args),
    };
    host.finish();

    let dir = out_dir();
    let kind = if args.trace { "layers" } else { "e2e" };
    let _ = std::fs::create_dir_all(&dir);
    if let Some(trace) = report.chrome_trace.take() {
        let path = dir.join(format!("trace-{}.json", spec.name));
        match prio_obs::trace::check_chrome_json(&trace) {
            Ok(check) => report.notes.push(format!(
                "trace: {} ({} spans over {} batches; passes the prio-trace checker)",
                path.display(),
                check.events,
                check.batches
            )),
            Err(e) => report
                .oracle
                .check(false, || format!("trace export is invalid: {e}")),
        }
        if let Err(e) = std::fs::write(&path, trace) {
            report
                .oracle
                .check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }

    println!(
        "prio-perfbench {} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json());
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!(
            "  {:<38} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for failure in report.oracle.failures() {
        println!("ORACLE FAILURE: {failure}");
    }

    let correct = report.oracle.passed();
    let mut metrics = String::new();
    let mut notes = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
        let _ = write!(
            notes,
            "{sep}\"{}\": \"{}\"",
            m.name,
            m.note.replace('"', "'")
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    let failures: Vec<String> = report
        .oracle
        .failures()
        .iter()
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"notes\": {{{notes}}}, \"failures\": [{}], \"result\": {result}}}\n",
        spec.name,
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        failures.join(", ")
    );
    let _ = std::fs::write(dir.join(format!("{}-{kind}.json", spec.name)), record);
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 })
}
