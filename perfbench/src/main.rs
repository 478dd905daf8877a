//! `perfbench` — the in-process program of the repository benchmark.
//!
//! ```text
//! perfbench --seed N --seconds S --trace 0|1 --counters-out PATH
//!           [--records N] [--inputs 0-1,2-3] [--batch N] [--query-every K]
//!           [--apps a,b,...] [--perturb]
//! ```
//!
//! It runs Thermometer's profile-guided loop (see `pipeline.rs`) on the
//! cells the flags describe and prints one JSON line: metrics with units,
//! attempted and failed cell counts, failed output checks, and
//! pass-through strings. `perfbench/run.py` builds this binary, picks the
//! flags of a named workload and turns that line into the benchmark result.

mod calibrate;
mod pipeline;
mod report;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::Report;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --seed N --seconds S --trace 0|1 --counters-out PATH [--flag value]..."
    );
    std::process::exit(2);
}

/// `--flag value` pairs; `--perturb` is the only bare flag.
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let value = if name == "perturb" {
            String::new()
        } else {
            iter.next()
                .unwrap_or_else(|| usage(&format!("missing value after {flag}")))
                .clone()
        };
        flags.insert(name.to_owned(), value);
    }
    flags
}

fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> T {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad value {v:?} for --{name}"))),
        None => default.unwrap_or_else(|| usage(&format!("--{name} is required"))),
    }
}

/// `0-1,2-3` → `[(0, 1), (2, 3)]`.
fn parse_pairs(s: &str) -> Option<Vec<(u32, u32)>> {
    s.split(',')
        .map(|pair| {
            let (a, b) = pair.split_once('-')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args);
    let apps: String = get(&flags, "apps", Some(String::new()));
    let inputs: String = get(&flags, "inputs", Some("0-1".to_owned()));
    let pipeline_args = pipeline::PipelineArgs {
        seed: get(&flags, "seed", None),
        input_pairs: parse_pairs(&inputs)
            .unwrap_or_else(|| usage("--inputs wants TRAIN-TEST[,TRAIN-TEST...] input ids")),
        seconds: get(&flags, "seconds", None),
        trace: get::<u8>(&flags, "trace", None) != 0,
        records: get(&flags, "records", Some(400_000)),
        batch: get(&flags, "batch", Some(2_000)),
        query_every: get(&flags, "query-every", Some(4)),
        apps: apps
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect(),
        counters_out: get(&flags, "counters-out", None),
        perturb: flags.contains_key("perturb"),
    };
    let mut report = Report::default();
    pipeline::run(&pipeline_args, &mut report);
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
