//! End-to-end and per-layer benchmark of the widen → schedule →
//! allocate → simulate stack. See `perfbench/README.md` for the
//! workloads, the metrics and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 \
//!     [--corpus default|heldout] [--print-digests]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when
//! every output check passed.

mod check;
mod layers;
mod pace;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use check::Tally;
use workload::{Checks, Corpus, Workload};

/// The end-to-end metrics with their units.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

struct Args {
    workload: Workload,
    corpus: Corpus,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut corpus, mut print_digests) = (Corpus::Default, false);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--corpus" => corpus = Corpus::parse(&value).ok_or_else(bad)?,
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        corpus,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        print_digests,
    })
}

fn result_json(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out + "}}"
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--corpus default|heldout] [--print-digests]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let checks = Checks {
        corpus: args.corpus.name(),
        print: args.print_digests,
    };
    let mut tally = Tally::default();
    // A traced run needs only one untraced pass, for the overhead.
    let traced = args.trace || args.print_digests;
    if args.print_digests {
        workload::measure(w, args.corpus, args.seed, 0.0, checks, &mut tally);
    }
    let (wall, setup, peak_rss) = if traced {
        let wall = workload::reference_pass(w, args.corpus, args.seed, checks, &mut tally);
        eprintln!(
            "perfbench: {} seed {}: untraced wall {wall} s",
            w.name(),
            args.seed
        );
        (wall, f64::NAN, f64::NAN)
    } else {
        let s = workload::measure(w, args.corpus, args.seed, args.seconds, checks, &mut tally);
        eprintln!(
            "perfbench: {} seed {}: host wall {} s, host setup {} s, pace {} s; \
             seconds per shard per round {:?}; reference kernel seconds {:?}",
            w.name(),
            args.seed,
            s.raw_wall(),
            s.raw_setup(),
            s.pace(),
            s.shard,
            s.pace
        );
        (s.wall(), s.setup(), s.peak_rss_mib)
    };
    let metrics: Vec<(&str, f64, &str)> = if traced {
        let m = layers::traced(w, args.corpus, args.seed, wall, checks, &mut tally);
        let zero: Vec<&str> = m
            .iter()
            .filter(|(_, v)| **v == 0.0)
            .map(|(k, _)| *k)
            .collect();
        eprintln!("perfbench: reads 0 on {}: {}", w.name(), zero.join(" "));
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m[name], unit))
            .collect()
    } else {
        let values = [wall, setup, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    if args.print_digests {
        return ExitCode::SUCCESS;
    }
    println!("{}", result_json(&tally, &metrics));
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut t = Tally::default();
        t.record(true, String::new);
        let line = result_json(&t, &[("wall_s", 1.25, "s"), ("x", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn end_to_end_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = json
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|s| s.split("\"per_layer\"").next())
            .expect("end_to_end section");
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{name} missing or unit differs");
        }
    }
}
