//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, drives them through the
//! public API (DTB bytes in; events, query deltas and acks out), checks
//! the outputs, and prints one JSON result as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer ledger
//! with `--trace 1`. Exits non-zero on a usage error or when any
//! correctness gate fails.

mod gen;
mod replay;
mod run;
mod score;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use workloads::{Kind, NAMES};

struct Args {
    /// The named workloads, or all four for `--workload all`.
    workloads: Vec<(Kind, &'static str)>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workloads = if name == "all" {
        NAMES
            .iter()
            .map(|n| (Kind::parse(n).expect("known"), *n))
            .collect()
    } else {
        let n = NAMES.iter().find(|n| **n == name).ok_or_else(|| {
            format!("unknown workload {name:?}; expected all or one of {NAMES:?}")
        })?;
        vec![(Kind::parse(n).expect("known"), *n)]
    };
    let parse_u64 =
        |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
    let seed = parse_u64("--seed", get("--seed")?)?;
    let seconds = parse_u64("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t:?}; expected 0 or 1")),
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The checkout's revision: `.git/HEAD` when present, else a digest of
/// the sources the benchmark builds (an exported checkout has no `.git`).
fn revision() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        if let Some(r) = head.strip_prefix("ref: ") {
            if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
                return rev.trim().to_string();
            }
        }
        return head.to_string();
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(d) = dirs.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = stats::mix64(h ^ b as u64);
        }
    }
    format!("src-{h:016x}")
}

/// Print one workload's report (and write its result files); returns
/// the JSON `metrics` object body, with names prefixed by `prefix`.
fn report(name: &str, args: &Args, o: &run::Outcome, prefix: &str) -> String {
    let prov = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu\": \"{}\", \"revision\": \"{}\"}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc(),
        esc(&stats::cpu_model()),
        revision()
    );
    let mut metrics = String::new();
    for (i, (m, v, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{prefix}{m}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    let mut raw = String::new();
    for (i, (m, vs)) in o.raw.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let vals: Vec<String> = vs.iter().map(|v| num(*v)).collect();
        let _ = write!(raw, "{sep}\"{m}\": [{}]", vals.join(", "));
    }
    let quote = |v: &[String]| -> String {
        let q: Vec<String> = v.iter().map(|e| format!("\"{}\"", esc(e))).collect();
        q.join(", ")
    };
    let record = format!(
        "{{\"provenance\": {prov}, \"errors\": [{}], \"notes\": [{}], \"raw\": {{{raw}}}, \
         \"metrics\": {{{metrics}}}}}",
        quote(&o.errors),
        quote(&o.notes)
    );
    match run::work_dir() {
        Ok(dir) => {
            let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
            let _ = std::fs::write(dir.join(format!("{stem}.json")), &record);
            if !o.spans_csv.is_empty() {
                let csv = format!("scope,name,start_ns,dur_ns\n{}", o.spans_csv);
                let _ = std::fs::write(dir.join(format!("{stem}-spans.csv")), csv);
            }
        }
        Err(e) => eprintln!("perfbench: cannot write results: {e}"),
    }
    println!("provenance: {prov}");
    for n in &o.notes {
        println!("note: {n}");
    }
    for e in &o.errors {
        println!("GATE FAILED: {e}");
    }
    for (m, vs) in &o.raw {
        let vals: Vec<String> = vs.iter().map(|v| format!("{v:.4}")).collect();
        println!("raw {m}: [{}]", vals.join(", "));
    }
    for (m, v, unit) in &o.metrics {
        println!("{m:<36} {v:>16.4} {unit}");
    }
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut all_metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for &(kind, name) in &args.workloads {
        let result = if args.trace {
            run::traced(kind, args.seed, args.seconds)
        } else {
            run::end_to_end(kind, args.seed, args.seconds)
        };
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name} failed: {e}");
                std::process::exit(1);
            }
        };
        let prefix = if args.workloads.len() > 1 {
            format!("{name}/")
        } else {
            String::new()
        };
        all_metrics.push(report(name, &args, &o, &prefix));
        correct &= o.errors.is_empty();
        attempted += o.attempted;
        failed += o.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        all_metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
