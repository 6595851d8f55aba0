//! The benchmark's command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload floor105k-auction --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Prints one `# host {...}` line of host facts, one `# facts {...}` line
//! of run facts, and as the last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). Spans of a
//! traced run are written to `perfbench/traces/`.

use std::process::ExitCode;

use wsp_perfbench::{floor, host, served, sweep, Budget, Outcome, END_TO_END, PER_LAYER, THREADS};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "floor105k-auction",
    "floor105k-faults",
    "design-sweep",
    "served-sim",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn facts_json(facts: &[(String, String)]) -> String {
    let items: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget {
        seconds: args.seconds,
        min_repeats: 2,
    };
    let host_facts = vec![
        ("nproc".to_string(), host::nproc().to_string()),
        ("cpu_model".to_string(), host::cpu_model()),
        (
            "effective_parallelism".to_string(),
            format!("{:.2}", host::effective_parallelism()),
        ),
        ("threads".to_string(), THREADS.to_string()),
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
    ];
    println!("# host {}", facts_json(&host_facts));
    let outcome: Outcome = match args.workload.as_str() {
        "floor105k-auction" => floor::run(floor::Floor::Auction, args.seed, budget, args.trace),
        "floor105k-faults" => floor::run(floor::Floor::Faults, args.seed, budget, args.trace),
        "design-sweep" => sweep::run(args.seed, budget, args.trace),
        _ => served::run(args.seed, budget, args.trace),
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut complete = true;
    let mut not_exercised = Vec::new();
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let found = outcome.metrics.iter().find(|m| m.name == name);
            let value = match found {
                Some(m) if m.unit == unit && m.value.is_finite() => m.value + 0.0,
                Some(m) => {
                    eprintln!("perfbench: {name} measured {} {}", m.value, m.unit);
                    complete = false;
                    0.0
                }
                None => {
                    // An end-to-end metric is defined on every workload; a
                    // per-layer one reads 0 where its layer is not run.
                    if args.trace {
                        not_exercised.push(name);
                    } else {
                        eprintln!("perfbench: {name} was not measured");
                        complete = false;
                    }
                    0.0
                }
            };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    for m in &outcome.metrics {
        if !names.iter().any(|&(n, _)| n == m.name) {
            eprintln!("perfbench: unlisted metric {}", m.name);
            complete = false;
        }
    }
    let mut facts = outcome.facts.clone();
    if !not_exercised.is_empty() {
        facts.push(("not_exercised".to_string(), not_exercised.join(",")));
    }
    println!("# facts {}", facts_json(&facts));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct() && complete && outcome.ops.attempted > 0,
        outcome.ops.attempted.max(1),
        outcome.ops.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
