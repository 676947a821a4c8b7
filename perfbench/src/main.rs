//! Atlas explore/drill latency benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local-1m|serve-mixed|dist-2shard> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. With `--trace 0` the run measures the
//! end-to-end metrics with tracing off; with `--trace 1` it turns tracing on
//! in alternating slices of the window and reports the per-layer metrics.
//! Every answer is checked; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. WORKLOADS.md
//! explains the workloads and what each metric should move.

mod alloc;
mod dist;
mod layers;
mod local;
mod relay;
mod script;
mod serve;
mod single;
mod traced;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::time::Duration;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answers checked against a reference and found different.
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A per-layer metric the workload has no such layer for: reported as 0
    /// with the reason beside it.
    pub fn absent(&mut self, name: &'static str, unit: &'static str, reason: &str) {
        self.notes.push(format!("absent: {name} = 0 ({reason})"));
        self.metric(name, 0.0, unit);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // Tracing is the traced run's business only, whatever the environment.
    atlas_obs::set_enabled(false);
    if args.trace {
        alloc::start();
    }
    let outcome = match args.workload.as_str() {
        "local-1m" => local::run(&args),
        "serve-mixed" => serve::run(&args),
        "dist-2shard" => dist::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: the window completed no operation");
        std::process::exit(1);
    }
    for line in &outcome.notes {
        println!("# {line}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
