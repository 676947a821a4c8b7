//! `local-1m`: one analyst on an in-process `explorer::Session` over a
//! 1M-row census. `columnar` and `core` do nearly all the work, and `serve`
//! none: a kernel or pipeline change shows here, a serve or shard change
//! should not.

use crate::layers::{self, Common, Counters, Setup};
use crate::script::Until;
use crate::script::{self, engine_config, nproc};
use crate::single::{self, Explorer};
use crate::traced::Slices;
use crate::{Args, Outcome};
use atlas_core::{Atlas, MapResult};
use atlas_explorer::Session;
use atlas_query::ConjunctiveQuery;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: usize = 1_000_000;
/// Set-up is repeated and its median reported: one parse of 1M rows varies
/// by ±15% between runs of the same process.
pub const SETUP_REPS: usize = 5;
pub const WARMUP: u64 = 3;
/// Every fixed percentile has at least ten samples beyond it at the
/// default window on a 2-vCPU machine.
pub const TAIL_PCT: (f64, f64) = (95.0, 95.0);
/// Answers re-computed on a sequential reference engine, spread evenly over
/// the window (every answer is also checked structurally).
const VERIFIED: usize = 24;

struct Local(Session);

impl Explorer for Local {
    fn explore(&mut self, query: ConjunctiveQuery) -> Result<(), String> {
        self.0.submit(query).map(|_| ()).map_err(|e| e.to_string())
    }

    fn drill(&mut self, region: usize) -> Result<(), String> {
        self.0
            .drill_down(0, region)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn current(&self) -> Option<(&ConjunctiveQuery, &MapResult)> {
        self.0.current().map(|step| (&step.query, &step.result))
    }

    fn tidy(&mut self) {
        self.0.trim_history(4);
    }
}

pub fn run(args: &Args) -> Outcome {
    let csv = script::census_csv(ROWS, args.seed);
    let config = engine_config(nproc());
    let (engine, setup) = Setup::repeat(SETUP_REPS, |watch| {
        let table = Arc::new(watch.ingest(|| script::ingest(&csv, true)));
        watch.prepare(|| Atlas::new(table, config.clone()).expect("fast config is valid"))
    });
    drop(csv);
    let table = Arc::clone(engine.table());
    let mut local = Local(Session::with_engine(engine));

    let warm = single::run(&mut local, args.seed, 0, Until::Count(WARMUP), |_| {});
    let start = Counters::now();
    let slices = args.trace.then(|| Slices::start(Duration::from_secs(1)));
    let record = single::run(
        &mut local,
        args.seed,
        warm.next_interaction,
        Until::Deadline(Instant::now() + args.window),
        |_| {
            if let Some(slices) = &slices {
                slices.drain();
            }
        },
    );
    let end = Instant::now();
    let slices = slices.map(|s| s.finish(end));

    let mut out = Outcome {
        attempted: record.ops.len() as u64,
        failed: record.failed + warm.failed,
        ..Outcome::default()
    };
    // Verify: every warm-up answer and an even spread of the window's.
    let reference = Atlas::new(Arc::clone(&table), engine_config(1)).expect("fast config is valid");
    let stride = (record.answers.len() / VERIFIED).max(1);
    let sample: Vec<_> = warm
        .answers
        .iter()
        .chain(record.answers.iter().step_by(stride))
        .collect();
    let mismatches = single::verify(&reference, &sample) + record.malformed + warm.malformed;
    out.mismatches = mismatches;
    out.failed += mismatches;
    out.note(format!(
        "verified {} answers against a parallelism-1 engine and {} structurally; {mismatches} wrong",
        sample.len(),
        record.answers.len() + warm.answers.len()
    ));
    out.note(format!(
        "script digest of the {WARMUP} warm-up interactions (seed {}): {:016x}",
        args.seed, warm.digest
    ));

    match &slices {
        None => layers::end_to_end(&mut out, &setup, &record.ops, record.window_s, TAIL_PCT),
        Some(slices) => {
            Common {
                setup: &setup,
                start: &start,
                ops: &record.ops,
                table: &table,
                phases: &record.phases,
                sqls: &record.sqls,
                slices,
            }
            .report(&mut out, &format!("local-1m-seed{}", args.seed));
            out.metric(
                "explorer.overhead_ms",
                script::median(&record.overhead_ms),
                "ms",
            );
            let no_http = "local-1m has no HTTP front-end";
            let spans: Vec<_> = layers::SERVE_SPANS
                .iter()
                .map(|(_, m)| (*m, "ms"))
                .collect();
            layers::absent(&mut out, &spans, no_http);
            layers::absent(&mut out, &layers::SERVE_CLIENT, no_http);
            layers::absent(&mut out, &layers::REGISTRY, "local-1m serves no registry");
            layers::absent(&mut out, &layers::DIST, "local-1m has no shards");
        }
    }
    out
}
