//! Measurements shared by every workload: the repeated set-up, the counter
//! deltas over the window, and the per-layer figures the traced run takes
//! from outside the program (timed calls into public functions, existing
//! counters, existing spans).

use crate::script::{median, Kind, Op};
use crate::traced::{self, SliceReport};
use crate::{alloc, Outcome};
use atlas_columnar::{Bitmap, Table};
use atlas_core::PhaseTimings;
use atlas_stats::ContingencyTable;
use std::time::Instant;

/// Times of every set-up repetition, in seconds.
#[derive(Default)]
pub struct Setup {
    pub total: Vec<f64>,
    pub ingest: Vec<f64>,
    pub prepare: Vec<f64>,
    /// Allocations and bytes of the last repetition (traced run only).
    pub alloc: (u64, u64),
}

impl Setup {
    /// Run `reps` set-ups and keep the last system. `once` gets a
    /// [`Stopwatch`] to mark where ingest ends and preparation starts.
    pub fn repeat<T>(reps: usize, mut once: impl FnMut(&mut Stopwatch) -> T) -> (T, Setup) {
        let mut setup = Setup::default();
        let mut last = None;
        for _ in 0..reps {
            // The previous system is dropped untimed, before the clock starts.
            drop(last.take());
            let before = alloc::totals();
            let mut watch = Stopwatch::default();
            let started = Instant::now();
            let system = once(&mut watch);
            setup.total.push(started.elapsed().as_secs_f64());
            setup.ingest.push(watch.ingest);
            setup.prepare.push(watch.prepare);
            let after = alloc::totals();
            setup.alloc = (after.0 - before.0, after.1 - before.1);
            last = Some(system);
        }
        (last.expect("at least one set-up ran"), setup)
    }
}

/// Component times of one set-up, filled in by the workload.
#[derive(Default)]
pub struct Stopwatch {
    pub ingest: f64,
    pub prepare: f64,
}

impl Stopwatch {
    /// Time `f` and add it to the ingest share.
    pub fn ingest<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ingest += started.elapsed().as_secs_f64();
        out
    }

    /// Time `f` and add it to the engine-preparation share.
    pub fn prepare<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.prepare += started.elapsed().as_secs_f64();
        out
    }
}

/// Always-on counters captured at the start of the window.
pub struct Counters {
    kernel: u64,
    profile: (u64, u64),
    alloc: (u64, u64),
}

impl Counters {
    pub fn now() -> Counters {
        Counters {
            kernel: kernel_calls(),
            profile: profile_counts(),
            alloc: alloc::totals(),
        }
    }
}

/// The end-to-end metrics, from the untraced run.
pub fn end_to_end(
    out: &mut Outcome,
    setup: &Setup,
    ops: &[Op],
    window_s: f64,
    tail_pct: (f64, f64),
) {
    let explore = crate::script::latency(ops, Kind::Explore, tail_pct.0);
    let drill = crate::script::latency(ops, Kind::Drill, tail_pct.1);
    let done = ops.iter().filter(|op| op.ok).count();
    out.metric("setup_s", median(&setup.total), "s");
    out.metric("explore_p50_ms", explore.p50, "ms");
    out.metric("explore_tail_ms", explore.tail, "ms");
    out.metric("drill_p50_ms", drill.p50, "ms");
    out.metric("drill_tail_ms", drill.tail, "ms");
    out.metric("ops_per_s", done as f64 / window_s, "1/s");
    out.metric("peak_rss_mb", crate::script::peak_rss_mb(), "MiB");
    out.note(format!(
        "setup_s: median of {} set-ups {:?}",
        setup.total.len(),
        setup.total
    ));
    out.note(explore.note);
    out.note(drill.note);
    out.note(format!(
        "error_rate: {} failed of {} attempted",
        out.failed, out.attempted
    ));
}

/// Per-layer metrics every workload reports the same way.
pub struct Common<'a> {
    pub setup: &'a Setup,
    pub start: &'a Counters,
    pub ops: &'a [Op],
    pub table: &'a Table,
    pub phases: &'a [PhaseTimings],
    pub sqls: &'a [String],
    pub slices: &'a SliceReport,
}

impl Common<'_> {
    pub fn report(&self, out: &mut Outcome, file_stem: &str) {
        let ops = self.ops.len().max(1) as f64;
        out.metric("columnar.csv_ingest_s", median(&self.setup.ingest), "s");
        out.metric("core.prepare_s", median(&self.setup.prepare), "s");
        out.metric(
            "columnar.segments",
            self.table.num_segments() as f64,
            "count",
        );
        let kernel = kernel_calls() - self.start.kernel;
        out.metric("kernel.calls_per_op", kernel as f64 / ops, "count");
        let (ranges, groups, contingency) = kernel_ms(self.table);
        out.metric("kernel.select_ranges_ms", ranges, "ms");
        out.metric("kernel.select_in_groups_ms", groups, "ms");
        out.metric("kernel.contingency_ms", contingency, "ms");

        let n = self.phases.len().max(1) as f64;
        let mean = |f: fn(&PhaseTimings) -> f64| self.phases.iter().map(f).sum::<f64>() / n;
        out.metric("core.phase.query_ms", mean(|t| t.query_ms), "ms");
        out.metric("core.phase.candidates_ms", mean(|t| t.candidates_ms), "ms");
        out.metric("core.phase.clustering_ms", mean(|t| t.clustering_ms), "ms");
        out.metric("core.phase.merge_ms", mean(|t| t.merge_ms), "ms");
        out.metric("core.phase.rank_ms", mean(|t| t.rank_ms), "ms");
        let (hits, misses) = profile_counts();
        let (hits, misses) = (hits - self.start.profile.0, misses - self.start.profile.1);
        out.metric(
            "core.profile_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        out.metric("query.parse_us", parse_us(self.sqls), "us");

        let (count, bytes) = alloc::totals();
        out.metric(
            "alloc.count_per_op",
            (count - self.start.alloc.0) as f64 / ops,
            "count",
        );
        out.metric(
            "alloc.bytes_per_op",
            (bytes - self.start.alloc.1) as f64 / ops,
            "bytes",
        );
        out.metric("alloc.setup_count", self.setup.alloc.0 as f64, "count");
        out.metric("alloc.setup_bytes", self.setup.alloc.1 as f64, "bytes");

        let traced_ops = self.traced_ops();
        out.metric(
            "obs.spans_per_op",
            self.slices.spans_seen as f64 / traced_ops.max(1) as f64,
            "count",
        );
        out.metric(
            "obs.trace_overhead_pct",
            self.slices
                .overhead_pct(self.ops.len() - traced_ops, traced_ops),
            "%",
        );
        out.note(format!(
            "traced slices: {traced_ops} of {} ops, {:.1} s traced / {:.1} s untraced, {} spans ({} kept)",
            self.ops.len(),
            self.slices.traced_s,
            self.slices.untraced_s,
            self.slices.spans_seen,
            self.slices.spans().len()
        ));
        let table = traced::self_times(self.slices);
        out.notes
            .extend(traced::self_time_notes(&table, traced_ops));
        out.note(traced::write_chrome(
            &format!("{file_stem}.trace.json"),
            self.slices.spans(),
        ));
    }

    /// Operations that completed in a traced slice; span totals are divided
    /// by this count.
    pub fn traced_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| self.slices.traced_at(op.end))
            .count()
    }
}

/// Sum of every `kernel.*` dispatch counter.
fn kernel_calls() -> u64 {
    atlas_obs::counters()
        .iter()
        .filter(|(name, _)| name.starts_with("kernel."))
        .map(|(_, n)| n)
        .sum()
}

/// `(hits, misses)` of the profile statistics cache.
fn profile_counts() -> (u64, u64) {
    let get = |wanted: &str| {
        atlas_obs::counters()
            .iter()
            .find(|(name, _)| *name == wanted)
            .map_or(0, |(_, n)| *n)
    };
    (get("profile.cache.hit"), get("profile.cache.miss"))
}

/// Median milliseconds of the three partition kernels on the workload's
/// table, called through their public functions: four equal-width `age`
/// bins, `education` split into two groups, and the contingency fold of the
/// two partitions.
fn kernel_ms(table: &Table) -> (f64, f64, f64) {
    const REPS: usize = 15;
    let sel = table.full_selection();
    let age = table.column("age").expect("census has age");
    let education = table.column("education").expect("census has education");
    let (lo, hi) = age.numeric_min_max(&sel).expect("age is numeric");
    let width = (hi - lo).max(1.0) / 4.0;
    let bounds: Vec<(f64, f64)> = (0..4)
        .map(|k| {
            let upper = if k == 3 {
                hi + 1.0
            } else {
                lo + (k + 1) as f64 * width
            };
            (lo + k as f64 * width, upper)
        })
        .collect();
    let mut groups: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    for (i, (name, _)) in education
        .categories_by_frequency(&sel)
        .into_iter()
        .enumerate()
    {
        groups[i % 2].push(name);
    }
    let time = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let started = Instant::now();
                f();
                started.elapsed().as_secs_f64() * 1000.0
            })
            .collect();
        median(&samples)
    };
    let mut ranges: Vec<Bitmap> = Vec::new();
    let ranges_ms = time(&mut || ranges = std::hint::black_box(age.select_ranges(&sel, &bounds)));
    let mut grouped: Vec<Bitmap> = Vec::new();
    let groups_ms =
        time(&mut || grouped = std::hint::black_box(education.select_in_groups(&sel, &groups)));
    let rows: Vec<&Bitmap> = ranges.iter().collect();
    let cols: Vec<&Bitmap> = grouped.iter().collect();
    let contingency_ms = time(&mut || {
        std::hint::black_box(ContingencyTable::from_selections(&rows, &cols));
    });
    (ranges_ms, groups_ms, contingency_ms)
}

/// Median microseconds to parse one of the workload's queries.
fn parse_us(sqls: &[String]) -> f64 {
    let samples: Vec<f64> = sqls
        .iter()
        .take(512)
        .map(|sql| {
            let started = Instant::now();
            let parsed = atlas_query::parse_query(sql);
            let us = started.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(parsed).expect("workload SQL parses");
            us
        })
        .collect();
    median(&samples)
}

/// Server-side request stations: span name → metric.
pub const SERVE_SPANS: [(&str, &str); 4] = [
    ("queue.wait", "serve.queue_wait_ms"),
    ("request.parse", "serve.request_parse_ms"),
    ("session.lock", "serve.session_lock_ms"),
    ("response.write", "serve.response_write_ms"),
];

/// Metrics seen by an HTTP client of `atlas-serve`.
pub const SERVE_CLIENT: [(&str, &str); 3] = [
    ("serve.overhead_ms", "ms"),
    ("serve.response_bytes_per_op", "bytes"),
    ("serve.append_ms", "ms"),
];

/// Metrics of the served registry's result cache.
pub const REGISTRY: [(&str, &str); 2] = [
    ("registry.cache_hit_ratio", "ratio"),
    ("registry.cache_evicted", "count"),
];

/// Metrics of the coordinator and its shards.
pub const DIST: [(&str, &str); 10] = [
    ("dist.shard_calls_per_op", "count"),
    ("dist.wire_bytes_per_op", "bytes"),
    ("dist.shard_call_ms", "ms"),
    ("dist.shard_compute_ms", "ms"),
    ("dist.transport_ms", "ms"),
    ("dist.coordinator_self_ms", "ms"),
    ("dist.retries", "count"),
    ("dist.hedges_launched", "count"),
    ("dist.hedges_won", "count"),
    ("dist.circuit_skips", "count"),
];

/// Report every metric of `names` as absent for `reason`.
pub fn absent(out: &mut Outcome, names: &[(&'static str, &'static str)], reason: &str) {
    for (name, unit) in names {
        out.absent(name, unit, reason);
    }
}

/// The server-side request stations, per traced operation.
pub fn serve_spans(out: &mut Outcome, spans: &[atlas_obs::SpanRecord], traced_ops: usize) {
    for (span, metric) in SERVE_SPANS {
        let ms = traced::total_ms(spans, |s| s.name == span);
        out.metric(metric, ms / traced_ops.max(1) as f64, "ms");
    }
}
