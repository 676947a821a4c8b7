//! The traced run's machinery: tracing switched on in alternating slices of
//! the window (so traced and untraced throughput come from the same time
//! span and the same data drift), the ring drained after every operation,
//! and the collected spans turned into per-layer figures.

use atlas_obs::SpanRecord;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Spans kept for analysis; beyond this they are only counted, which bounds
/// the traced run's memory.
const MAX_KEPT_SPANS: usize = 400_000;

/// Zero-duration records (point events such as `kernel.dispatch`, hundreds
/// per distributed operation) are all counted but only this many kept.
const MAX_KEPT_EVENTS: usize = 50_000;

/// Records written to the Chrome trace (the first ones of the window).
const MAX_DUMPED_SPANS: usize = 100_000;

#[derive(Default)]
struct Store {
    spans: Vec<SpanRecord>,
    events_kept: usize,
    events: BTreeMap<String, u64>,
}

/// Tracing toggled every `slice`: even slices untraced, odd slices traced.
pub struct Slices {
    start: Instant,
    slice: Duration,
    stop: Arc<AtomicBool>,
    toggler: Option<JoinHandle<()>>,
    store: Mutex<Store>,
    seen: AtomicU64,
}

impl Slices {
    /// Start slicing now (slice 0 is untraced).
    pub fn start(slice: Duration) -> Slices {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let toggler = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                let index = start.elapsed().as_nanos() / slice.as_nanos().max(1);
                atlas_obs::set_enabled(index % 2 == 1);
                std::thread::sleep(Duration::from_millis(2));
            }
            atlas_obs::set_enabled(false);
        });
        Slices {
            start,
            slice,
            stop,
            toggler: Some(toggler),
            store: Mutex::new(Store::default()),
            seen: AtomicU64::new(0),
        }
    }

    /// Whether instant `t` falls in a traced slice.
    pub fn traced_at(&self, t: Instant) -> bool {
        odd_slice(self.start, self.slice, t)
    }

    /// Move every recorded span out of the ring (snapshot, then clear).
    /// Called after each operation, so the ring never wraps.
    pub fn drain(&self) {
        let mut store = self
            .store
            .lock()
            .expect("span store lock is never poisoned");
        let spans = atlas_obs::tracer().snapshot();
        atlas_obs::tracer().clear();
        self.seen.fetch_add(spans.len() as u64, Ordering::Relaxed);
        for span in spans {
            if span.duration_us == 0 {
                *store.events.entry(span.name.clone()).or_default() += 1;
                if store.events_kept >= MAX_KEPT_EVENTS {
                    continue;
                }
                store.events_kept += 1;
            } else if store.spans.len() >= MAX_KEPT_SPANS + store.events_kept {
                continue;
            }
            store.spans.push(span);
        }
    }

    /// Stop toggling at `end` and return the window's split and the spans.
    pub fn finish(mut self, end: Instant) -> SliceReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(toggler) = self.toggler.take() {
            toggler.join().expect("the toggler thread does not panic");
        }
        self.drain();
        let total = end.saturating_duration_since(self.start).as_secs_f64();
        let slice = self.slice.as_secs_f64();
        let whole = (total / slice).floor();
        let partial = total - whole * slice;
        let whole = whole as u64;
        let traced = (whole / 2) as f64 * slice + if whole % 2 == 1 { partial } else { 0.0 };
        SliceReport {
            start: self.start,
            slice: self.slice,
            untraced_s: total - traced,
            traced_s: traced,
            spans_seen: self.seen.load(Ordering::Relaxed),
            store: std::mem::take(&mut *self.store.lock().expect("span store lock")),
        }
    }
}

fn odd_slice(start: Instant, slice: Duration, t: Instant) -> bool {
    (t.saturating_duration_since(start).as_nanos() / slice.as_nanos()) % 2 == 1
}

/// The outcome of a sliced window.
pub struct SliceReport {
    start: Instant,
    slice: Duration,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub spans_seen: u64,
    store: Store,
}

impl SliceReport {
    /// The kept spans, in drain order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.store.spans
    }

    /// Whether instant `t` fell in a traced slice.
    pub fn traced_at(&self, t: Instant) -> bool {
        odd_slice(self.start, self.slice, t)
    }

    /// How much slower traced slices ran than untraced ones, in percent of
    /// the traced rate, from operations completed per second in each.
    pub fn overhead_pct(&self, untraced_ops: usize, traced_ops: usize) -> f64 {
        let untraced = untraced_ops as f64 / self.untraced_s.max(1e-9);
        let traced = traced_ops as f64 / self.traced_s.max(1e-9);
        (untraced / traced.max(1e-9) - 1.0) * 100.0
    }
}

/// Parent/child structure over a set of spans.
pub struct SpanIndex<'a> {
    spans: &'a [SpanRecord],
    children: HashMap<(u64, u64), Vec<usize>>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(spans: &'a [SpanRecord]) -> SpanIndex<'a> {
        let mut children: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            if span.parent_id != 0 {
                children
                    .entry((span.trace_id, span.parent_id))
                    .or_default()
                    .push(i);
            }
        }
        SpanIndex { spans, children }
    }

    fn kids(&self, i: usize) -> &[usize] {
        let span = &self.spans[i];
        self.children
            .get(&(span.trace_id, span.span_id))
            .map_or(&[], Vec::as_slice)
    }

    /// Microseconds of span `i` covered by the given child intervals.
    fn covered(&self, i: usize, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
        let span = &self.spans[i];
        let mut parts: Vec<(u64, u64)> = intervals
            .map(|(s, e)| (s.max(span.start_us), e.min(span.end_us())))
            .filter(|(s, e)| e > s)
            .collect();
        parts.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (s, e) in parts {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// A span's self time: its duration minus the part its children cover.
    pub fn self_us(&self, i: usize) -> u64 {
        let kids = self
            .kids(i)
            .iter()
            .map(|&k| (self.spans[k].start_us, self.spans[k].end_us()));
        self.spans[i].duration_us - self.covered(i, kids)
    }

    /// Span `i`'s duration minus the part covered by descendants named `name`.
    pub fn uncovered_by(&self, i: usize, name: &str) -> u64 {
        let mut found = Vec::new();
        let mut stack: Vec<usize> = self.kids(i).to_vec();
        while let Some(k) = stack.pop() {
            let span = &self.spans[k];
            if span.name == name {
                found.push((span.start_us, span.end_us()));
            } else {
                stack.extend_from_slice(self.kids(k));
            }
        }
        self.spans[i].duration_us - self.covered(i, found.into_iter())
    }
}

/// Per span name: (spans, total µs, self µs).
pub type SelfTimes = BTreeMap<String, (u64, u64, u64)>;

/// The self-time table. Traces rooted at a shard-local `shard.request` are
/// left out: the coordinator adopts a copy of each under its `shard.call`,
/// and counting both would double the shard side.
pub fn self_times(report: &SliceReport) -> SelfTimes {
    let spans = report.spans();
    let index = SpanIndex::new(spans);
    let shard_local: HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent_id == 0 && s.name == "shard.request")
        .map(|s| s.trace_id)
        .collect();
    let mut table = SelfTimes::new();
    for (name, count) in &report.store.events {
        table.entry(name.clone()).or_default().0 += count;
    }
    for (i, span) in spans.iter().enumerate() {
        if span.duration_us == 0 || shard_local.contains(&span.trace_id) {
            continue;
        }
        let entry = table.entry(span.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += span.duration_us;
        entry.2 += index.self_us(i);
    }
    table
}

/// Total milliseconds of spans matching `keep`.
pub fn total_ms(spans: &[SpanRecord], keep: impl Fn(&SpanRecord) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.duration_us as f64 / 1000.0)
        .fold(0.0, |a, b| a + b)
}

/// Write the first kept spans as Chrome trace-event JSON under `.bench_out/`.
pub fn write_chrome(file_name: &str, spans: &[SpanRecord]) -> String {
    let spans = &spans[..spans.len().min(MAX_DUMPED_SPANS)];
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(file_name);
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, atlas_obs::chrome_trace_json(spans)));
    match result {
        Ok(()) => format!("chrome trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => format!("chrome trace not written to {}: {e}", path.display()),
    }
}

/// The self-time table as note lines, per traced operation.
pub fn self_time_notes(table: &SelfTimes, traced_ops: usize) -> Vec<String> {
    let per_op = traced_ops.max(1) as f64;
    let mut rows: Vec<(&String, &(u64, u64, u64))> = table.iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let mut notes = vec![format!(
        "self time per traced op ({traced_ops} ops): span  count/op  total_ms/op  self_ms/op"
    )];
    for (name, (count, total, own)) in rows {
        notes.push(format!(
            "  {name:<22} {:>9.2} {:>12.3} {:>11.3}",
            *count as f64 / per_op,
            *total as f64 / 1000.0 / per_op,
            *own as f64 / 1000.0 / per_op
        ));
    }
    notes
}
