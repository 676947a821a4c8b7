//! `serve-mixed`: `atlas-serve` in-process over a 200k-row census, one
//! closed-loop HTTP client session per hardware thread, the shared result
//! cache on, and one client appending a CSV batch every few rounds. The only
//! workload with HTTP, sessions, the result cache and writes beside reads.

use crate::layers::{self, Common, Counters, Setup};
use crate::script::{
    self, engine_config, nproc, Fingerprint, Kind, Op, Until, DRILLS_PER_INTERACTION,
};
use crate::traced::Slices;
use crate::{Args, Outcome};
use atlas_columnar::Table;
use atlas_core::{Atlas, PhaseTimings};
use atlas_serve::wire::{self, Json};
use atlas_serve::{Client, DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ROWS: usize = 200_000;
const CACHE_CAPACITY: usize = 64;
/// A 200k-row set-up takes a quarter of a second and varies by half of
/// that between runs, so it is repeated more often than the 1M-row ones.
const SETUP_REPS: usize = 11;
const WARMUP: u64 = 2;
/// Thousands of explores and drills per window put a hundred samples past
/// the 99th percentile.
const TAIL_PCT: (f64, f64) = (99.0, 99.0);
/// Rows per appended batch: one new segment per append.
const BATCH_ROWS: usize = 2_000;
/// Distinct pre-rendered batches; appends cycle through them.
const BATCHES: usize = 16;
/// Client 0 appends after every this many of its interactions.
const APPEND_EVERY: u64 = 25;
/// The skew: an explore repeats one of `HOT` queries with probability
/// `P_HOT`, else asks a fresh one. Hot explores and their drills are what
/// the result cache can answer.
const HOT: usize = 4;
const P_HOT: f64 = 0.33;
/// One answer in this many is re-computed on an in-process engine at the
/// same dataset generation.
const VERIFY_ONE_IN: u32 = 8;

/// The dataset generation as clients see it: appends started, appends
/// acknowledged, and the batches applied in order.
#[derive(Default)]
struct Generations {
    started: AtomicU64,
    done: AtomicU64,
    applied: Mutex<Vec<usize>>,
}

impl Generations {
    /// The generation, when no append is in flight.
    fn stable(&self) -> Option<u64> {
        let done = self.done.load(Ordering::SeqCst);
        (self.started.load(Ordering::SeqCst) == done).then_some(done)
    }
}

/// One served operation.
struct Served {
    op: Op,
    cache_hit: bool,
    body_bytes: usize,
    phases: Option<PhaseTimings>,
}

/// A served answer to check later: `sql` answered at `generation`.
struct Sample {
    generation: u64,
    sql: String,
    print: Fingerprint,
}

#[derive(Default)]
struct ClientLog {
    ops: Vec<Served>,
    samples: Vec<Sample>,
    sqls: Vec<String>,
    failed: u64,
    appends: u64,
}

struct Workload<'a> {
    addr: std::net::SocketAddr,
    seed: u64,
    hot: Vec<String>,
    batches: &'a [Vec<u8>],
    generations: &'a Generations,
    slices: Option<&'a Slices>,
}

enum Step {
    Explore(String),
    Drill(usize),
}

impl Workload<'_> {
    /// One closed-loop client `c` on its own session: interactions
    /// `first..` until `stop`.
    fn client(&self, c: u64, token: &str, first: u64, stop: Until, log: &mut ClientLog) {
        let client = Client::new(self.addr);
        let explore_path = format!("/sessions/{token}/explore");
        let drill_path = format!("/sessions/{token}/drill");
        let mut i = first;
        while !stop.reached(i - first) {
            let mut rng = script::rng(self.seed, 2 + c, i);
            let mut sampler = script::rng(self.seed, 1000 + c, i);
            let sql = if rng.gen_bool(P_HOT) {
                self.hot[rng.gen_range(0..HOT)].clone()
            } else {
                script::random_query(&mut rng)
            };
            log.sqls.push(sql.clone());
            let mut step = Step::Explore(sql.clone());
            let mut step_sql = sql;
            // The generation the session's current step was answered at.
            let mut screen: Option<u64> = None;
            for _ in 0..=DRILLS_PER_INTERACTION {
                let before = self.generations.stable();
                let start = Instant::now();
                let reply = match &step {
                    Step::Explore(sql) => client.post_text(&explore_path, sql),
                    Step::Drill(region) => client.post_json(
                        &drill_path,
                        &Json::object(vec![
                            ("map", Json::from(0usize)),
                            ("region", Json::from(*region)),
                        ]),
                    ),
                };
                let end = Instant::now();
                let after = self.generations.stable();
                let kind = match step {
                    Step::Explore(_) => Kind::Explore,
                    Step::Drill(_) => Kind::Drill,
                };
                let answer = reply.ok().filter(|r| r.status == 200).and_then(|r| {
                    let json = wire::parse(r.body_text()?).ok()?;
                    let print = Fingerprint::from_json(&json)?;
                    Some((r.body.len(), json, print))
                });
                self.after_op();
                let Some((body_bytes, json, print)) = answer else {
                    log.ops.push(Served::failed(kind, start, end));
                    log.failed += 1;
                    break;
                };
                let cache_hit = json.get("cache_hit").and_then(Json::bool) == Some(true);
                let phases = (!cache_hit).then(|| phases_of(&json)).flatten();
                log.ops.push(Served {
                    op: Op {
                        kind,
                        start,
                        end,
                        ok: true,
                    },
                    cache_hit,
                    body_bytes,
                    phases,
                });
                // A drill answers the region of the step on screen, which
                // is the previous answer only if no append intervened.
                let generation = before
                    .filter(|g| Some(*g) == after && (kind == Kind::Explore || screen == Some(*g)));
                if let Some(generation) = generation {
                    if sampler.gen_range(0..VERIFY_ONE_IN) == 0 {
                        log.samples.push(Sample {
                            generation,
                            sql: step_sql.clone(),
                            print: print.clone(),
                        });
                    }
                }
                screen = before.filter(|g| Some(*g) == after);
                let Some(region) = script::pick_region(&print, &mut rng) else {
                    break;
                };
                step_sql = print.maps[0].regions[region].0.clone();
                step = Step::Drill(region);
            }
            if c == 0 && i % APPEND_EVERY == APPEND_EVERY - 1 && matches!(stop, Until::Deadline(_))
            {
                self.append(&client, log);
            }
            i += 1;
        }
    }

    fn append(&self, client: &Client, log: &mut ClientLog) {
        let batch = (log.appends as usize) % BATCHES;
        log.appends += 1;
        self.generations.started.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let reply = client.request(
            "POST",
            "/datasets/census/rows",
            Some(("text/csv", &self.batches[batch])),
        );
        let end = Instant::now();
        let ok = matches!(&reply, Ok(r) if r.status == 200);
        if ok {
            self.generations
                .applied
                .lock()
                .expect("generation lock is never poisoned")
                .push(batch);
        } else {
            log.failed += 1;
        }
        self.generations.done.fetch_add(1, Ordering::SeqCst);
        self.after_op();
        log.ops.push(Served {
            op: Op {
                kind: Kind::Append,
                start,
                end,
                ok,
            },
            cache_hit: false,
            body_bytes: 0,
            phases: None,
        });
    }

    fn after_op(&self) {
        if let Some(slices) = self.slices {
            slices.drain();
        }
    }
}

impl Served {
    fn failed(kind: Kind, start: Instant, end: Instant) -> Served {
        Served {
            op: Op {
                kind,
                start,
                end,
                ok: false,
            },
            cache_hit: false,
            body_bytes: 0,
            phases: None,
        }
    }
}

fn phases_of(json: &Json) -> Option<PhaseTimings> {
    let t = json.get("timings_ms")?;
    let get = |key: &str| t.get(key).and_then(Json::num);
    Some(PhaseTimings {
        query_ms: get("query")?,
        candidates_ms: get("candidates")?,
        clustering_ms: get("clustering")?,
        merge_ms: get("merge")?,
        rank_ms: get("rank")?,
        total_ms: get("total")?,
    })
}

fn headerless(csv: Vec<u8>) -> Vec<u8> {
    let body = csv.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
    csv[body..].to_vec()
}

fn boot(csv: &[u8], watch: &mut layers::Stopwatch) -> (ServerHandle, Arc<Table>) {
    let table = Arc::new(watch.ingest(|| script::ingest(csv, true)));
    let mut registry = Registry::new();
    watch.prepare(|| {
        registry
            .add_table(
                "census",
                Arc::clone(&table),
                DatasetOptions {
                    config: engine_config(1),
                    cache_capacity: CACHE_CAPACITY,
                },
            )
            .map(|_| ())
            .expect("census registers")
    });
    let server = Server::start(registry, ServeConfig::default().with_threads(nproc()))
        .expect("server binds an ephemeral port");
    let client = Client::new(server.addr());
    while !matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
        std::thread::sleep(Duration::from_millis(1));
    }
    (server, table)
}

pub fn run(args: &Args) -> Outcome {
    let csv = script::census_csv(ROWS, args.seed);
    let batches: Vec<Vec<u8>> = (0..BATCHES as u64)
        .map(|k| headerless(script::census_csv(BATCH_ROWS, script::mix(args.seed, 4, k))))
        .collect();
    let ((server, base), setup) = Setup::repeat(SETUP_REPS, |watch| boot(&csv, watch));
    drop(csv);
    let clients = nproc() as u64;
    let generations = Generations::default();
    let mut workload = Workload {
        addr: server.addr(),
        seed: args.seed,
        hot: (0..HOT as u64)
            .map(|j| script::random_query(&mut script::rng(args.seed, 3, j)))
            .collect(),
        batches: &batches,
        generations: &generations,
        slices: None,
    };
    let session = Client::new(server.addr());
    let tokens: Vec<String> = (0..clients)
        .map(|_| session.create_session("census").expect("session opens"))
        .collect();
    let mut warm = ClientLog::default();
    for (c, token) in tokens.iter().enumerate() {
        workload.client(c as u64, token, 0, Until::Count(WARMUP), &mut warm);
    }

    let start = Counters::now();
    let slices = args.trace.then(|| Slices::start(Duration::from_secs(1)));
    workload.slices = slices.as_ref();
    let window_start = Instant::now();
    let until = Until::Deadline(window_start + args.window);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = tokens
            .iter()
            .enumerate()
            .map(|(c, token)| {
                let workload = &workload;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    workload.client(c as u64, token, WARMUP, until, &mut log);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let end = Instant::now();
    let window_s = end.duration_since(window_start).as_secs_f64();
    let slices = slices.map(|s| s.finish(end));

    let datasets = Client::new(server.addr())
        .get("/datasets")
        .ok()
        .and_then(|r| wire::parse(r.body_text()?).ok());
    let cache = datasets
        .as_ref()
        .and_then(|d| d.get("datasets")?.items()?.first()?.get("cache").cloned());
    let (table, _) = server
        .registry()
        .get("census")
        .expect("census is served")
        .snapshot();
    let table = Arc::clone(table.table());
    drop(server);

    let served: Vec<&Served> = logs.iter().flat_map(|l| l.ops.iter()).collect();
    let ops: Vec<Op> = served.iter().map(|s| s.op.clone()).collect();
    let mut out = Outcome {
        attempted: ops.len() as u64,
        failed: logs.iter().map(|l| l.failed).sum::<u64>() + warm.failed,
        ..Outcome::default()
    };
    let applied = generations
        .applied
        .lock()
        .expect("generation lock is never poisoned")
        .clone();
    let samples: Vec<&Sample> = warm
        .samples
        .iter()
        .chain(logs.iter().flat_map(|l| l.samples.iter()))
        .collect();
    let mismatches = verify(&base, &batches, &applied, &samples);
    out.mismatches = mismatches;
    out.failed += mismatches;
    out.note(format!(
        "verified {} sampled answers against in-process engines at the same generation; {mismatches} differ",
        samples.len()
    ));

    let answers: Vec<&&Served> = served
        .iter()
        .filter(|s| s.op.kind != Kind::Append)
        .collect();
    let hits = answers.iter().filter(|s| s.cache_hit).count();
    let appends: Vec<f64> = served
        .iter()
        .filter(|s| s.op.kind == Kind::Append && s.op.ok)
        .map(|s| s.op.ms())
        .collect();
    let Some(slices) = &slices else {
        layers::end_to_end(&mut out, &setup, &ops, window_s, TAIL_PCT);
        out.note(format!(
            "append_p50_ms: {:.3} over {} appends; cache hits {hits} of {} answers",
            script::median(&appends),
            appends.len(),
            answers.len()
        ));
        return out;
    };

    let phases: Vec<PhaseTimings> = served.iter().filter_map(|s| s.phases.clone()).collect();
    let sqls: Vec<String> = logs.iter().flat_map(|l| l.sqls.iter().cloned()).collect();
    let common = Common {
        setup: &setup,
        start: &start,
        ops: &ops,
        table: &table,
        phases: &phases,
        sqls: &sqls,
        slices,
    };
    common.report(&mut out, &format!("serve-mixed-seed{}", args.seed));
    let traced_ops = common.traced_ops();
    out.absent(
        "explorer.overhead_ms",
        "ms",
        "sessions run inside the server; serve.overhead_ms covers the front-end",
    );
    let overheads: Vec<f64> = served
        .iter()
        .filter_map(|s| Some(s.op.ms() - s.phases.as_ref()?.total_ms))
        .collect();
    out.metric(
        "serve.overhead_ms",
        overheads.iter().sum::<f64>() / overheads.len().max(1) as f64,
        "ms",
    );
    layers::serve_spans(&mut out, slices.spans(), traced_ops);
    out.metric(
        "serve.response_bytes_per_op",
        answers.iter().map(|s| s.body_bytes).sum::<usize>() as f64 / answers.len().max(1) as f64,
        "bytes",
    );
    let append_spans: Vec<f64> = slices
        .spans()
        .iter()
        .filter(|s| s.name == "request" && s.attr("endpoint") == Some("append_rows"))
        .map(|s| s.duration_us as f64 / 1000.0)
        .collect();
    if append_spans.is_empty() {
        out.absent("serve.append_ms", "ms", "no append fell in a traced slice");
    } else {
        out.metric("serve.append_ms", script::median(&append_spans), "ms");
    }
    out.metric(
        "registry.cache_hit_ratio",
        hits as f64 / answers.len().max(1) as f64,
        "ratio",
    );
    out.metric(
        "registry.cache_evicted",
        cache
            .as_ref()
            .and_then(|c| c.get("evicted")?.num())
            .unwrap_or(f64::NAN),
        "count",
    );
    layers::absent(&mut out, &layers::DIST, "serve-mixed has no shards");
    out
}

/// Re-answer every sample on an in-process engine at its generation: the
/// base table plus the first `generation` applied batches, appended the way
/// the registry appends them.
fn verify(base: &Arc<Table>, batches: &[Vec<u8>], applied: &[usize], samples: &[&Sample]) -> u64 {
    let mut by_generation: Vec<&Sample> = samples.to_vec();
    by_generation.sort_by_key(|s| s.generation);
    let mut engine = Atlas::new(Arc::clone(base), engine_config(1)).expect("valid config");
    let mut at = 0u64;
    let mut mismatches = 0;
    for sample in by_generation {
        while at < sample.generation {
            let Some(&batch) = applied.get(at as usize) else {
                break;
            };
            let rows = script::ingest(&batches[batch], false);
            for segment in rows.segments() {
                engine = engine.append(Arc::clone(segment)).expect("batch appends");
            }
            at += 1;
        }
        let same = at == sample.generation
            && atlas_query::parse_query(&sample.sql)
                .ok()
                .and_then(|q| engine.explore(&q).ok())
                .is_some_and(|r| Fingerprint::of(&r).canonical() == sample.print.canonical());
        if !same {
            eprintln!(
                "perfbench: served answer differs at generation {} for {}",
                sample.generation, sample.sql
            );
            mismatches += 1;
        }
    }
    mismatches
}
