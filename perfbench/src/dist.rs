//! `dist-2shard`: a `Coordinator` over two in-process shard servers sharing
//! a 1M-row census, driven by the same script and seed as `local-1m`.
//! Scatter, transport and the hex-in-JSON codec dominate; its ratio to
//! `local-1m` on identical queries is the "distributed within 2x of local"
//! target.

use crate::layers::{self, Common, Counters, Setup};
use crate::relay::Relay;
use crate::script::Until;
use crate::script::{self, engine_config, nproc};
use crate::single::{self, Explorer};
use crate::traced::{self, Slices, SpanIndex};
use crate::{local, Args, Outcome};
use atlas_columnar::Table;
use atlas_core::{Atlas, MapResult};
use atlas_query::ConjunctiveQuery;
use atlas_serve::{Coordinator, DatasetOptions, Registry, ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Fewer repetitions than `local-1m`: each set-up prepares one engine per
/// shard.
const SETUP_REPS: usize = 3;
/// 35 to 55 explores and twice as many drills fit the default window on a
/// 2-vCPU machine, so the tails are the 70th and 80th percentiles (at
/// least ten samples beyond each).
const TAIL_PCT: (f64, f64) = (70.0, 80.0);

/// The distributed system, dropped coordinator first, shards last.
struct System {
    coordinator: Coordinator,
    relays: Vec<Relay>,
    _shards: Vec<ServerHandle>,
    table: Arc<Table>,
}

struct Dist<'a> {
    coordinator: &'a Coordinator,
    current: Option<(ConjunctiveQuery, MapResult)>,
}

impl Explorer for Dist<'_> {
    fn explore(&mut self, query: ConjunctiveQuery) -> Result<(), String> {
        let result = self
            .coordinator
            .explore(&query)
            .map_err(|e| e.to_string())?;
        self.current = Some((query, result));
        Ok(())
    }

    fn drill(&mut self, region: usize) -> Result<(), String> {
        let query = self
            .current
            .as_ref()
            .and_then(|(_, result)| result.maps.first()?.map.regions.get(region))
            .map(|r| r.query.clone())
            .ok_or("no such region on screen")?;
        self.explore(query)
    }

    fn current(&self) -> Option<(&ConjunctiveQuery, &MapResult)> {
        self.current.as_ref().map(|(q, r)| (q, r))
    }
}

fn boot(csv: &[u8], traced: bool, watch: &mut layers::Stopwatch) -> System {
    let config = engine_config(nproc());
    let table = Arc::new(watch.ingest(|| script::ingest(csv, true)));
    let mut shards = Vec::new();
    for _ in 0..SHARDS {
        let mut registry = Registry::new();
        watch.prepare(|| {
            registry
                .add_table(
                    "census",
                    Arc::clone(&table),
                    DatasetOptions {
                        config: config.clone(),
                        cache_capacity: 0,
                    },
                )
                .map(|_| ())
                .expect("census registers")
        });
        let server = Server::start(registry, ServeConfig::default().with_threads(nproc()))
            .expect("shard binds an ephemeral port");
        shards.push(server);
    }
    let relays: Vec<Relay> = if traced {
        shards
            .iter()
            .map(|s| Relay::start(s.addr()).expect("relay binds an ephemeral port"))
            .collect()
    } else {
        Vec::new()
    };
    let addrs: Vec<String> = if traced {
        relays.iter().map(|r| r.addr().to_string()).collect()
    } else {
        shards.iter().map(|s| s.addr().to_string()).collect()
    };
    let coordinator = Coordinator::connect(&addrs, "census", config, Duration::from_secs(120))
        .expect("coordinator connects");
    System {
        coordinator,
        relays,
        _shards: shards,
        table,
    }
}

pub fn run(args: &Args) -> Outcome {
    let csv = script::census_csv(local::ROWS, args.seed);
    let (system, setup) = Setup::repeat(SETUP_REPS, |watch| boot(&csv, args.trace, watch));
    drop(csv);
    let mut dist = Dist {
        coordinator: &system.coordinator,
        current: None,
    };
    let wire = || system.relays.iter().map(Relay::bytes).sum::<u64>();

    let warm = single::run(&mut dist, args.seed, 0, Until::Count(local::WARMUP), |_| {});
    let start = Counters::now();
    let fan_out = system.coordinator.metrics().fan_out();
    let slices = args.trace.then(|| Slices::start(Duration::from_secs(2)));
    // Tracing makes shards embed their spans in replies, so wire bytes are
    // counted on untraced operations only.
    let mut untraced_wire = (0u64, 0u64);
    let mut last_wire = wire();
    let record = single::run(
        &mut dist,
        args.seed,
        warm.next_interaction,
        Until::Deadline(Instant::now() + args.window),
        |op| {
            if let Some(slices) = &slices {
                slices.drain();
                let now = wire();
                if !slices.traced_at(op.start) && !slices.traced_at(op.end) {
                    untraced_wire.0 += now - last_wire;
                    untraced_wire.1 += 1;
                }
                last_wire = now;
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
    // Every distributed answer must be bit-identical to the in-process
    // engine's on the same table and configuration.
    let reference =
        Atlas::new(Arc::clone(&system.table), engine_config(nproc())).expect("valid config");
    let all: Vec<_> = warm.answers.iter().chain(record.answers.iter()).collect();
    let mismatches = single::verify(&reference, &all) + record.malformed + warm.malformed;
    out.mismatches = mismatches;
    out.failed += mismatches;
    out.note(format!(
        "verified all {} answers bit-identical against the in-process engine; {mismatches} differ",
        all.len()
    ));
    out.note(format!(
        "script digest of the {} warm-up interactions (seed {}): {:016x}",
        local::WARMUP,
        args.seed,
        warm.digest
    ));

    let Some(slices) = &slices else {
        layers::end_to_end(&mut out, &setup, &record.ops, record.window_s, TAIL_PCT);
        return out;
    };
    let common = Common {
        setup: &setup,
        start: &start,
        ops: &record.ops,
        table: &system.table,
        phases: &record.phases,
        sqls: &record.sqls,
        slices,
    };
    common.report(&mut out, &format!("dist-2shard-seed{}", args.seed));
    let traced_ops = common.traced_ops().max(1) as f64;
    let ops = record.ops.len().max(1) as f64;
    out.absent(
        "explorer.overhead_ms",
        "ms",
        "dist-2shard drives the Coordinator, not an explorer::Session",
    );
    // The shard servers' own request stations.
    layers::serve_spans(&mut out, slices.spans(), common.traced_ops());
    layers::absent(
        &mut out,
        &layers::SERVE_CLIENT,
        "dist-2shard has no HTTP client of atlas-serve sessions",
    );
    layers::absent(
        &mut out,
        &layers::REGISTRY,
        "the shards serve with the result cache off",
    );

    let metrics = system.coordinator.metrics();
    out.metric(
        "dist.shard_calls_per_op",
        (metrics.fan_out() - fan_out) as f64 / ops,
        "count",
    );
    out.metric(
        "dist.wire_bytes_per_op",
        untraced_wire.0 as f64 / untraced_wire.1.max(1) as f64,
        "bytes",
    );
    let spans = slices.spans();
    let call = traced::total_ms(spans, |s| s.name == "shard.call" && s.parent_id != 0);
    let compute = traced::total_ms(spans, |s| s.name == "shard.request" && s.parent_id == 0);
    out.metric("dist.shard_call_ms", call / traced_ops, "ms");
    out.metric("dist.shard_compute_ms", compute / traced_ops, "ms");
    out.metric("dist.transport_ms", (call - compute) / traced_ops, "ms");
    let index = SpanIndex::new(spans);
    let coordinator_self: u64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "explore")
        .map(|(i, _)| index.uncovered_by(i, "shard.call"))
        .sum();
    out.metric(
        "dist.coordinator_self_ms",
        coordinator_self as f64 / 1000.0 / traced_ops,
        "ms",
    );
    out.metric("dist.retries", metrics.retries() as f64, "count");
    out.metric(
        "dist.hedges_launched",
        metrics.hedges_launched() as f64,
        "count",
    );
    out.metric("dist.hedges_won", metrics.hedges_won() as f64, "count");
    out.metric(
        "dist.circuit_skips",
        metrics.skipped_open_circuit() as f64,
        "count",
    );
    out
}
