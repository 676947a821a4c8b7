//! The one-client closed loop that `local-1m` and `dist-2shard` share: each
//! interaction explores a seeded query, then drills twice into a seeded
//! region of the top-ranked map, waiting for every answer.

use crate::script::{self, Fingerprint, Kind, Op, Until, DIGEST_BASIS, DRILLS_PER_INTERACTION};
use atlas_core::{Atlas, MapResult, PhaseTimings};
use atlas_query::ConjunctiveQuery;
use std::time::Instant;

/// An exploration front-end driven by the loop.
pub trait Explorer {
    /// Explore `query` (the timed call).
    fn explore(&mut self, query: ConjunctiveQuery) -> Result<(), String>;
    /// Drill into region `region` of the top map of the current answer
    /// (the timed call).
    fn drill(&mut self, region: usize) -> Result<(), String>;
    /// The query and answer now on screen.
    fn current(&self) -> Option<(&ConjunctiveQuery, &MapResult)>;
    /// Untimed housekeeping after each operation.
    fn tidy(&mut self) {}
}

/// What the loop observed.
#[derive(Default)]
pub struct Record {
    pub ops: Vec<Op>,
    /// Every answer with the query it answers, in order.
    pub answers: Vec<(ConjunctiveQuery, Fingerprint)>,
    pub phases: Vec<PhaseTimings>,
    /// Wall time of each operation minus the engine's own total.
    pub overhead_ms: Vec<f64>,
    pub sqls: Vec<String>,
    pub failed: u64,
    /// Answers that failed the structural checks.
    pub malformed: u64,
    pub digest: u64,
    pub next_interaction: u64,
    pub window_s: f64,
}

/// Run interactions `first..` until `until`, calling `after_op` after each
/// operation.
pub fn run<E: Explorer>(
    explorer: &mut E,
    seed: u64,
    first: u64,
    until: Until,
    mut after_op: impl FnMut(&Op),
) -> Record {
    let mut record = Record {
        digest: DIGEST_BASIS,
        ..Record::default()
    };
    let started = Instant::now();
    let mut i = first;
    while !until.reached(i - first) {
        let mut rng = script::rng(seed, 1, i);
        let sql = script::random_query(&mut rng);
        let query = atlas_query::parse_query(&sql).expect("generated SQL parses");
        record.sqls.push(sql);
        let mut step = Step::Explore(query);
        for _ in 0..=DRILLS_PER_INTERACTION {
            let op_start = Instant::now();
            let (kind, outcome) = match step {
                Step::Explore(query) => (Kind::Explore, explorer.explore(query)),
                Step::Drill(region) => (Kind::Drill, explorer.drill(region)),
            };
            let op = Op {
                kind,
                start: op_start,
                end: Instant::now(),
                ok: outcome.is_ok(),
            };
            after_op(&op);
            let ms = op.ms();
            record.ops.push(op);
            if let Err(message) = outcome {
                eprintln!("perfbench: interaction {i}: {kind:?} failed: {message}");
                record.failed += 1;
                break;
            }
            let Some((query, result)) = explorer.current() else {
                record.failed += 1;
                break;
            };
            let print = Fingerprint::of(result);
            if !print.well_formed() {
                eprintln!("perfbench: interaction {i}: malformed {kind:?} answer");
                record.malformed += 1;
            }
            print.fold_into(&mut record.digest);
            record.phases.push(result.timings.clone());
            record.overhead_ms.push(ms - result.timings.total_ms);
            let next = script::pick_region(&print, &mut rng);
            record.answers.push((query.clone(), print));
            explorer.tidy();
            match next {
                Some(region) => step = Step::Drill(region),
                None => break,
            }
        }
        i += 1;
    }
    record.next_interaction = i;
    record.window_s = started.elapsed().as_secs_f64();
    record
}

enum Step {
    Explore(ConjunctiveQuery),
    Drill(usize),
}

/// Re-answer `answers` on `reference` and count those that differ.
pub fn verify(reference: &Atlas, answers: &[&(ConjunctiveQuery, Fingerprint)]) -> u64 {
    let mut mismatches = 0;
    for (query, print) in answers {
        let same = reference
            .explore(query)
            .map(|result| Fingerprint::of(&result) == *print)
            .unwrap_or(false);
        if !same {
            eprintln!(
                "perfbench: answer differs from the reference for {}",
                atlas_query::to_sql(query)
            );
            mismatches += 1;
        }
    }
    mismatches
}
