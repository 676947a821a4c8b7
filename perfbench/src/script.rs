//! What every workload shares: the seeded census data, the seeded query
//! script, answer fingerprints, and the latency summary.

use atlas_columnar::csv::{read_csv, write_csv, CsvOptions};
use atlas_columnar::Table;
use atlas_core::{AtlasConfig, MapResult};
use atlas_datagen::CensusGenerator;
use atlas_serve::wire::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Drill-downs follow every explore (the paper's Figure 1 loop: read the
/// maps, refine into a region, refine again).
pub const DRILLS_PER_INTERACTION: usize = 2;

/// A region smaller than this is not worth drilling into; when the top map
/// has none this large, the largest region is taken instead.
const MIN_DRILL_ROWS: usize = 500;

/// The number of worker threads the machine offers; sizes engine pools,
/// server threads and client sessions.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration of every workload: the fast preset (equi-width
/// cuts, product merge), which the coordinator can also run, so local and
/// distributed answers are comparable bit for bit.
pub fn engine_config(parallelism: usize) -> AtlasConfig {
    AtlasConfig::fast().with_parallelism(parallelism)
}

/// A 64-bit mix of a seed and stream coordinates (splitmix64 finaliser), so
/// every interaction draws from its own reproducible stream.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible generator for stream `(a, b)` of `seed`.
pub fn rng(seed: u64, a: u64, b: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, a, b))
}

/// The census table of `rows` rows for `seed`, rendered as CSV with a header.
pub fn census_csv(rows: usize, seed: u64) -> Vec<u8> {
    let table = CensusGenerator::with_rows(rows, seed).generate();
    let mut csv = Vec::new();
    write_csv(&table, &mut csv).expect("writing CSV to memory cannot fail");
    csv
}

/// Parse census CSV bytes the way a user loads a file: streaming, against
/// the census schema.
pub fn ingest(csv: &[u8], has_header: bool) -> Table {
    let opts = CsvOptions {
        has_header,
        ..CsvOptions::default()
    };
    read_csv("census", csv, Some(CensusGenerator::schema()), &opts)
        .expect("generated census CSV parses")
}

/// One seeded conjunctive range/IN query over the census. Each predicate
/// keeps about half the rows, so working sets stay large enough to drill
/// into twice.
pub fn random_query(rng: &mut StdRng) -> String {
    const KINDS: usize = 6;
    let first = rng.gen_range(0..KINDS);
    let mut kinds = vec![first];
    if rng.gen_bool(0.5) {
        kinds.push((first + rng.gen_range(1..KINDS)) % KINDS);
    }
    let predicates: Vec<String> = kinds
        .into_iter()
        .map(|kind| match kind {
            0 => {
                let lo = rng.gen_range(17..=40);
                format!("age BETWEEN {lo} AND {}", lo + rng.gen_range(25..=45))
            }
            1 => {
                let lo = rng.gen_range(0..=25);
                format!(
                    "hours_per_week BETWEEN {lo} AND {}",
                    lo + rng.gen_range(30..=55)
                )
            }
            2 => {
                let lo = rng.gen_range(150..=168);
                format!("height_cm BETWEEN {lo} AND {}", lo + rng.gen_range(15..=30))
            }
            3 => {
                let levels = ["HighSchool", "BSc", "MSc", "PhD"];
                let skip = rng.gen_range(0..levels.len());
                let keep: Vec<String> = levels
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip && (i + 1) % levels.len() != skip)
                    .map(|(_, l)| format!("'{l}'"))
                    .collect();
                format!("education IN ({})", keep.join(", "))
            }
            4 => {
                let colors = ["Blue", "Green", "Brown"];
                let skip = rng.gen_range(0..colors.len());
                let keep: Vec<String> = colors
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, c)| format!("'{c}'"))
                    .collect();
                format!("eye_color IN ({})", keep.join(", "))
            }
            _ => {
                let sex = if rng.gen_bool(0.5) { "Male" } else { "Female" };
                format!("sex = '{sex}'")
            }
        })
        .collect();
    format!("SELECT * FROM census WHERE {}", predicates.join(" AND "))
}

/// Everything that must agree bit for bit between two answers to the same
/// query: working-set size, and per ranked map its score bits, source
/// attributes, and each region's SQL and row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub working_set: usize,
    pub maps: Vec<MapPrint>,
}

/// One ranked map of a [`Fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapPrint {
    pub score_bits: u64,
    pub attributes: Vec<String>,
    pub regions: Vec<(String, usize)>,
}

impl Fingerprint {
    /// The fingerprint of an in-process answer.
    pub fn of(result: &MapResult) -> Fingerprint {
        Fingerprint {
            working_set: result.working_set_size,
            maps: result
                .maps
                .iter()
                .map(|ranked| MapPrint {
                    score_bits: ranked.score.to_bits(),
                    attributes: ranked.map.source_attributes.clone(),
                    regions: ranked
                        .map
                        .regions
                        .iter()
                        .map(|r| (atlas_query::to_sql(&r.query), r.count()))
                        .collect(),
                })
                .collect(),
        }
    }

    /// The fingerprint of a served answer. Scores travel in shortest
    /// round-trip form, so the parsed `f64` has the engine's exact bits.
    pub fn from_json(body: &Json) -> Option<Fingerprint> {
        let maps = body
            .get("maps")?
            .items()?
            .iter()
            .map(|map| {
                Some(MapPrint {
                    score_bits: map.get("score")?.num()?.to_bits(),
                    attributes: map
                        .get("source_attributes")?
                        .items()?
                        .iter()
                        .map(|a| a.str().map(String::from))
                        .collect::<Option<_>>()?,
                    regions: map
                        .get("regions")?
                        .items()?
                        .iter()
                        .map(|r| Some((r.get("sql")?.str()?.to_string(), r.get("count")?.index()?)))
                        .collect::<Option<_>>()?,
                })
            })
            .collect::<Option<_>>()?;
        Some(Fingerprint {
            working_set: body.get("working_set_size")?.index()?,
            maps,
        })
    }

    /// Structural checks every correct answer passes: finite scores ranked
    /// best first, and every map partitioning the working set.
    pub fn well_formed(&self) -> bool {
        let scores: Vec<f64> = self
            .maps
            .iter()
            .map(|m| f64::from_bits(m.score_bits))
            .collect();
        scores.iter().all(|s| s.is_finite())
            && scores.windows(2).all(|w| w[0] >= w[1])
            && self
                .maps
                .iter()
                .all(|m| m.regions.iter().map(|(_, c)| c).sum::<usize>() == self.working_set)
    }

    /// The fingerprint with each region's predicates in canonical order
    /// (sorted by attribute, then by value set). The served result cache
    /// shares one entry among conjunctions that differ only in predicate
    /// order, so a cached answer may spell its regions in the order of the
    /// query that filled the entry.
    pub fn canonical(&self) -> Fingerprint {
        let mut print = self.clone();
        for map in &mut print.maps {
            for (sql, _) in &mut map.regions {
                if let Ok(mut query) = atlas_query::parse_query(sql) {
                    query.predicates.sort_by(|a, b| {
                        a.attribute
                            .cmp(&b.attribute)
                            .then_with(|| a.set.to_string().cmp(&b.set.to_string()))
                    });
                    *sql = atlas_query::to_sql(&query);
                }
            }
        }
        print
    }

    /// FNV-1a over the fingerprint, for a one-line digest of a script.
    pub fn fold_into(&self, hash: &mut u64) {
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                *hash ^= u64::from(*b);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.working_set as u64).to_le_bytes());
        for map in &self.maps {
            eat(&map.score_bits.to_le_bytes());
            for a in &map.attributes {
                eat(a.as_bytes());
            }
            for (sql, count) in &map.regions {
                eat(sql.as_bytes());
                eat(&(*count as u64).to_le_bytes());
            }
        }
    }
}

/// The FNV-1a offset basis, the starting value for [`Fingerprint::fold_into`].
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The region of the top-ranked map to drill into: a seeded pick among the
/// regions of at least [`MIN_DRILL_ROWS`] rows, else the largest non-empty
/// one. `None` when there is nothing to drill into.
pub fn pick_region(answer: &Fingerprint, rng: &mut StdRng) -> Option<usize> {
    let regions = &answer.maps.first()?.regions;
    let eligible: Vec<usize> = (0..regions.len())
        .filter(|&i| regions[i].1 >= MIN_DRILL_ROWS)
        .collect();
    if eligible.is_empty() {
        return (0..regions.len())
            .filter(|&i| regions[i].1 > 0)
            .max_by_key(|&i| (regions[i].1, std::cmp::Reverse(i)));
    }
    Some(eligible[rng.gen_range(0..eligible.len())])
}

/// When a closed loop stops: after a number of interactions (warm-up) or
/// at a deadline (the timed window).
#[derive(Clone, Copy)]
pub enum Until {
    Count(u64),
    Deadline(Instant),
}

impl Until {
    /// Whether the loop is over after `interactions` interactions.
    pub fn reached(self, interactions: u64) -> bool {
        match self {
            Until::Count(n) => interactions >= n,
            Until::Deadline(t) => Instant::now() >= t,
        }
    }
}

/// The kind of a timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Explore,
    Drill,
    Append,
}

/// One timed operation of the measured window.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl Op {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1000.0
    }
}

/// The `q`-quantile (0..=1) of sorted samples, linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Median and tail latency of one operation kind. The tail percentile is
/// fixed per workload so the metric means the same thing in every run; the
/// note records how many samples lie beyond it.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub note: String,
}

pub fn latency(ops: &[Op], kind: Kind, tail_pct: f64) -> Latency {
    let mut ms: Vec<f64> = ops
        .iter()
        .filter(|op| op.kind == kind && op.ok)
        .map(Op::ms)
        .collect();
    ms.sort_by(f64::total_cmp);
    let tail = quantile(&ms, tail_pct / 100.0);
    let beyond = ms.iter().filter(|&&x| x > tail).count();
    Latency {
        p50: quantile(&ms, 0.5),
        tail,
        note: format!(
            "{kind:?}: {} samples, tail = p{tail_pct} with {beyond} samples beyond it{}",
            ms.len(),
            if beyond < 10 {
                " (fewer than 10: the tail is not resolved on this machine)"
            } else {
                ""
            }
        ),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
