//! `tiled-churn`: 10,000 templates of 128 rows in a `TiledAmm` of 79 tiles
//! with 128 columns each, ranked recall at top-k = 10, and one
//! `evict_template` + `insert_template` pair after every tenth recall.
//!
//! A read is the per-tile correlate, 79 × 128 SAR conversions and
//! `top_k_merge` over a working set of about 10 MB; a write programs a
//! spare column and recompiles that tile's plan. Every ranked recall is
//! checked against an independent argsort of its concatenated per-tile
//! codes. The write re-inserts the evicted pattern, so the stored set —
//! and what each query should find — stays the same.

use crate::report::{Ledger, Report, Run};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, secs, timed, RefKernel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spinamm_core::amm::AmmConfig;
use spinamm_core::capacity::{top_k_merge, TemplateHandle, TiledAmm, TiledRecall};
use spinamm_core::RecallRequest;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_telemetry::MemoryRecorder;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

const TEMPLATES: usize = 10_000;
const TILE_CAPACITY: usize = 128;
const TOP_K: usize = 10;
const WRITE_EVERY: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reads defining `sim_accuracy` / `sim_energy_pj` (a fixed prefix).
const PREFIX: usize = 800;
/// Reads per throughput window.
const WINDOW: usize = 50;
/// Reads in the traced pass.
const TRACED: usize = 200;
/// Reads in the recorded pass that yields the simulated counters.
const RECORDED: usize = 16;

/// The independent ranking oracle: full argsort of the concatenated codes
/// by (code descending, global column ascending), cut at `k`.
fn argsort_top_k(scores: &[u32], k: usize) -> Vec<(usize, u32)> {
    let mut all: Vec<(usize, u32)> = scores.iter().copied().enumerate().collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn ranking_ok(r: &TiledRecall, k: usize) -> bool {
    let ranked: Vec<(usize, u32)> = r
        .matches
        .iter()
        .map(|m| (m.global_column, m.score))
        .collect();
    ranked == argsort_top_k(&r.scores, k)
}

/// The pool plus the benchmark's own book of which pattern each live
/// column holds, and the seeded victim choice for writes.
struct Churn {
    pool: TiledAmm,
    live: Vec<(TemplateHandle, usize)>,
    owner: HashMap<usize, usize>,
    rng: ChaCha8Rng,
}

impl Churn {
    fn new(pool: TiledAmm, seed: u64) -> Self {
        let live: Vec<(TemplateHandle, usize)> = pool
            .handles()
            .into_iter()
            .map(|h| (h, pool.build_ordinal(&h)))
            .collect();
        let columns = pool.tile_columns();
        let owner = live
            .iter()
            .map(|(h, p)| (h.tile.0 * columns + h.column, *p))
            .collect();
        Self {
            pool,
            live,
            owner,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x7113_0002),
        }
    }

    /// The pattern the ranked winner holds.
    fn winner_pattern(&self, r: &TiledRecall) -> Option<usize> {
        r.matches
            .first()
            .and_then(|m| self.owner.get(&m.global_column).copied())
    }

    /// Picks the next victim; the caller evicts it and re-inserts its
    /// pattern, then calls [`Churn::moved`].
    fn victim(&mut self) -> usize {
        self.rng.gen_range(0..self.live.len())
    }

    fn moved(&mut self, slot: usize, to: TemplateHandle) {
        let columns = self.pool.tile_columns();
        let (from, pattern) = self.live[slot];
        self.owner.remove(&(from.tile.0 * columns + from.column));
        self.owner.insert(to.tile.0 * columns + to.column, pattern);
        self.live[slot] = (to, pattern);
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let templates = if run.tiny { 600 } else { TEMPLATES };
    let prefix = if run.tiny { 12 } else { PREFIX };
    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: templates,
        vector_len: 128,
        bits: 5,
        query_count: if run.tiny {
            64
        } else {
            (1_000.0 * run.seconds) as usize + PREFIX
        },
        query_noise: 0.3,
        noise_magnitude: 2,
        similarity: 0.0,
        seed: run.seed ^ 0x7113_0001,
    })
    .map_err(|e| e.to_string())?;
    let mut seen = HashSet::new();
    let queries: Vec<&(usize, Vec<u32>)> = w
        .queries
        .iter()
        .filter(|(_, q)| seen.insert(q.clone()))
        .collect();
    let config = AmmConfig::default();

    // Set-up: build (programming, calibration, per-tile plan compile) and
    // one warm-up read, several times; only the last pool is kept.
    let mut builds = Vec::new();
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..SETUPS {
        drop(pool.take());
        let start = Instant::now();
        let (built, build_s) = timed(|| {
            TiledAmm::build(&w.patterns, TILE_CAPACITY, &config).and_then(|p| p.with_top_k(TOP_K))
        });
        let mut built = built.map_err(|e| e.to_string())?;
        built.recall(&queries[0].1).map_err(|e| e.to_string())?;
        setups.push(secs(start));
        builds.push(build_s);
        pool = Some(built);
    }
    let pool = pool.expect("at least one set-up");
    report.context("tiles", pool.tile_count());
    report.context("compiled_tiles", pool.compiled_tiles());
    let queries = &queries[1..];

    // Simulated counters repeat exactly across two recorded runs.
    let recorded = &queries[..RECORDED.min(queries.len())];
    let counters = |pool: &TiledAmm| -> Result<spinamm_telemetry::TelemetrySnapshot, String> {
        let mut clone = pool.clone();
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        for (_, q) in recorded {
            clone.recall_request(q, &req).map_err(|e| e.to_string())?;
        }
        Ok(recorder.snapshot())
    };
    let (a, b) = (counters(&pool)?, counters(&pool)?);
    report.check(crate::face::same_counters(&a, &b));

    if run.trace {
        traced(
            run,
            &mut report,
            pool,
            &w.patterns,
            queries,
            &a,
            median(&builds),
        )?;
        return Ok(report);
    }

    let mut churn = Churn::new(pool, run.seed);
    let mut kernel = RefKernel::new();
    let (mut read_ms, mut read_costs) = (Vec::new(), Vec::new());
    let (mut write_ms, mut write_costs) = (Vec::new(), Vec::new());
    let (mut correct, mut energy) = (0usize, 0.0);
    let budget = run.seconds * 0.8;
    let mut busy = 0.0;
    for (i, (source, q)) in queries.iter().enumerate() {
        if i >= prefix && (busy >= budget || run.tiny) {
            break;
        }
        let reference = kernel.sample();
        let (r, took) = timed(|| churn.pool.recall(q));
        busy += took;
        read_ms.push(took * 1e3);
        read_costs.push(took / reference);
        let Ok(mut r) = r else {
            report.check(false);
            continue;
        };
        if run.corrupt && i == 0 {
            r.matches.swap(0, 1);
        }
        report.check(ranking_ok(&r, TOP_K));
        if i < prefix {
            correct += usize::from(churn.winner_pattern(&r) == Some(*source));
            energy += r.energy.total().0;
        }
        if (i + 1) % WRITE_EVERY == 0 {
            let slot = churn.victim();
            let (handle, pattern) = churn.live[slot];
            let (out, took) = timed(|| {
                churn
                    .pool
                    .evict_template(handle)
                    .and_then(|()| churn.pool.insert_template(&w.patterns[pattern]))
            });
            busy += took;
            write_ms.push(took * 1e3);
            write_costs.push(took / reference);
            report.check(out.as_ref().is_ok_and(|h| h.tile == handle.tile));
            if let Ok(to) = out {
                churn.moved(slot, to);
            }
        }
    }

    let reads = read_ms.len();
    // Throughput per window of reads; the median window is the figure.
    let windows: Vec<f64> = read_ms
        .chunks_exact(WINDOW.min(reads).max(1))
        .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect();
    let topk_per_s = median(&windows);
    let head = prefix.min(reads) as f64;
    report.metric("setup_s", median(&setups));
    report.metric("op_cost_ref", median(&read_costs));
    report.metric("side_cost_ref", median(&write_costs));
    report.metric("sim_accuracy", correct as f64 / head);
    report.metric("sim_energy_pj", energy / head * 1e12);
    report.detail("setup_s", median(&setups), "s");
    report.detail("topk_per_s", topk_per_s, "1/s");
    report.detail("write_ms", median(&write_ms), "ms");
    report.detail("read_p50_ms", median(&read_ms), "ms");
    report.detail("ref_kernel_us", kernel.median_s() * 1e6, "us");
    report.detail("read_p99_ms", percentile(&read_ms, 0.99), "ms");
    report.detail("sim_accuracy", correct as f64 / head, "share");
    report.detail("sim_energy_pj", energy / head * 1e12, "pJ");
    report.detail("core.build_s", median(&builds), "s");
    report.context("reads", reads);
    report.context("writes", write_ms.len());
    Ok(report)
}

/// The traced pass: an untraced reference pool and a spanned pool take
/// the same reads and writes, interleaved; the top-k merge is timed
/// standalone on each read's per-tile codes.
fn traced(
    run: &Run,
    report: &mut Report,
    pool: TiledAmm,
    patterns: &[Vec<u32>],
    queries: &[&(usize, Vec<u32>)],
    recorded: &spinamm_telemetry::TelemetrySnapshot,
    build_s: f64,
) -> Result<(), String> {
    let n = if run.tiny { 12 } else { TRACED }.min(queries.len());
    let mut reference = Churn::new(pool.clone(), run.seed);
    let mut churn = Churn::new(pool, run.seed);
    let req = RecallRequest::DEFAULT;
    let mut log = SpanLog::new(Instant::now());
    let (mut reference_us, mut write_ref_us, mut merge_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut currents = Vec::new();
    let columns = churn.pool.tile_columns();
    for (i, (_, q)) in queries[..n].iter().enumerate() {
        let id = i as u64;
        let (want, took) = timed(|| reference.pool.recall(q));
        reference_us.push(took * 1e6);
        let want = want.map_err(|e| e.to_string())?;
        let got = log.span("read", id, |log| {
            let evals = log.span("core.evaluate_us", id, |_| {
                churn.pool.evaluate_query_request(q, &req)
            });
            evals.and_then(|evals| {
                currents.push(evals[0].column_currents()[..40].to_vec());
                log.span("core.select_us", id, |_| {
                    churn.pool.select_winner_request(evals, &req)
                })
            })
        });
        let got = got.map_err(|e| e.to_string())?;
        let per_tile: Vec<&[u32]> = got.scores.chunks(columns).collect();
        let (merged, took) = timed(|| top_k_merge(&per_tile, TOP_K));
        merge_us.push(took * 1e6);
        report.check(got == want && ranking_ok(&got, TOP_K) && merged.len() == TOP_K);
        if (i + 1) % WRITE_EVERY == 0 {
            let slot = reference.victim();
            let (handle, pattern) = reference.live[slot];
            let (out, took) = timed(|| {
                reference
                    .pool
                    .evict_template(handle)
                    .and_then(|()| reference.pool.insert_template(&patterns[pattern]))
            });
            write_ref_us.push(took * 1e6);
            reference.moved(slot, out.map_err(|e| e.to_string())?);
            let slot = churn.victim();
            let (handle, pattern) = churn.live[slot];
            let out = log.span("write", id, |log| {
                log.span("core.evict_us", id, |_| churn.pool.evict_template(handle))
                    .and_then(|()| {
                        log.span("core.insert_us", id, |_| {
                            churn.pool.insert_template(&patterns[pattern])
                        })
                    })
            });
            churn.moved(slot, out.map_err(|e| e.to_string())?);
        }
    }

    let own = log.median_self_us();
    let evaluate_us = own["core.evaluate_us"];
    let select_us = own["core.select_us"];
    let end_to_end_us = median(&reference_us);
    let read_us: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "read")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    report.metric("core.build_s", build_s);
    report.metric("core.evaluate_us", evaluate_us);
    report.metric("core.select_us", select_us);
    let (sar_us, wta_us) = crate::face::sar_and_wta(run.seed, &currents)?;
    report.metric("core.sar_convert_us", sar_us);
    report.metric("core.wta_select_us", wta_us);
    let mut ledger = Ledger::default();
    ledger.row("core_evaluate", evaluate_us);
    ledger.row("core_select", select_us);
    ledger.emit(report, end_to_end_us);
    report.metric("trace.overhead_ratio", median(&read_us) / end_to_end_us);
    let reads = RECORDED as f64;
    for name in [
        "adc.sar_cycles",
        "wta.dl_transitions",
        "spin.dwn_switch_events",
    ] {
        report.metric(name, recorded.counter(name) as f64 / reads);
    }
    for name in [
        "circuit.cg_iterations",
        "circuit.warm_start_saved",
        "circuit.factorization_reuse_share",
        "engine.worker_utilization",
        "server.rejected",
    ] {
        report.metric(name, 0.0);
    }
    report.detail("read_p50_us", end_to_end_us, "us");
    report.detail("core.evaluate_us", evaluate_us, "us");
    report.detail("core.select_us", select_us, "us");
    report.detail("core.topk_merge_us", median(&merge_us), "us");
    report.detail(
        "core.evict_us",
        own.get("core.evict_us").copied().unwrap_or(f64::NAN),
        "us",
    );
    report.detail(
        "core.insert_us",
        own.get("core.insert_us").copied().unwrap_or(f64::NAN),
        "us",
    );
    report.detail("write_p50_us", median(&write_ref_us), "us");
    report.detail("core.sar_convert_us", sar_us, "us");
    report.detail("core.wta_select_us", wta_us, "us");
    report.detail("core.build_s", build_s, "s");
    report.spans = Some(log);
    Ok(())
}
