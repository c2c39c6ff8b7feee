//! `face-parasitic`: the paper's own module — 40 synthetic-face templates
//! at 16×8 and 5 bits in a 128×40 crossbar at parasitic fidelity — recalls
//! seeded jittered copies of the 400 test images.
//!
//! Untraced, one caller runs a closed loop of
//! `AssociativeMemoryModule::recall_batch` calls, then replays every query
//! through sequential `recall` on a clone taken before the loop. The replay
//! is the oracle (every batched result must match it bit for bit, energy
//! included) and its per-call latency is the single-recognition latency.
//! Traced, each query's `evaluate_query_request` and
//! `select_winner_request` are spanned, and the crossbar settle, SAR
//! conversion and WTA selection are timed standalone.

use crate::report::{Ledger, Report, Run};
use crate::spans::SpanLog;
use crate::stats::{median, nproc, percentile, secs, timed, RefKernel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Seconds};
use spinamm_cmos::{DtcsDac, Tech45};
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity, RecallResult};
use spinamm_core::{RecallRequest, SpinSarAdc, SpinWta};
use spinamm_crossbar::{CachedParasiticCrossbar, RowDrive};
use spinamm_data::dataset::{DatasetConfig, FaceDataset};
use spinamm_data::image::Resolution;
use spinamm_telemetry::{MemoryRecorder, TelemetrySnapshot};
use std::collections::HashSet;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Queries per batch per worker. The master solves the first query of a
/// batch alone, so batches must be long for the workers to stay busy.
const BATCH_PER_WORKER: usize = 16;
/// Queries whose outcome defines `sim_accuracy` / `sim_energy_pj`: a fixed
/// prefix, so both repeat exactly for a seed whatever the host speed.
const PREFIX: usize = 1_600;
/// Queries in the traced pass and its untraced reference.
const TRACED: usize = 240;
/// Queries run twice on fresh clones with a recorder: the simulated
/// counters must repeat, and the traced pass reads the program's own
/// counters and spans from them.
const COUNTER_CHECK: usize = 32;
/// Simulated counters that must repeat exactly for one seed.
pub const SIM_COUNTERS: [&str; 4] = [
    "adc.sar_cycles",
    "spin.dwn_switch_events",
    "wta.dl_transitions",
    "crossbar.settle_iterations",
];

/// Seeded jittered copies of the test images; no query repeats in a run.
struct Queries {
    rng: ChaCha8Rng,
    tests: Vec<(usize, Vec<u32>)>,
    order: Vec<usize>,
    seen: HashSet<Vec<u32>>,
    levels: u32,
}

impl Queries {
    fn new(tests: Vec<(usize, Vec<u32>)>, bits: u32, seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xface_0001),
            order: Vec::new(),
            tests,
            seen: HashSet::new(),
            levels: 1 << bits,
        }
    }

    /// The next query and the individual it shows. Each pass visits every
    /// test image once in a seeded order; a quarter of the pixels move one
    /// level up or down.
    fn next(&mut self) -> (usize, Vec<u32>) {
        loop {
            if self.order.is_empty() {
                self.order = (0..self.tests.len()).collect();
                for i in (1..self.order.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.order.swap(i, j);
                }
            }
            let (person, base) = &self.tests[self.order.pop().expect("refilled above")];
            let top = self.levels - 1;
            let query: Vec<u32> = base
                .iter()
                .map(|&l| match self.rng.gen_range(0..8u32) {
                    0 => l.saturating_sub(1),
                    1 => (l + 1).min(top),
                    _ => l,
                })
                .collect();
            if self.seen.insert(query.clone()) {
                return (*person, query);
            }
        }
    }

    fn take(&mut self, n: usize) -> Vec<(usize, Vec<u32>)> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Bit-exact comparison of two recall results, energy included.
pub fn same_result(a: &RecallResult, b: &RecallResult) -> bool {
    let e = |r: &RecallResult| {
        let x = r.energy;
        [
            x.rcm_static,
            x.dac_static,
            x.dwn_write,
            x.latch_sense,
            x.digital,
        ]
        .map(|j| j.0.to_bits())
    };
    a == b && e(a) == e(b)
}

/// Runs `queries` on a fresh clone with a recorder and returns what it
/// recorded.
fn recorded(
    module: &AssociativeMemoryModule,
    queries: &[(usize, Vec<u32>)],
) -> Result<TelemetrySnapshot, String> {
    let mut clone = module.clone();
    let recorder = MemoryRecorder::default();
    let req = RecallRequest::recorded(&recorder);
    for (_, q) in queries {
        clone.recall_request(q, &req).map_err(|e| e.to_string())?;
    }
    Ok(recorder.snapshot())
}

/// Whether two recorded runs of the same queries agree on every simulated
/// counter.
pub fn same_counters(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> bool {
    SIM_COUNTERS.iter().all(|c| a.counter(c) == b.counter(c))
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let data = FaceDataset::generate(&DatasetConfig::default()).map_err(|e| e.to_string())?;
    let target = Resolution::template();
    let bits = 5;
    let templates = data.templates(target, bits).map_err(|e| e.to_string())?;
    let tests = data.test_vectors(target, bits).map_err(|e| e.to_string())?;
    let config = AmmConfig {
        fidelity: Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    let workers = nproc().min(2);
    let batch = if run.tiny {
        2 * workers
    } else {
        BATCH_PER_WORKER * workers + 1
    };
    let prefix = if run.tiny { 8 } else { PREFIX };
    let mut queries = Queries::new(tests, bits, run.seed);
    report.context("batch_workers", workers);
    report.context("batch_queries", batch);

    // Set-up: build (programming, calibration, canonical warm solve) plus
    // one untimed-by-the-loop warm-up batch, several times.
    let warmup = queries.take(batch);
    let mut builds = Vec::new();
    let mut setups = Vec::new();
    let mut module = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (built, build_s) = timed(|| AssociativeMemoryModule::build(&templates, &config));
        let mut built = built.map_err(|e| e.to_string())?;
        let req = RecallRequest::DEFAULT.with_workers(workers);
        let inputs: Vec<&[u32]> = warmup.iter().map(|(_, q)| q.as_slice()).collect();
        built
            .recall_batch_request(&inputs, &req)
            .map_err(|e| e.to_string())?;
        setups.push(secs(start));
        builds.push(build_s);
        module = Some(built);
    }
    let mut module = module.expect("at least one set-up");

    // Simulated counters repeat exactly across two runs of one seed; the
    // traced pass also reads its counters and program spans from them.
    let check = queries.take(if run.tiny { 2 } else { COUNTER_CHECK });
    let (a, b) = (recorded(&module, &check)?, recorded(&module, &check)?);
    report.check(same_counters(&a, &b));

    if run.trace {
        traced(run, &mut report, &module, &mut queries, &a, median(&builds))?;
        return Ok(report);
    }

    // Closed loop of batched recalls; the oracle clone starts from the
    // same state. The sequential replay takes about twice as long as the
    // loop, so the loop gets a third of the budget.
    let mut oracle = module.clone();
    let req = RecallRequest::DEFAULT.with_workers(workers);
    let budget = run.seconds / 3.0;
    let mut done: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut results: Vec<RecallResult> = Vec::new();
    let mut call_ms = Vec::new();
    let mut call_rates = Vec::new();
    let mut busy = 0.0;
    let mut batch_kernel = RefKernel::new();
    while busy < budget || done.len() < prefix {
        batch_kernel.sample_parallel(workers);
        let chunk = queries.take(batch);
        let inputs: Vec<&[u32]> = chunk.iter().map(|(_, q)| q.as_slice()).collect();
        let (out, took) = timed(|| module.recall_batch_request(&inputs, &req));
        busy += took;
        call_ms.push(took * 1e3);
        match out {
            Ok(out) => {
                call_rates.push(out.len() as f64 / took);
                results.extend(out);
            }
            Err(_) => {
                report.failed += chunk.len() as u64;
                report.attempted += chunk.len() as u64;
                break;
            }
        }
        done.extend(chunk);
        if run.tiny {
            break;
        }
    }
    if run.corrupt {
        results[0].dom ^= 1;
    }

    // Oracle replay: sequential recall, one call per query.
    let mut recall_ms = Vec::with_capacity(done.len());
    let mut recall_costs = Vec::with_capacity(done.len());
    let mut kernel = RefKernel::new();
    for ((_, q), got) in done.iter().zip(&results) {
        let reference = kernel.sample();
        let (want, took) = timed(|| oracle.recall(q));
        recall_ms.push(took * 1e3);
        recall_costs.push(took / reference);
        report.check(want.is_ok_and(|w| same_result(&w, got)));
    }

    let head = &results[..prefix.min(results.len())];
    let correct = head
        .iter()
        .zip(&done)
        .filter(|(r, (person, _))| r.raw_winner == *person)
        .count();
    let energy: f64 = head.iter().map(|r| r.energy.total().0).sum();
    let recall_per_s = median(&call_rates);
    let accuracy = correct as f64 / head.len() as f64;
    let energy_pj = energy / head.len() as f64 * 1e12;
    // Gated costs: a batched recognition against the kernel run on as many
    // threads as the batch keeps busy (the medians of both, which held
    // steadier across seeds than per-call pairs); one sequential recall
    // against the single-thread kernel run just before it.
    report.metric("setup_s", median(&setups));
    report.metric(
        "op_cost_ref",
        median(&call_ms) / 1e3 / batch as f64 / batch_kernel.median_s(),
    );
    report.metric("side_cost_ref", median(&recall_costs));
    report.metric("sim_accuracy", accuracy);
    report.metric("sim_energy_pj", energy_pj);
    report.detail("setup_s", median(&setups), "s");
    report.detail("recall_per_s", recall_per_s, "1/s");
    report.detail("sim_accuracy", accuracy, "share");
    report.detail("sim_energy_pj", energy_pj, "pJ");
    report.detail("batch_call_p50_ms", median(&call_ms), "ms");
    report.detail("recall_p50_ms", median(&recall_ms), "ms");
    report.detail("recall_p99_ms", percentile(&recall_ms, 0.99), "ms");
    report.detail("ref_kernel_us", kernel.median_s() * 1e6, "us");
    report.detail(
        "ref_kernel_parallel_us",
        batch_kernel.median_s() * 1e6,
        "us",
    );
    report.detail("core.build_s", median(&builds), "s");
    report.context("recalls", results.len());
    report.context("batch_calls", call_ms.len());
    Ok(report)
}

/// The traced pass: per-query evaluate/select spans against an untraced
/// sequential reference, plus the standalone layer timings.
fn traced(
    run: &Run,
    report: &mut Report,
    module: &AssociativeMemoryModule,
    queries: &mut Queries,
    snap: &TelemetrySnapshot,
    build_s: f64,
) -> Result<(), String> {
    let n = if run.tiny { 4 } else { TRACED };
    let qs = queries.take(n);

    // Untraced reference on one clone, traced pass on another, interleaved
    // query by query so host drift hits both alike; the reference doubles
    // as the oracle for the traced results.
    let mut reference = module.clone();
    // Evaluate reports into a recorder for the program's own settle span
    // (a handful of calls per query); select runs silent, since its
    // per-cycle device counters would cost more than the select itself.
    let mut clone = module.clone();
    let recorder = MemoryRecorder::default();
    let eval_req = RecallRequest::recorded(&recorder);
    let mut log = SpanLog::new(Instant::now());
    let mut reference_us = Vec::with_capacity(n);
    let mut currents = Vec::with_capacity(n);
    for (i, (_, q)) in qs.iter().enumerate() {
        let (want, took) = timed(|| reference.recall(q));
        reference_us.push(took * 1e6);
        let want = want.map_err(|e| e.to_string())?;
        let got = log.span("recall", i as u64, |log| {
            let eval = log.span("core.evaluate_us", i as u64, |_| {
                clone.evaluate_query_request(q, &eval_req)
            });
            eval.and_then(|eval| {
                currents.push(eval.column_currents().to_vec());
                log.span("core.select_us", i as u64, |_| {
                    clone.select_winner_request(eval, &RecallRequest::DEFAULT)
                })
            })
        });
        report.check(got.is_ok_and(|g| same_result(&g, &want)));
    }

    // Standalone crossbar settle: a warmed cached session over the
    // module's array, driven by a nominal DTCS DAC.
    let params = module.config().params;
    let dac = DtcsDac::paper_input().nominal();
    let mut session = CachedParasiticCrossbar::new(params.crossbar_geometry());
    let mut settle_us = Vec::with_capacity(n);
    for (k, (_, q)) in qs.iter().enumerate() {
        let drives: Vec<RowDrive> = q
            .iter()
            .map(|&l| {
                dac.conductance(l).map(|g| RowDrive::SourceConductance {
                    g,
                    supply: params.delta_v,
                })
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let (out, took) = timed(|| session.evaluate(module.array(), &drives));
        out.map_err(|e| e.to_string())?;
        if k > 0 {
            settle_us.push(took * 1e6);
        }
    }

    let (sar_us, wta_us) = sar_and_wta(run.seed, &currents)?;
    let spans = recorder.snapshot();
    let span_p50_us = |name: &str| spans.span_stats(name).map_or(0.0, |s| s.p50 * 1e6);
    let recalls = snap.counter("recall.count").max(1) as f64;
    let solves = snap.counter("crossbar.solves").max(1) as f64;
    let own = log.median_self_us();
    let evaluate_us = own["core.evaluate_us"];
    let select_us = own["core.select_us"];
    let settle_in_recall_us = span_p50_us("recall.settle");
    let end_to_end_us = median(&reference_us);

    report.metric("core.build_s", build_s);
    report.metric("core.evaluate_us", evaluate_us);
    report.metric("core.select_us", select_us);
    report.metric("core.sar_convert_us", sar_us);
    report.metric("core.wta_select_us", wta_us);
    let mut ledger = Ledger::default();
    ledger.row("crossbar", settle_in_recall_us);
    ledger.row("core_evaluate", evaluate_us - settle_in_recall_us);
    ledger.row("core_select", select_us);
    ledger.emit(report, end_to_end_us);
    let traced_us = log
        .spans()
        .iter()
        .filter(|s| s.name == "recall")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect::<Vec<_>>();
    report.metric("trace.overhead_ratio", median(&traced_us) / end_to_end_us);
    for (name, counter) in [
        ("adc.sar_cycles", "adc.sar_cycles"),
        ("wta.dl_transitions", "wta.dl_transitions"),
        ("spin.dwn_switch_events", "spin.dwn_switch_events"),
    ] {
        report.metric(name, snap.counter(counter) as f64 / recalls);
    }
    report.metric(
        "circuit.cg_iterations",
        snap.counter("crossbar.settle_iterations") as f64 / solves,
    );
    report.metric(
        "circuit.warm_start_saved",
        snap.counter("circuit.warm_start_iterations_saved") as f64 / solves,
    );
    report.metric(
        "circuit.factorization_reuse_share",
        snap.counter("circuit.factorization_reuses") as f64 / solves,
    );
    report.metric("engine.worker_utilization", 0.0);
    report.metric("server.rejected", 0.0);

    report.detail("recall_p50_us", end_to_end_us, "us");
    report.detail("crossbar.settle_us", median(&settle_us), "us");
    report.detail("crossbar.settle_in_recall_us", settle_in_recall_us, "us");
    report.detail(
        "crossbar.restamp_us",
        span_p50_us("crossbar.restamp_ns"),
        "us",
    );
    report.detail("core.evaluate_us", evaluate_us, "us");
    report.detail("core.select_us", select_us, "us");
    report.detail("core.sar_convert_us", sar_us, "us");
    report.detail("core.wta_select_us", wta_us, "us");
    report.detail("core.build_s", build_s, "s");
    report.detail(
        "circuit.cg_iterations",
        snap.counter("crossbar.settle_iterations") as f64 / solves,
        "count",
    );
    report.spans = Some(log);
    Ok(())
}

/// Standalone SAR and WTA timings over 40 converters built at the paper's
/// design point: per query, 40 `SpinSarAdc::convert` calls, and one
/// `SpinWta::evaluate` minus those conversions. Medians, µs.
pub fn sar_and_wta(seed: u64, currents: &[Vec<Amps>]) -> Result<(f64, f64), String> {
    let p = spinamm_core::DesignParams::PAPER;
    let tech = Tech45::DEFAULT;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0adc);
    let clock = Seconds(1.0 / p.input_rate.0);
    let columns = currents.first().map_or(40, Vec::len);
    let adcs: Vec<SpinSarAdc> = (0..columns)
        .map(|_| {
            SpinSarAdc::build(
                p.comparator_bits,
                p.dwn_threshold,
                p.delta_v,
                clock,
                &tech,
                &mut rng,
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let wta = SpinWta::new(adcs.clone(), tech).map_err(|e| e.to_string())?;
    let (mut sar, mut select) = (Vec::new(), Vec::new());
    for query in currents {
        let (codes, t_sar) = timed(|| {
            adcs.iter()
                .zip(query)
                .map(|(adc, &i)| adc.convert(i, &mut rng).map(|c| c.code))
                .collect::<Result<Vec<u32>, _>>()
        });
        std::hint::black_box(codes.map_err(|e| e.to_string())?);
        let (outcome, t_wta) = timed(|| wta.evaluate(query, &mut rng));
        std::hint::black_box(outcome.map_err(|e| e.to_string())?);
        sar.push(t_sar * 1e6);
        select.push((t_wta - t_sar) * 1e6);
    }
    Ok((median(&sar), median(&select)))
}
