//! One conformance case: a seeded workload pushed through every fidelity
//! and every execution path, judged against the tolerance ledger.

use crate::ledger::ToleranceLedger;
use crate::ConformanceError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spinamm_circuit::units::{Amps, Seconds, Volts};
use spinamm_cmos::Tech45;
use spinamm_core::adc::SpinSarAdc;
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity, RecallResult};
use spinamm_core::capacity::TiledAmm;
use spinamm_core::degrade::DegradationPolicy;
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_core::request::RecallRequest;
use spinamm_core::wta::argmax_lowest_index;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_engine::{Deployment, EngineConfig, EngineResponse, RecallEngine};
use spinamm_faults::{FaultMap, FaultModel};
use spinamm_telemetry::Recorder;

/// The three evaluation fidelities every case sweeps, in comparison order.
pub const FIDELITIES: [Fidelity; 3] = [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic];

/// Engine worker counts every case sweeps ("several worker counts": one
/// degenerate single-worker engine plus a genuinely concurrent one).
pub const WORKER_COUNTS: [usize; 2] = [1, 3];

/// Stuck-cell rate used for the faulted differential path.
const FAULT_RATE: f64 = 0.02;

/// An intentional column-wise conductance perturbation, installed on the
/// batch-path module only so the differential oracle must flag it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// The crossbar column whose cells are scaled.
    pub column: usize,
    /// The conductance gain, in `(0, 1)`: scaling *down* never trips the
    /// degradation policy's masking (no positive excess), so the raw
    /// divergence reaches the oracle unmitigated.
    pub gain: f64,
}

/// One seeded conformance case — everything needed to reproduce a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Master seed for the workload and module builds.
    pub seed: u64,
    /// Stored templates.
    pub pattern_count: usize,
    /// Elements per template.
    pub vector_len: usize,
    /// Noisy queries evaluated per path.
    pub query_count: usize,
    /// Workload noise magnitude in levels.
    pub noise_magnitude: u32,
    /// Run the fault-injected differential path (a seeded stuck-cell map
    /// installed identically on every compared module).
    pub faulted: bool,
    /// Optional intentional divergence (see [`Perturbation`]).
    pub perturbation: Option<Perturbation>,
}

impl CaseSpec {
    /// Checks the case is runnable through every path (partitioning needs
    /// at least two rows, hierarchy at least two patterns, and so on).
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::InvalidParameter`] otherwise.
    pub fn validate(&self) -> Result<(), ConformanceError> {
        if self.pattern_count < 2 {
            return Err(ConformanceError::InvalidParameter {
                what: "case needs at least 2 patterns (hierarchy has 2 clusters)",
            });
        }
        if self.vector_len < 4 {
            return Err(ConformanceError::InvalidParameter {
                what: "case needs at least 4 rows (partitioning has 2 segments)",
            });
        }
        if self.query_count == 0 {
            return Err(ConformanceError::InvalidParameter {
                what: "case needs at least one query",
            });
        }
        if !(1..32).contains(&self.noise_magnitude) {
            return Err(ConformanceError::InvalidParameter {
                what: "noise magnitude must be within 1..32 levels",
            });
        }
        if let Some(p) = self.perturbation {
            if p.column >= self.pattern_count {
                return Err(ConformanceError::InvalidParameter {
                    what: "perturbed column outside the array",
                });
            }
            if !p.gain.is_finite() || !(0.0..1.0).contains(&p.gain) || p.gain == 0.0 {
                return Err(ConformanceError::InvalidParameter {
                    what: "perturbation gain must be within (0, 1)",
                });
            }
        }
        Ok(())
    }
}

/// One ledger violation: which check failed, on which query, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Dotted check identifier, e.g. `bit_identity.batch.driven` or
    /// `fidelity.ideal_driven.dom`.
    pub check: String,
    /// The query index the violation occurred on, when per-query.
    pub query: Option<usize>,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// Winner-agreement tally between two compared paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agreement {
    /// Queries where both paths picked the same winner.
    pub agree: u64,
    /// Queries compared.
    pub total: u64,
}

impl Agreement {
    /// Agreement rate; an empty tally counts as full agreement.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.agree as f64 / self.total as f64
        }
    }

    /// Accumulates another tally.
    pub fn merge(&mut self, other: Agreement) {
        self.agree += other.agree;
        self.total += other.total;
    }
}

/// Maximum divergences actually observed, reported next to the ledger
/// budgets so drift toward a budget is visible before it crosses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservedBounds {
    /// Max |ΔDOM| seen between ideal and driven fidelity.
    pub ideal_driven_dom_lsb: u32,
    /// Max |ΔDOM| seen between driven and parasitic fidelity.
    pub driven_parasitic_dom_lsb: u32,
    /// Max |ΔDOM| seen across the metamorphic permutation check.
    pub permutation_dom_lsb: u32,
}

impl ObservedBounds {
    /// Pointwise maximum with another observation.
    pub fn merge(&mut self, other: &ObservedBounds) {
        self.ideal_driven_dom_lsb = self.ideal_driven_dom_lsb.max(other.ideal_driven_dom_lsb);
        self.driven_parasitic_dom_lsb = self
            .driven_parasitic_dom_lsb
            .max(other.driven_parasitic_dom_lsb);
        self.permutation_dom_lsb = self.permutation_dom_lsb.max(other.permutation_dom_lsb);
    }
}

/// Everything one case produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseOutcome {
    /// Individual ledger checks evaluated.
    pub checks: u64,
    /// Ledger violations found (empty on a conforming case).
    pub divergences: Vec<Divergence>,
    /// Maxima observed against the bounded budgets.
    pub observed: ObservedBounds,
    /// Flat↔partitioned winner agreement (aggregated by the corpus).
    pub flat_partitioned: Agreement,
    /// Flat↔hierarchical winner agreement (aggregated by the corpus).
    pub flat_hierarchical: Agreement,
    /// Flat↔tiled winner agreement (aggregated by the corpus).
    pub flat_tiled: Agreement,
}

fn fidelity_name(f: Fidelity) -> &'static str {
    match f {
        Fidelity::Ideal => "ideal",
        Fidelity::Driven => "driven",
        Fidelity::Parasitic => "parasitic",
    }
}

fn amm_config(spec: &CaseSpec, fidelity: Fidelity) -> AmmConfig {
    AmmConfig {
        fidelity,
        seed: spec.seed ^ 0xa5eed,
        ..AmmConfig::default()
    }
}

fn workload(spec: &CaseSpec) -> Result<PatternWorkload, ConformanceError> {
    Ok(PatternWorkload::generate(&WorkloadConfig {
        pattern_count: spec.pattern_count,
        vector_len: spec.vector_len,
        bits: 5,
        query_count: spec.query_count,
        query_noise: 0.3,
        noise_magnitude: spec.noise_magnitude,
        similarity: 0.0,
        seed: spec.seed,
    })?)
}

/// Installs the case's seeded fault map (when `spec.faulted`) and the
/// intentional perturbation (when handed one) in a single injection pass,
/// so compared modules share one degradation schedule.
fn install_faults(
    module: &mut AssociativeMemoryModule,
    spec: &CaseSpec,
    perturbation: Option<Perturbation>,
) -> Result<(), ConformanceError> {
    if !spec.faulted && perturbation.is_none() {
        return Ok(());
    }
    let rows = module.vector_len();
    let cols = module.pattern_count();
    let mut map = if spec.faulted {
        FaultMap::sample(
            &FaultModel::stuck(FAULT_RATE).expect("static rate in range"),
            rows,
            cols,
            spec.seed ^ 0xfa17,
        )?
    } else {
        FaultMap::pristine(rows, cols, 0)?
    };
    if let Some(p) = perturbation {
        for row in 0..rows {
            map = map.with_cell_gain(row, p.column, p.gain)?;
        }
    }
    module.inject_faults(map, &DegradationPolicy::default())?;
    Ok(())
}

/// The winner's code margin over the best other column (`dom` itself for a
/// single-column module). Near-ties — small margins on *both* sides of a
/// comparison — are the only excuse for a winner mismatch.
fn margin(codes: &[u32], winner: usize) -> u32 {
    let runner_up = codes
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != winner)
        .map(|(_, &c)| c)
        .max();
    match runner_up {
        Some(r) => codes[winner].saturating_sub(r),
        None => codes[winner],
    }
}

/// The sequential full-argsort ranking oracle: all columns ordered by
/// `(code descending, global column ascending)`, truncated to `k` — an
/// independent implementation of the contract
/// [`spinamm_core::capacity::top_k_merge`] must meet.
fn argsort_oracle(scores: &[u32], k: usize) -> Vec<(usize, u32)> {
    let mut all: Vec<(usize, u32)> = scores.iter().copied().enumerate().collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn flat_detail(a: &RecallResult, b: &RecallResult) -> String {
    format!(
        "winner {} dom {} vs winner {} dom {} (codes {:?} vs {:?})",
        a.raw_winner, a.dom, b.raw_winner, b.dom, a.codes, b.codes
    )
}

/// Bounded cross-fidelity comparison; returns the max |ΔDOM| observed.
fn bounded_pair(
    out: &mut CaseOutcome,
    name: &str,
    a: &[RecallResult],
    b: &[RecallResult],
    dom_budget: u32,
    tie_margin: u32,
) -> u32 {
    let mut max_delta = 0u32;
    for (k, (ra, rb)) in a.iter().zip(b).enumerate() {
        out.checks += 1;
        let delta = ra.dom.abs_diff(rb.dom);
        max_delta = max_delta.max(delta);
        if delta > dom_budget {
            out.divergences.push(Divergence {
                check: format!("{name}.dom"),
                query: Some(k),
                detail: format!("|ΔDOM| {delta} exceeds budget {dom_budget} LSB"),
            });
        }
        if ra.raw_winner != rb.raw_winner {
            let ma = margin(&ra.codes, ra.raw_winner);
            let mb = margin(&rb.codes, rb.raw_winner);
            if ma > tie_margin || mb > tie_margin {
                out.divergences.push(Divergence {
                    check: format!("{name}.winner"),
                    query: Some(k),
                    detail: format!(
                        "winners {} vs {} with margins {ma}/{mb} LSB (tie budget {tie_margin})",
                        ra.raw_winner, rb.raw_winner
                    ),
                });
            }
        }
    }
    max_delta
}

/// Runs one case through the full differential oracle. Divergences are
/// *findings* collected in the outcome, not errors; `Err` means the
/// harness itself could not run (bad spec, device failure).
///
/// Emits `conformance.cases` / `conformance.checks` /
/// `conformance.divergences` counters on `recorder`.
///
/// # Errors
///
/// Returns [`ConformanceError::InvalidParameter`] for an unrunnable spec
/// and propagates recall-stack failures.
#[allow(clippy::too_many_lines)] // one case = one linear audit script
pub fn run_case<T: Recorder>(
    spec: &CaseSpec,
    ledger: &ToleranceLedger,
    recorder: &T,
) -> Result<CaseOutcome, ConformanceError> {
    spec.validate()?;
    ledger.validate()?;
    let w = workload(spec)?;
    let inputs: Vec<Vec<u32>> = w.queries.iter().map(|(_, q)| q.clone()).collect();
    let mut out = CaseOutcome::default();
    let mut per_fidelity: Vec<Vec<RecallResult>> = Vec::with_capacity(FIDELITIES.len());

    // --- Bit-identity oracle, per fidelity. ------------------------------
    for fidelity in FIDELITIES {
        let name = fidelity_name(fidelity);
        let cfg = amm_config(spec, fidelity);
        let mut reference = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
        install_faults(&mut reference, spec, None)?;
        let sequential = inputs
            .iter()
            .map(|q| reference.recall(q))
            .collect::<Result<Vec<_>, _>>()?;

        // Sequential vs recall_batch. The intentional perturbation, when
        // present, lands on this module alone: the oracle must flag it.
        let mut batch_module = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
        install_faults(&mut batch_module, spec, spec.perturbation)?;
        let batched = batch_module.recall_batch(&inputs)?;
        out.checks += inputs.len() as u64;
        for (k, (a, b)) in sequential.iter().zip(&batched).enumerate() {
            if a != b {
                out.divergences.push(Divergence {
                    check: format!("bit_identity.batch.{name}"),
                    query: Some(k),
                    detail: flat_detail(a, b),
                });
            }
        }

        // Sequential vs the concurrent engine at several worker counts.
        for workers in WORKER_COUNTS {
            let mut engine_module = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
            install_faults(&mut engine_module, spec, None)?;
            let engine = RecallEngine::new(
                Deployment::Flat(engine_module),
                &EngineConfig {
                    workers,
                    queue_capacity: 2,
                },
            );
            let responses = engine.recall_many(&inputs)?;
            engine.shutdown();
            out.checks += inputs.len() as u64;
            for (k, (want, got)) in sequential.iter().zip(&responses).enumerate() {
                let identical = matches!(got, EngineResponse::Flat(r) if r == want);
                if !identical {
                    out.divergences.push(Divergence {
                        check: format!("bit_identity.engine.{name}.w{workers}"),
                        query: Some(k),
                        detail: format!("engine response diverged: {got:?}"),
                    });
                }
            }
        }

        // Sequential (the compiled kernel) vs the interpreted reference on
        // an identically built and faulted module — winner, codes,
        // currents, energy floats, all of it.
        let mut oracle_module = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
        install_faults(&mut oracle_module, spec, None)?;
        out.checks += inputs.len() as u64;
        for (k, (got, q)) in sequential.iter().zip(&inputs).enumerate() {
            let want = oracle_module.oracle_recall_request(q, &RecallRequest::DEFAULT)?;
            if got != &want {
                out.divergences.push(Divergence {
                    check: format!("bit_identity.plan.{name}"),
                    query: Some(k),
                    detail: flat_detail(got, &want),
                });
            }
        }

        per_fidelity.push(sequential);
    }

    // --- Bounded cross-fidelity divergence. ------------------------------
    let d = bounded_pair(
        &mut out,
        "fidelity.ideal_driven",
        &per_fidelity[0],
        &per_fidelity[1],
        ledger.ideal_driven_dom_lsb,
        ledger.tie_margin_lsb,
    );
    out.observed.ideal_driven_dom_lsb = d;
    let d = bounded_pair(
        &mut out,
        "fidelity.driven_parasitic",
        &per_fidelity[1],
        &per_fidelity[2],
        ledger.driven_parasitic_dom_lsb,
        ledger.tie_margin_lsb,
    );
    out.observed.driven_parasitic_dom_lsb = d;

    // --- Partitioned and hierarchical deployments (driven fidelity). -----
    let cfg = amm_config(spec, Fidelity::Driven);
    let flat_driven = &per_fidelity[1];

    let mut part = PartitionedAmm::build(&w.patterns, 2, &cfg)?;
    let part_engine = RecallEngine::new(
        Deployment::Partitioned(part.clone()),
        &EngineConfig {
            workers: 2,
            queue_capacity: 2,
        },
    );
    let part_responses = part_engine.recall_many(&inputs)?;
    part_engine.shutdown();
    let part_direct = inputs
        .iter()
        .map(|q| part.recall(q))
        .collect::<Result<Vec<_>, _>>()?;
    out.checks += inputs.len() as u64;
    for (k, (want, got)) in part_direct.iter().zip(&part_responses).enumerate() {
        let identical = matches!(got, EngineResponse::Partitioned(r) if r == want);
        if !identical {
            out.divergences.push(Divergence {
                check: "bit_identity.engine.partitioned".to_string(),
                query: Some(k),
                detail: format!("engine response diverged: {got:?}"),
            });
        }
    }

    let mut hier = HierarchicalAmm::build(&w.patterns, 2, &cfg)?;
    let hier_engine = RecallEngine::new(
        Deployment::Hierarchical(hier.clone()),
        &EngineConfig {
            workers: 2,
            queue_capacity: 2,
        },
    );
    let hier_responses = hier_engine.recall_many(&inputs)?;
    hier_engine.shutdown();
    let hier_direct = inputs
        .iter()
        .map(|q| hier.recall(q))
        .collect::<Result<Vec<_>, _>>()?;
    out.checks += inputs.len() as u64;
    for (k, (want, got)) in hier_direct.iter().zip(&hier_responses).enumerate() {
        let identical = matches!(got, EngineResponse::Hierarchical(r) if r == want);
        if !identical {
            out.divergences.push(Divergence {
                check: "bit_identity.engine.hierarchical".to_string(),
                query: Some(k),
                detail: format!("engine response diverged: {got:?}"),
            });
        }
    }

    // --- Tiled capacity pool (driven fidelity, ranked top-k recall). ------
    // The pool splits the template set across two tiles and ranks with
    // k = 3; every ranked result is audited against the sequential argsort
    // oracle and the legacy single-winner (k = 1) rule, and the engine's
    // fan-out must reproduce direct pool recall bit for bit.
    let tile_capacity = w.patterns.len().div_ceil(2);
    let mut tiled = TiledAmm::build(&w.patterns, tile_capacity, &cfg)?.with_top_k(3)?;
    let tiled_engine = RecallEngine::new(
        Deployment::Tiled(tiled.clone()),
        &EngineConfig {
            workers: 2,
            queue_capacity: 2,
        },
    );
    let tiled_responses = tiled_engine.recall_many(&inputs)?;
    tiled_engine.shutdown();
    let tiled_direct = inputs
        .iter()
        .map(|q| tiled.recall(q))
        .collect::<Result<Vec<_>, _>>()?;
    out.checks += inputs.len() as u64;
    for (k, (want, got)) in tiled_direct.iter().zip(&tiled_responses).enumerate() {
        let identical = matches!(got, EngineResponse::Tiled(r) if r == want);
        if !identical {
            out.divergences.push(Divergence {
                check: "bit_identity.engine.tiled".to_string(),
                query: Some(k),
                detail: format!("engine response diverged: {got:?}"),
            });
        }
    }
    for (k, r) in tiled_direct.iter().enumerate() {
        // Ranked output ≡ the first top_k entries of a full argsort of the
        // concatenated per-tile codes (code desc, global column asc).
        out.checks += 1;
        let ranked: Vec<(usize, u32)> = r
            .matches
            .iter()
            .map(|m| (m.global_column, m.score))
            .collect();
        let oracle = argsort_oracle(&r.scores, ranked.len());
        if ranked != oracle {
            out.divergences.push(Divergence {
                check: "capacity.topk.oracle".to_string(),
                query: Some(k),
                detail: format!("ranked {ranked:?} vs argsort oracle {oracle:?}"),
            });
        }
        // k = 1 ≡ the legacy WTA tie-break rule over the concatenation.
        out.checks += 1;
        let legacy = argmax_lowest_index(&r.scores).expect("pool has columns");
        if r.matches[0].global_column != legacy || r.dom != r.scores[legacy] {
            out.divergences.push(Divergence {
                check: "capacity.topk.k1".to_string(),
                query: Some(k),
                detail: format!(
                    "top match {} dom {} vs argmax_lowest_index {} code {}",
                    r.matches[0].global_column, r.dom, legacy, r.scores[legacy]
                ),
            });
        }
    }

    // Cross-decomposition winner agreement, aggregated corpus-wide against
    // the ledger floors. Faulted cases are skipped: the flat reference
    // carries the fault map but the decompositions do not, so the tally
    // would measure the faults, not the decomposition.
    if !spec.faulted {
        for (rf, rp) in flat_driven.iter().zip(&part_direct) {
            out.flat_partitioned.total += 1;
            if rf.raw_winner == rp.winner {
                out.flat_partitioned.agree += 1;
            }
        }
        for (rf, rh) in flat_driven.iter().zip(&hier_direct) {
            out.flat_hierarchical.total += 1;
            if rf.raw_winner == rh.winner {
                out.flat_hierarchical.agree += 1;
            }
        }
        for (rf, rt) in flat_driven.iter().zip(&tiled_direct) {
            out.flat_tiled.total += 1;
            let ordinal = rt.matches[0].handle.map(|h| tiled.build_ordinal(&h));
            if ordinal == Some(rf.raw_winner) {
                out.flat_tiled.agree += 1;
            }
        }
    }

    // --- Metamorphic invariants. -----------------------------------------
    metamorphic_duplication(spec, &w, &mut out)?;
    metamorphic_permutation(spec, &w, ledger, &mut out)?;
    metamorphic_monotonicity(spec, &w, &mut out)?;
    adc_saturation_check(spec, &mut out)?;

    recorder.counter("conformance.cases", 1);
    recorder.counter("conformance.checks", out.checks);
    recorder.counter("conformance.divergences", out.divergences.len() as u64);
    Ok(out)
}

/// Template-duplication tie: an exact copy of template 0 stored in the
/// last column must never report as the winner unless it strictly
/// out-scores the original — on an exact code tie the lowest index wins.
fn metamorphic_duplication(
    spec: &CaseSpec,
    w: &PatternWorkload,
    out: &mut CaseOutcome,
) -> Result<(), ConformanceError> {
    let mut patterns = w.patterns.clone();
    patterns.push(w.patterns[0].clone());
    let dup = patterns.len() - 1;
    let cfg = amm_config(spec, Fidelity::Driven);
    let mut module = AssociativeMemoryModule::build(&patterns, &cfg)?;
    let r = module.recall(&w.patterns[0])?;
    out.checks += 1;
    let expected = argmax_lowest_index(&r.codes).expect("non-empty codes");
    if r.raw_winner != expected || (r.codes[0] == r.codes[dup] && r.raw_winner != 0) {
        out.divergences.push(Divergence {
            check: "metamorphic.duplication".to_string(),
            query: None,
            detail: format!(
                "winner {} with codes {:?}; duplicate of template 0 at column {dup}",
                r.raw_winner, r.codes
            ),
        });
    }
    Ok(())
}

/// Input-permutation consistency: permuting the rows of every template and
/// of the query must leave the recall outcome unchanged up to programming
/// write noise (ideal fidelity, input mismatch disabled, so row order
/// carries no sampled per-row state).
fn metamorphic_permutation(
    spec: &CaseSpec,
    w: &PatternWorkload,
    ledger: &ToleranceLedger,
    out: &mut CaseOutcome,
) -> Result<(), ConformanceError> {
    let mut cfg = amm_config(spec, Fidelity::Ideal);
    cfg.input_mismatch = false;
    let query = &w.queries[0].1;
    let mut base = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
    let rb = base.recall(query)?;

    let mut perm: Vec<usize> = (0..spec.vector_len).collect();
    {
        use rand::seq::SliceRandom;
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x9e23);
        perm.shuffle(&mut rng);
    }
    let permuted: Vec<Vec<u32>> = w
        .patterns
        .iter()
        .map(|p| perm.iter().map(|&i| p[i]).collect())
        .collect();
    let permuted_query: Vec<u32> = perm.iter().map(|&i| query[i]).collect();
    let mut shuffled = AssociativeMemoryModule::build(&permuted, &cfg)?;
    let rp = shuffled.recall(&permuted_query)?;

    out.checks += 1;
    let delta = rb.dom.abs_diff(rp.dom);
    out.observed.permutation_dom_lsb = out.observed.permutation_dom_lsb.max(delta);
    let winners_excused = rb.raw_winner == rp.raw_winner
        || (margin(&rb.codes, rb.raw_winner) <= ledger.tie_margin_lsb
            && margin(&rp.codes, rp.raw_winner) <= ledger.tie_margin_lsb);
    if delta > ledger.permutation_dom_lsb || !winners_excused {
        out.divergences.push(Divergence {
            check: "metamorphic.permutation".to_string(),
            query: Some(0),
            detail: format!(
                "base winner {} dom {} vs permuted winner {} dom {} (budget {} LSB)",
                rb.raw_winner, rp.dom, rp.raw_winner, rp.dom, ledger.permutation_dom_lsb
            ),
        });
    }
    Ok(())
}

/// DOM monotonicity under column-wise conductance scaling: scaling every
/// cell of the winning column by a gain ladder `1 > γ₁ > γ₂ > …` must
/// never *increase* that column's code (ideal fidelity: the column current
/// scales exactly with γ and the converter is deterministic and monotone).
fn metamorphic_monotonicity(
    spec: &CaseSpec,
    w: &PatternWorkload,
    out: &mut CaseOutcome,
) -> Result<(), ConformanceError> {
    let cfg = amm_config(spec, Fidelity::Ideal);
    let query = &w.patterns[0];
    let mut base = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
    let r0 = base.recall(query)?;
    let column = r0.raw_winner;
    let mut prev = r0.codes[column];
    for gain in [0.85f64, 0.65, 0.45] {
        let mut module = AssociativeMemoryModule::build(&w.patterns, &cfg)?;
        let rows = module.vector_len();
        let cols = module.pattern_count();
        let mut map = FaultMap::pristine(rows, cols, 0)?;
        for row in 0..rows {
            map = map.with_cell_gain(row, column, gain)?;
        }
        module.inject_faults(map, &DegradationPolicy::default())?;
        let r = module.recall(query)?;
        out.checks += 1;
        if r.codes[column] > prev {
            out.divergences.push(Divergence {
                check: "metamorphic.monotonicity".to_string(),
                query: None,
                detail: format!(
                    "column {column} code rose {prev} → {} at gain {gain}",
                    r.codes[column]
                ),
            });
        }
        prev = r.codes[column];
    }
    Ok(())
}

/// Over-range saturation driven through the harness: a column current far
/// beyond DAC full scale must convert to the all-ones code with bounded,
/// finite write energy, and a non-finite current must be rejected.
fn adc_saturation_check(spec: &CaseSpec, out: &mut CaseOutcome) -> Result<(), ConformanceError> {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x0adc);
    let adc = SpinSarAdc::build(
        5,
        Amps(1e-6),
        Volts(0.030),
        Seconds(10e-9),
        &Tech45::DEFAULT,
        &mut rng,
    )?;
    let ceiling = adc.saturation_ceiling()?;
    let sat = adc.convert(Amps(ceiling.0 * 50.0), &mut rng)?;
    out.checks += 1;
    if sat.code != 31 || !sat.dwn_energy.0.is_finite() {
        out.divergences.push(Divergence {
            check: "adc.saturation".to_string(),
            query: None,
            detail: format!(
                "50× over-range converted to code {} with DWN energy {}",
                sat.code, sat.dwn_energy.0
            ),
        });
    }
    out.checks += 1;
    if adc.convert(Amps(f64::NAN), &mut rng).is_ok() {
        out.divergences.push(Divergence {
            check: "adc.guard".to_string(),
            query: None,
            detail: "non-finite input current was accepted".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_telemetry::{MemoryRecorder, NoopRecorder};

    fn spec() -> CaseSpec {
        CaseSpec {
            seed: 0x51ab,
            pattern_count: 4,
            vector_len: 12,
            query_count: 4,
            noise_magnitude: 1,
            faulted: false,
            perturbation: None,
        }
    }

    #[test]
    fn spec_validation() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.pattern_count = 1;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.vector_len = 2;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.query_count = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.perturbation = Some(Perturbation {
            column: 9,
            gain: 0.5,
        });
        assert!(s.validate().is_err());
        let mut s = spec();
        s.perturbation = Some(Perturbation {
            column: 0,
            gain: 1.5,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn clean_case_has_no_divergences() {
        let recorder = MemoryRecorder::default();
        let out = run_case(&spec(), &ToleranceLedger::DEFAULT, &recorder).unwrap();
        assert!(
            out.divergences.is_empty(),
            "unexpected divergences: {:?}",
            out.divergences
        );
        assert!(out.checks > 20, "only {} checks ran", out.checks);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("conformance.cases"), Some(&1));
        assert_eq!(counters.get("conformance.divergences"), Some(&0));
        assert_eq!(counters.get("conformance.checks"), Some(&out.checks));
    }

    #[test]
    fn plan_paths_stay_within_ledger() {
        // The kernel-vs-reference check must actually run and find the
        // module's recalls bit-identical to the interpreted oracle at
        // every fidelity (no `bit_identity.plan.*` findings).
        let out = run_case(&spec(), &ToleranceLedger::DEFAULT, &NoopRecorder).unwrap();
        assert!(
            !out.divergences.iter().any(|d| d.check.contains("plan")),
            "plan checks diverged: {:?}",
            out.divergences
        );
        assert!(out.checks > 0);
    }

    #[test]
    fn faulted_case_stays_bit_identical() {
        let mut s = spec();
        s.faulted = true;
        let out = run_case(&s, &ToleranceLedger::DEFAULT, &NoopRecorder).unwrap();
        let bit_identity_violations: Vec<_> = out
            .divergences
            .iter()
            .filter(|d| d.check.starts_with("bit_identity"))
            .collect();
        assert!(
            bit_identity_violations.is_empty(),
            "{bit_identity_violations:?}"
        );
    }

    #[test]
    fn perturbed_case_is_caught() {
        let mut s = spec();
        s.perturbation = Some(Perturbation {
            column: 0,
            gain: 0.5,
        });
        let out = run_case(&s, &ToleranceLedger::DEFAULT, &NoopRecorder).unwrap();
        assert!(
            out.divergences
                .iter()
                .any(|d| d.check.starts_with("bit_identity.batch")),
            "a halved column must break seq/batch bit-identity: {:?}",
            out.divergences
        );
    }

    #[test]
    fn margin_helper() {
        assert_eq!(margin(&[5, 3, 4], 0), 1);
        assert_eq!(margin(&[5, 5, 4], 0), 0);
        assert_eq!(margin(&[7], 0), 7);
        assert_eq!(margin(&[2, 9, 2], 1), 7);
    }
}
