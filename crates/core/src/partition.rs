//! Partitioned storage across modular RCM blocks — the paper's §5:
//! "Individual patterns of larger dimensions can also be partitioned and
//! stored in modular RCM-blocks."
//!
//! Each stored pattern is split into contiguous row segments; every segment
//! lives in its own, independently calibrated [`AssociativeMemoryModule`];
//! a recall runs all segments (in hardware they run concurrently) and a
//! digital adder tree sums each column's per-segment DOM codes into the
//! global score. Because each segment carries its own input DACs, ADCs and
//! tracker, the scheme scales the vector dimension without growing any
//! single crossbar's bars — keeping wire parasitics and `G_TS` loading at
//! the small-module operating point the paper characterizes.

use crate::amm::{bank_width, AmmConfig, AssociativeMemoryModule, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::request::RecallRequest;
use crate::CoreError;
use spinamm_circuit::units::Seconds;
use spinamm_telemetry::{Layer, Recorder};

/// An associative memory whose rows are partitioned across several modules.
///
/// # Example
///
/// ```
/// use spinamm_core::amm::AmmConfig;
/// use spinamm_core::partition::PartitionedAmm;
///
/// # fn main() -> Result<(), spinamm_core::CoreError> {
/// let patterns: Vec<Vec<u32>> = vec![
///     (0..16).map(|i| if i < 8 { 31 } else { 0 }).collect(),
///     (0..16).map(|i| if i < 8 { 0 } else { 31 }).collect(),
/// ];
/// let mut p = PartitionedAmm::build(&patterns, 2, &AmmConfig::default())?;
/// let r = p.recall(&patterns[1])?;
/// assert_eq!(r.winner, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedAmm {
    pub(crate) segments: Vec<Segment>,
    pub(crate) pattern_count: usize,
    pub(crate) vector_len: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Row range `[start, end)` of the full vector this module stores.
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) module: AssociativeMemoryModule,
}

/// Result of a partitioned recall.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedRecall {
    /// The winning pattern (argmax of summed segment DOMs; lowest index on
    /// ties).
    pub winner: usize,
    /// Summed degree of match of the winner.
    pub dom: u32,
    /// Per-column summed scores.
    pub scores: Vec<u32>,
    /// Combined energy of all segment evaluations.
    pub energy: EnergyBreakdown,
}

impl PartitionedAmm {
    /// Builds a partitioned memory: `patterns` are split into
    /// `segment_count` contiguous row ranges (balanced to within one row),
    /// one module per range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty or ragged
    /// pattern set, a zero segment count, or more segments than rows;
    /// propagates module build errors.
    pub fn build(
        patterns: &[Vec<u32>],
        segment_count: usize,
        config: &AmmConfig,
    ) -> Result<Self, CoreError> {
        let rows = bank_width(patterns)?;
        if segment_count == 0 || segment_count > rows {
            return Err(CoreError::InvalidParameter {
                what: "segment count must be in 1..=vector_len",
            });
        }
        let mut segments = Vec::with_capacity(segment_count);
        let base = rows / segment_count;
        let extra = rows % segment_count;
        let mut start = 0;
        for k in 0..segment_count {
            let len = base + usize::from(k < extra);
            let end = start + len;
            let sub: Vec<Vec<u32>> = patterns.iter().map(|p| p[start..end].to_vec()).collect();
            let module = AssociativeMemoryModule::build(&sub, config)?;
            segments.push(Segment { start, end, module });
            start = end;
        }
        Ok(Self {
            segments,
            pattern_count: patterns.len(),
            vector_len: rows,
        })
    }

    /// Number of row segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Stored pattern count.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Full input vector length.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// Recognition latency: the segments run concurrently, so the latency
    /// is one module's conversion (all segments share the resolution).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.segments[0].module.latency()
    }

    /// Runs one partitioned recall: every segment evaluates, then every
    /// segment selects, and the adder tree sums the segment codes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] for a mis-sized input;
    /// propagates per-segment recall errors.
    pub fn recall(&mut self, input: &[u32]) -> Result<PartitionedRecall, CoreError> {
        self.recall_request(input, &RecallRequest::DEFAULT)
    }

    /// [`PartitionedAmm::recall`] with options. The recall is one traced
    /// `recall` request: the segment modules run with tracing stripped and
    /// contribute one `shard.settle` and one `shard.select` span apiece,
    /// exactly as [`PartitionedAmm::evaluate_query_request`] and
    /// [`PartitionedAmm::select_winner_request`] do inside an engine job.
    ///
    /// # Errors
    ///
    /// See [`PartitionedAmm::recall`].
    pub fn recall_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<PartitionedRecall, CoreError> {
        let probe = req.begin(Layer::RECALL);
        let evals = self.evaluate_shards(input, req, &probe)?;
        self.select_shards(evals, req, &probe)
    }

    /// Engine-facing RNG-free phase: evaluates every segment's crossbar
    /// for one input, returning one [`QueryEvaluation`] per segment. Safe
    /// to run on a clone of the partition (see
    /// [`AssociativeMemoryModule::evaluate_query_request`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] for a mis-sized input;
    /// propagates solver errors.
    pub fn evaluate_query_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        self.evaluate_shards(input, req, &req.probe())
    }

    /// Engine-facing RNG-consuming phase: selects per-segment winners from
    /// the evaluations of [`PartitionedAmm::evaluate_query_request`] and
    /// sums the segment codes into the global score. Feeding evaluations
    /// back in submission order reproduces [`PartitionedAmm::recall`] bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless exactly one
    /// evaluation per segment is supplied; propagates spin/WTA errors.
    pub fn select_winner_request<R: Recorder>(
        &mut self,
        evals: Vec<QueryEvaluation>,
        req: &RecallRequest<'_, R>,
    ) -> Result<PartitionedRecall, CoreError> {
        self.select_shards(evals, req, &req.probe())
    }

    /// The evaluate phase. Segment modules run untraced and each
    /// contributes one `shard.settle` span on `probe` instead of generic
    /// drive/settle spans per shard.
    fn evaluate_shards<R: Recorder, T: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
        probe: &T,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        if input.len() != self.vector_len {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len,
                found: input.len(),
            });
        }
        let inner = req.untraced();
        self.segments
            .iter_mut()
            .enumerate()
            .map(|(k, seg)| {
                let shard = probe.span(Layer::SHARD_SETTLE);
                shard.attr("shard", k as f64);
                shard.attr("rows", (seg.end - seg.start) as f64);
                seg.module
                    .evaluate_query_request(&input[seg.start..seg.end], &inner)
            })
            .collect()
    }

    /// The select phase: segments select in segment order, each under one
    /// `shard.select` span on `probe`, then the adder tree combines them.
    fn select_shards<R: Recorder, T: Recorder>(
        &mut self,
        evals: Vec<QueryEvaluation>,
        req: &RecallRequest<'_, R>,
        probe: &T,
    ) -> Result<PartitionedRecall, CoreError> {
        if evals.len() != self.segments.len() {
            return Err(CoreError::InvalidParameter {
                what: "one evaluation per segment is required",
            });
        }
        let inner = req.untraced();
        let results: Vec<RecallResult> = self
            .segments
            .iter_mut()
            .zip(evals)
            .enumerate()
            .map(|(k, (seg, eval))| {
                let shard = probe.span(Layer::SHARD_SELECT);
                shard.attr("shard", k as f64);
                seg.module.select_winner_request(eval, &inner)
            })
            .collect::<Result<_, _>>()?;
        Ok(self.combine(&results))
    }

    /// Digital adder tree: sums per-segment DOM codes into global scores
    /// and picks the argmax (lowest index on ties).
    pub(crate) fn combine(&self, segment_results: &[RecallResult]) -> PartitionedRecall {
        let mut scores = vec![0u32; self.pattern_count];
        let mut energy = EnergyBreakdown::default();
        for r in segment_results {
            for (score, code) in scores.iter_mut().zip(&r.codes) {
                *score += code;
            }
            energy = energy + r.energy;
        }
        // The combine step re-ranks summed codes, so it must apply the same
        // lowest-index tie-break as the scalar WTA scan.
        let winner = crate::wta::argmax_lowest_index(&scores).expect("non-empty by construction");
        PartitionedRecall {
            winner,
            dom: scores[winner],
            scores,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

    fn workload() -> PatternWorkload {
        PatternWorkload::generate(&WorkloadConfig {
            pattern_count: 8,
            vector_len: 48,
            bits: 5,
            query_count: 24,
            query_noise: 0.1,
            seed: 19,
            noise_magnitude: 1,
            similarity: 0.0,
        })
        .unwrap()
    }

    #[test]
    fn build_validation() {
        let w = workload();
        let cfg = AmmConfig::default();
        assert!(PartitionedAmm::build(&[], 2, &cfg).is_err());
        assert!(PartitionedAmm::build(&w.patterns, 0, &cfg).is_err());
        assert!(PartitionedAmm::build(&w.patterns, 49, &cfg).is_err());
        let p = PartitionedAmm::build(&w.patterns, 3, &cfg).unwrap();
        assert_eq!(p.segment_count(), 3);
        assert_eq!(p.pattern_count(), 8);
        assert_eq!(p.vector_len(), 48);
        // A pattern shorter than the first would overrun its segment's
        // slice, and a longer one would be cut to the first's length.
        for odd in [vec![31; 4], vec![31; 60]] {
            let mut ragged = w.patterns.clone();
            ragged.push(odd);
            assert!(matches!(
                PartitionedAmm::build(&ragged, 3, &cfg),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn segments_cover_vector_with_balance() {
        // 50 rows into 4 segments: 13/13/12/12.
        let patterns: Vec<Vec<u32>> = (0..3)
            .map(|j| (0..50).map(|i| ((i + j * 7) % 32) as u32).collect())
            .collect();
        let p = PartitionedAmm::build(&patterns, 4, &AmmConfig::default()).unwrap();
        let sizes: Vec<usize> = p.segments.iter().map(|s| s.end - s.start).collect();
        assert_eq!(sizes, vec![13, 13, 12, 12]);
        assert_eq!(p.segments.first().unwrap().start, 0);
        assert_eq!(p.segments.last().unwrap().end, 50);
    }

    #[test]
    fn partitioned_recall_finds_stored_patterns() {
        let w = workload();
        let mut p = PartitionedAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        for (j, pattern) in w.patterns.iter().enumerate() {
            let r = p.recall(pattern).unwrap();
            assert_eq!(r.winner, j, "pattern {j} misrouted");
            assert_eq!(r.scores.len(), 8);
            assert!(r.energy.total().0 > 0.0);
        }
    }

    #[test]
    fn partitioned_agrees_with_flat_on_queries() {
        let w = workload();
        let cfg = AmmConfig::default();
        let mut flat = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let mut part = PartitionedAmm::build(&w.patterns, 4, &cfg).unwrap();
        let mut agree = 0;
        for (_, q) in &w.queries {
            if flat.recall(q).unwrap().raw_winner == part.recall(q).unwrap().winner {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= w.queries.len() * 8,
            "only {agree}/{} agreements",
            w.queries.len()
        );
    }

    #[test]
    fn duplicated_template_ties_break_to_lowest_index_in_combine() {
        // The combine step sums per-segment codes, so a duplicated
        // template can tie exactly at the summed level too; the partitioned
        // winner must then be the lowest-index copy, matching the scalar
        // WTA rule.
        let w = workload();
        let mut patterns = w.patterns.clone();
        patterns.push(patterns[0].clone());
        let dup = patterns.len() - 1;
        let mut tie_seen = false;
        for seed in 0..12u64 {
            let cfg = AmmConfig {
                seed,
                ..AmmConfig::default()
            };
            let mut p = PartitionedAmm::build(&patterns, 3, &cfg).unwrap();
            let r = p.recall(&patterns[0]).unwrap();
            assert_eq!(
                r.winner,
                crate::wta::argmax_lowest_index(&r.scores).unwrap(),
                "seed {seed}"
            );
            if r.scores[0] == r.scores[dup] {
                tie_seen = true;
                assert_eq!(r.winner, 0, "seed {seed}: summed-code tie must go to 0");
            }
        }
        assert!(tie_seen, "no seed produced a summed-code tie");
    }

    #[test]
    fn summed_dom_has_extended_range() {
        // k segments at b bits sum to a DOM of up to k·(2^b − 1): the
        // partitioned DOM is *finer*, one of the scheme's side benefits.
        let w = workload();
        let mut p = PartitionedAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        let r = p.recall(&w.patterns[0]).unwrap();
        assert!(
            r.dom > 31,
            "summed DOM {} exceeds one module's range",
            r.dom
        );
        assert!(r.dom <= 3 * 31);
    }

    #[test]
    fn input_length_checked() {
        let w = workload();
        let mut p = PartitionedAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        assert!(matches!(
            p.recall(&[0; 10]),
            Err(CoreError::InputLengthMismatch { .. })
        ));
    }

    #[test]
    fn latency_is_one_module() {
        let w = workload();
        let p = PartitionedAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        assert!((p.latency().0 - 50e-9).abs() < 1e-15);
    }
}
