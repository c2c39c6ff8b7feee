//! Hierarchical (clustered) associative matching — the paper's §5
//! extension: "very large number of images can be grouped into smaller
//! clusters, that can be hierarchically stored in the multiple RCM modules".
//!
//! Patterns are k-means-clustered (deterministically seeded); a top-level
//! module stores the cluster centroids, and each cluster gets its own
//! member module. A recall first matches the centroid, then searches only
//! that cluster — turning one `N`-column evaluation into one
//! `k`-column plus one `N/k`-column evaluation.

use crate::amm::{bank_width, AmmConfig, AssociativeMemoryModule, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::request::RecallRequest;
use crate::CoreError;
use spinamm_telemetry::{Layer, Recorder};

/// The stage methods' error for a cluster index past the last cluster.
const CLUSTER_OUT_OF_RANGE: CoreError = CoreError::InvalidParameter {
    what: "cluster index out of range",
};

/// A two-level clustered associative memory.
///
/// # Example
///
/// ```
/// use spinamm_core::amm::AmmConfig;
/// use spinamm_core::hierarchy::HierarchicalAmm;
///
/// # fn main() -> Result<(), spinamm_core::CoreError> {
/// let patterns: Vec<Vec<u32>> = (0..6)
///     .map(|k| (0..12).map(|i| if (i + k) % 2 == 0 { 31 } else { 0 }).collect())
///     .collect();
/// let mut h = HierarchicalAmm::build(&patterns, 2, &AmmConfig::default())?;
/// let r = h.recall(&patterns[3])?;
/// assert!(r.winner < 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalAmm {
    pub(crate) top: AssociativeMemoryModule,
    pub(crate) clusters: Vec<ClusterModule>,
}

#[derive(Debug, Clone)]
pub(crate) struct ClusterModule {
    /// Global pattern indices of this cluster's members.
    pub(crate) members: Vec<usize>,
    pub(crate) module: AssociativeMemoryModule,
}

/// Result of a hierarchical recall.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalRecall {
    /// The cluster the top level selected.
    pub cluster: usize,
    /// The winning *global* pattern index.
    pub winner: usize,
    /// DOM reported by the member-level module.
    pub dom: u32,
    /// Combined energy of both evaluations.
    pub energy: EnergyBreakdown,
}

/// Deterministic k-means over level vectors (fixed iteration count,
/// farthest-point initialization). Returns per-pattern cluster assignments
/// and centroids.
#[allow(clippy::needless_range_loop)] // cluster index is semantically meaningful
fn kmeans(patterns: &[Vec<u32>], k: usize, iterations: usize) -> (Vec<usize>, Vec<Vec<u32>>) {
    let n = patterns.len();
    let d2 = |a: &[u32], b: &[u32]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
            .sum()
    };
    // Farthest-point seeding: start at pattern 0, then repeatedly take the
    // pattern farthest from all chosen seeds — deterministic and immune to
    // the "all seeds in one group" failure of first-k initialization.
    let mut seeds = vec![0usize];
    while seeds.len() < k {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da = seeds
                    .iter()
                    .map(|&s| d2(&patterns[a], &patterns[s]))
                    .fold(f64::INFINITY, f64::min);
                let db = seeds
                    .iter()
                    .map(|&s| d2(&patterns[b], &patterns[s]))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .expect("n >= k >= 1");
        seeds.push(next);
    }
    let mut centroids: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&s| patterns[s].iter().map(|&v| f64::from(v)).collect())
        .collect();
    let mut assign = vec![0usize; n];
    let dist = |p: &[u32], c: &[f64]| -> f64 {
        p.iter()
            .zip(c)
            .map(|(&a, &b)| (f64::from(a) - b).powi(2))
            .sum()
    };
    for _ in 0..iterations {
        for (i, p) in patterns.iter().enumerate() {
            assign[i] = (0..k)
                .min_by(|&a, &b| dist(p, &centroids[a]).total_cmp(&dist(p, &centroids[b])))
                .expect("k >= 1");
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<u32>> = patterns
                .iter()
                .zip(&assign)
                .filter(|(_, &a)| a == c)
                .map(|(p, _)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            for (d, slot) in centroid.iter_mut().enumerate() {
                *slot = members.iter().map(|m| f64::from(m[d])).sum::<f64>() / members.len() as f64;
            }
        }
    }
    let quantized: Vec<Vec<u32>> = centroids
        .iter()
        .map(|c| c.iter().map(|&v| v.round().max(0.0) as u32).collect())
        .collect();
    (assign, quantized)
}

impl HierarchicalAmm {
    /// Builds a two-level memory over `patterns` with `cluster_count`
    /// clusters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for fewer than two clusters,
    /// more clusters than patterns, or empty or ragged inputs; propagates
    /// module build errors. Empty clusters (possible in degenerate k-means
    /// runs) are dropped.
    #[allow(clippy::needless_range_loop)] // `c` indexes assignments and centroids together
    pub fn build(
        patterns: &[Vec<u32>],
        cluster_count: usize,
        config: &AmmConfig,
    ) -> Result<Self, CoreError> {
        bank_width(patterns)?;
        if cluster_count < 2 || cluster_count > patterns.len() {
            return Err(CoreError::InvalidParameter {
                what: "cluster count must be in 2..=pattern_count",
            });
        }
        let level_cap = 1u32 << config.params.template_bits;
        let (assign, mut centroids) = kmeans(patterns, cluster_count, 12);
        for c in &mut centroids {
            for v in c {
                *v = (*v).min(level_cap - 1);
            }
        }

        let mut clusters = Vec::new();
        let mut kept_centroids = Vec::new();
        for c in 0..cluster_count {
            let members: Vec<usize> = (0..patterns.len()).filter(|&i| assign[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let member_patterns: Vec<Vec<u32>> =
                members.iter().map(|&i| patterns[i].clone()).collect();
            let module = AssociativeMemoryModule::build(&member_patterns, config)?;
            clusters.push(ClusterModule { members, module });
            kept_centroids.push(centroids[c].clone());
        }
        let top = AssociativeMemoryModule::build(&kept_centroids, config)?;
        Ok(Self { top, clusters })
    }

    /// Number of (non-empty) clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total stored patterns.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.clusters.iter().map(|c| c.members.len()).sum()
    }

    /// Input vector length (shared by the top module and every cluster).
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.top.vector_len()
    }

    /// Hierarchical recall: centroid match, then member match in the
    /// chosen cluster only.
    ///
    /// # Errors
    ///
    /// Propagates recall errors from either level.
    pub fn recall(&mut self, input: &[u32]) -> Result<HierarchicalRecall, CoreError> {
        self.recall_request(input, &RecallRequest::DEFAULT)
    }

    /// [`HierarchicalAmm::recall`] with options: one `recall.total` sample
    /// around [`HierarchicalAmm::evaluate_top_request`] and then
    /// [`HierarchicalAmm::select_winner_request`], so its stage series are
    /// the engine's for this kind.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalAmm::recall`].
    pub fn recall_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<HierarchicalRecall, CoreError> {
        let _total = req.recorder().span(Layer::RECALL);
        let top = self.evaluate_top_request(input, req)?;
        self.select_winner_request(top, input, req)
    }

    /// The evaluate phase of stage A: evaluates the top (centroid) module
    /// for one input. Safe to run on a clone.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::evaluate_query_request`].
    pub fn evaluate_top_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        self.top.evaluate_query_request(input, req)
    }

    /// The rest of a recall after [`HierarchicalAmm::evaluate_top_request`]:
    /// selects the cluster from the top module's evaluation, then
    /// evaluates `input` on that cluster's member module — only the chosen
    /// cluster runs (paper §5) — and selects the member. The two calls in
    /// sequence are [`HierarchicalAmm::recall`].
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::select_winner_request`] and
    /// [`AssociativeMemoryModule::evaluate_query_request`].
    pub fn select_winner_request<R: Recorder>(
        &mut self,
        top: QueryEvaluation,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<HierarchicalRecall, CoreError> {
        let top = self.top.select_winner_request(top, req)?;
        let cluster = top.raw_winner;
        let c = self.cluster_mut(cluster)?;
        let member = c.module.evaluate_query_request(input, req)?;
        let member = c.module.select_winner_request(member, req)?;
        Ok(c.result(cluster, &member, &top))
    }

    /// Stage A's select alone: the returned result's `raw_winner` is the
    /// cluster index to evaluate in stage B.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::select_winner_request`].
    pub fn select_top_request<R: Recorder>(
        &self,
        eval: QueryEvaluation,
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        self.top.select_winner_request(eval, req)
    }

    /// Stage B's evaluate alone: evaluates one cluster's member module for
    /// the input. Safe to run on a clone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range cluster
    /// index; see [`AssociativeMemoryModule::evaluate_query_request`].
    pub fn evaluate_member_request<R: Recorder>(
        &mut self,
        cluster: usize,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<QueryEvaluation, CoreError> {
        self.cluster_mut(cluster)?
            .module
            .evaluate_query_request(input, req)
    }

    /// Stage B's select alone: selects the member winner inside `cluster`
    /// and assembles the full hierarchical result from the stage-A
    /// outcome. The four stage methods in order compose
    /// [`HierarchicalAmm::recall`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range cluster
    /// index; see [`AssociativeMemoryModule::select_winner_request`].
    pub fn select_member_request<R: Recorder>(
        &self,
        cluster: usize,
        eval: QueryEvaluation,
        top: &RecallResult,
        req: &RecallRequest<'_, R>,
    ) -> Result<HierarchicalRecall, CoreError> {
        let c = self.clusters.get(cluster).ok_or(CLUSTER_OUT_OF_RANGE)?;
        let member = c.module.select_winner_request(eval, req)?;
        Ok(c.result(cluster, &member, top))
    }

    fn cluster_mut(&mut self, cluster: usize) -> Result<&mut ClusterModule, CoreError> {
        self.clusters.get_mut(cluster).ok_or(CLUSTER_OUT_OF_RANGE)
    }
}

impl ClusterModule {
    /// The hierarchical result of a member select in this cluster.
    fn result(
        &self,
        cluster: usize,
        member: &RecallResult,
        top: &RecallResult,
    ) -> HierarchicalRecall {
        HierarchicalRecall {
            cluster,
            winner: self.members[member.raw_winner],
            dom: member.dom,
            energy: top.energy + member.energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

    /// Patterns in two obvious groups: each group shares a strong base
    /// pattern (first or second half bright) plus one member-specific
    /// bright element, so clusters separate and members stay resolvable at
    /// 5-bit DOM quantization.
    fn grouped_patterns() -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for k in 0..4usize {
            let mut p = vec![0u32; 16];
            for slot in p.iter_mut().take(8) {
                *slot = 31;
            }
            p[8 + 2 * k] = 31;
            out.push(p);
        }
        for k in 0..4usize {
            let mut p = vec![0u32; 16];
            for slot in p.iter_mut().skip(8) {
                *slot = 31;
            }
            p[2 * k] = 31;
            out.push(p);
        }
        out
    }

    #[test]
    fn kmeans_separates_obvious_groups() {
        let patterns = grouped_patterns();
        let (assign, centroids) = kmeans(&patterns, 2, 8);
        assert_eq!(centroids.len(), 2);
        // The first four and last four must land in different clusters.
        assert!(assign[..4].iter().all(|&a| a == assign[0]));
        assert!(assign[4..].iter().all(|&a| a == assign[4]));
        assert_ne!(assign[0], assign[4]);
    }

    #[test]
    fn build_validation() {
        let cfg = AmmConfig::default();
        assert!(HierarchicalAmm::build(&[], 2, &cfg).is_err());
        let patterns = grouped_patterns();
        assert!(HierarchicalAmm::build(&patterns, 1, &cfg).is_err());
        assert!(HierarchicalAmm::build(&patterns, 9, &cfg).is_err());
        let h = HierarchicalAmm::build(&patterns, 2, &cfg).unwrap();
        assert_eq!(h.cluster_count(), 2);
        assert_eq!(h.pattern_count(), 8);
        // k-means would index past a short pattern, or cut a long one.
        for odd in [vec![31; 4], vec![31; 20]] {
            let mut ragged = patterns.clone();
            ragged.push(odd);
            assert!(matches!(
                HierarchicalAmm::build(&ragged, 2, &cfg),
                Err(CoreError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn hierarchical_recall_finds_global_winner() {
        let patterns = grouped_patterns();
        let mut h = HierarchicalAmm::build(&patterns, 2, &AmmConfig::default()).unwrap();
        for (idx, p) in patterns.iter().enumerate() {
            let r = h.recall(p).unwrap();
            assert_eq!(r.winner, idx, "pattern {idx} routed to {}", r.winner);
            assert!(r.energy.total().0 > 0.0);
        }
    }

    #[test]
    fn hierarchy_matches_flat_on_clusterable_workload() {
        // Three genuine families (high intra-family similarity, independent
        // bases): the regime hierarchical search is designed for. Queries
        // are lightly jittered members.
        let mut patterns = Vec::new();
        let mut queries = Vec::new();
        for family in 0..3u64 {
            let w = PatternWorkload::generate(&WorkloadConfig {
                pattern_count: 4,
                vector_len: 24,
                bits: 5,
                query_count: 8,
                query_noise: 0.08,
                seed: 100 + family,
                noise_magnitude: 1,
                similarity: 0.7,
            })
            .unwrap();
            let offset = patterns.len();
            patterns.extend(w.patterns);
            queries.extend(w.queries.into_iter().map(|(src, q)| (src + offset, q)));
        }
        let cfg = AmmConfig::default();
        let mut flat = AssociativeMemoryModule::build(&patterns, &cfg).unwrap();
        let mut hier = HierarchicalAmm::build(&patterns, 3, &cfg).unwrap();
        let mut agree = 0;
        for (_, q) in &queries {
            let f = flat.recall(q).unwrap().raw_winner;
            let h = hier.recall(q).unwrap().winner;
            if f == h {
                agree += 1;
            }
        }
        // Hierarchical search can differ on intra-family near-ties, but
        // must agree on the large majority when the clusters are real.
        assert!(
            agree * 10 >= queries.len() * 8,
            "only {agree}/{} agreements",
            queries.len()
        );
    }

    #[test]
    fn hierarchical_energy_below_flat_for_wide_sets() {
        // 12 patterns in 3 clusters: top (3 cols) + member (~4 cols)
        // evaluations touch far fewer columns than the flat 12.
        let w = PatternWorkload::generate(&WorkloadConfig {
            pattern_count: 12,
            vector_len: 24,
            bits: 5,
            query_count: 1,
            query_noise: 0.0,
            seed: 4,
            noise_magnitude: 1,
            similarity: 0.0,
        })
        .unwrap();
        let cfg = AmmConfig::default();
        let mut flat = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let mut hier = HierarchicalAmm::build(&w.patterns, 3, &cfg).unwrap();
        let q = &w.queries[0].1;
        let e_flat = flat.recall(q).unwrap().energy.total().0;
        let e_hier = hier.recall(q).unwrap().energy.total().0;
        assert!(
            e_hier < e_flat,
            "hierarchical {e_hier} should beat flat {e_flat}"
        );
    }
}
