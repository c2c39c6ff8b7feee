//! Hierarchical (clustered) associative matching — the paper's §5
//! extension: "very large number of images can be grouped into smaller
//! clusters, that can be hierarchically stored in the multiple RCM modules".
//!
//! Patterns are k-means-clustered (deterministically seeded); a top-level
//! module stores the cluster centroids, and each cluster gets its own
//! member module. A recall first matches the centroid, then searches only
//! that cluster — turning one `N`-column evaluation into one
//! `k`-column plus one `N/k`-column evaluation.

use crate::amm::{AmmConfig, AssociativeMemoryModule, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::request::RecallRequest;
use crate::CoreError;
use spinamm_telemetry::{Layer, Recorder};
use std::time::Instant;

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
    /// more clusters than patterns, or empty inputs; propagates module
    /// build errors. Empty clusters (possible in degenerate k-means runs)
    /// are dropped.
    #[allow(clippy::needless_range_loop)] // `c` indexes assignments and centroids together
    pub fn build(
        patterns: &[Vec<u32>],
        cluster_count: usize,
        config: &AmmConfig,
    ) -> Result<Self, CoreError> {
        if patterns.is_empty() {
            return Err(CoreError::InvalidParameter {
                what: "at least one pattern must be stored",
            });
        }
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

    /// Hierarchical recall: centroid match, then member match. Routed
    /// through the batched path, so both levels reuse their cached
    /// parasitic sessions instead of paying the cold-netlist cost per
    /// bank.
    ///
    /// # Errors
    ///
    /// Propagates recall errors from either level.
    pub fn recall(&mut self, input: &[u32]) -> Result<HierarchicalRecall, CoreError> {
        self.recall_request(input, &RecallRequest::DEFAULT)
    }

    /// [`HierarchicalAmm::recall`] with options.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalAmm::recall`].
    pub fn recall_request<R: Recorder + Sync>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<HierarchicalRecall, CoreError> {
        let mut out = self.recall_batch_request(&[input], req)?;
        Ok(out.pop().expect("one query in, one result out"))
    }

    /// Runs a batch of hierarchical recalls, one per input vector.
    ///
    /// # Errors
    ///
    /// See [`HierarchicalAmm::recall_batch_request`].
    pub fn recall_batch<S: AsRef<[u32]>>(
        &mut self,
        inputs: &[S],
    ) -> Result<Vec<HierarchicalRecall>, CoreError> {
        self.recall_batch_request(inputs, &RecallRequest::DEFAULT)
    }

    /// [`HierarchicalAmm::recall_batch`] with options.
    ///
    /// Stage A matches all centroids through the top module's two-phase
    /// batch; queries are then grouped by selected cluster (preserving
    /// submission order within each group) and every non-empty cluster
    /// evaluates its group on its own scoped thread. Each module owns its
    /// RNG and sees its queries in submission order, so the results are
    /// **bit-identical** to calling [`HierarchicalAmm::recall`] once per
    /// input in order.
    ///
    /// # Errors
    ///
    /// Propagates recall errors from either level. Top-level input
    /// validation happens before any randomness is consumed.
    pub fn recall_batch_request<S: AsRef<[u32]>, R: Recorder + Sync>(
        &mut self,
        inputs: &[S],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<HierarchicalRecall>, CoreError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // The hierarchical batch is one traced request; both levels run
        // with tracing stripped and contribute one span each (stage A as a
        // whole, then one span per active cluster).
        let probe = req.begin(Layer::HIERARCHY_BATCH);
        probe.trace_attr("queries", inputs.len() as f64);
        let inner = req.untraced();
        // Stage A: centroid match for every query, in order.
        let top_results = {
            let _top = probe.span(Layer::HIERARCHY_TOP);
            self.top.recall_batch_request(inputs, &inner)?
        };
        // Group queries by selected cluster, preserving submission order.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.clusters.len()];
        for (q, r) in top_results.iter().enumerate() {
            groups[r.raw_winner].push(q);
        }
        // Stage B: every non-empty cluster runs its group as one batch on
        // its own scoped thread (independent modules, independent RNGs).
        let mut per_cluster: Vec<Option<Result<Vec<RecallResult>, CoreError>>> =
            (0..self.clusters.len()).map(|_| None).collect();
        let probe = &probe;
        std::thread::scope(|s| {
            for (c, ((cluster, slot), group)) in self
                .clusters
                .iter_mut()
                .zip(per_cluster.iter_mut())
                .zip(&groups)
                .enumerate()
            {
                if group.is_empty() {
                    continue;
                }
                let sub: Vec<&[u32]> = group.iter().map(|&q| inputs[q].as_ref()).collect();
                let inner = &inner;
                s.spawn(move || {
                    let t0 = Instant::now();
                    *slot = Some(cluster.module.recall_batch_request(&sub, inner));
                    let attrs = [("cluster", c as f64), ("queries", sub.len() as f64)];
                    probe.span_since(Layer::HIERARCHY_CLUSTER, t0, &attrs);
                });
            }
        });
        // Reassemble in submission order.
        let mut member_results: Vec<Option<RecallResult>> =
            (0..inputs.len()).map(|_| None).collect();
        for (c, slot) in per_cluster.into_iter().enumerate() {
            let Some(result) = slot else { continue };
            for (&q, r) in groups[c].iter().zip(result?) {
                member_results[q] = Some(r);
            }
        }
        Ok(top_results
            .into_iter()
            .zip(member_results)
            .map(|(top, member)| {
                let member = member.expect("every query was routed to a cluster");
                let c = &self.clusters[top.raw_winner];
                HierarchicalRecall {
                    cluster: top.raw_winner,
                    winner: c.members[member.raw_winner],
                    dom: member.dom,
                    energy: top.energy + member.energy,
                }
            })
            .collect())
    }

    /// Engine-facing RNG-free phase of stage A: evaluates the top
    /// (centroid) module for one input. Safe to run on a clone.
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

    /// Engine-facing RNG-consuming phase of stage A: selects the cluster.
    /// The returned result's `raw_winner` is the cluster index to evaluate
    /// in stage B.
    ///
    /// # Errors
    ///
    /// See [`AssociativeMemoryModule::select_winner_request`].
    pub fn select_top_request<R: Recorder>(
        &mut self,
        eval: QueryEvaluation,
        req: &RecallRequest<'_, R>,
    ) -> Result<RecallResult, CoreError> {
        self.top.select_winner_request(eval, req)
    }

    /// Engine-facing RNG-free phase of stage B: evaluates one cluster's
    /// member module for the input. Safe to run on a clone.
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
        let c = self
            .clusters
            .get_mut(cluster)
            .ok_or(CoreError::InvalidParameter {
                what: "cluster index out of range",
            })?;
        c.module.evaluate_query_request(input, req)
    }

    /// Engine-facing RNG-consuming phase of stage B: selects the member
    /// winner inside `cluster` and assembles the full hierarchical result
    /// from the stage-A outcome. Feeding per-cluster evaluations back in
    /// submission order reproduces [`HierarchicalAmm::recall`] bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range cluster
    /// index; see [`AssociativeMemoryModule::select_winner_request`].
    pub fn select_member_request<R: Recorder>(
        &mut self,
        cluster: usize,
        eval: QueryEvaluation,
        top: &RecallResult,
        req: &RecallRequest<'_, R>,
    ) -> Result<HierarchicalRecall, CoreError> {
        let c = self
            .clusters
            .get_mut(cluster)
            .ok_or(CoreError::InvalidParameter {
                what: "cluster index out of range",
            })?;
        let member = c.module.select_winner_request(eval, req)?;
        Ok(HierarchicalRecall {
            cluster,
            winner: c.members[member.raw_winner],
            dom: member.dom,
            energy: top.energy + member.energy,
        })
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
