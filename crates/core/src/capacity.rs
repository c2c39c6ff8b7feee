//! The tiled capacity layer: associative search far beyond one crossbar.
//!
//! The paper's operating point is 40 templates in a single 128×40 RCM
//! block. Production associative search wants 10⁵–10⁶ templates and
//! *ranked* results, so this module generalizes the modular-RCM idea of
//! [`crate::partition`] along the other axis: instead of splitting each
//! pattern's **rows** across segments, a [`TiledAmm`] shards the
//! **template set** across a pool of identical full-height crossbar tiles.
//! Each tile is a complete [`AssociativeMemoryModule`] — its own input
//! DACs, spin SAR column converters and calibration — holding a contiguous
//! chunk of the template bank plus spare columns; a digital merge network
//! combines the per-tile column codes into a global top-k ranking.
//!
//! # Determinism and the k=1 identity
//!
//! A pool recall runs the same two phases as every other deployment:
//!
//! 1. **Evaluate** (RNG-free): each tile produces its analog column
//!    currents through its module's compiled kernel ([`crate::plan`]).
//!    Tiles are independent, so this phase may run anywhere — on any
//!    engine worker, on a clone of the pool — without affecting any bit of
//!    the result.
//! 2. **Select** (RNG-consuming): each tile's converters digitize in
//!    **fixed tile order**, advancing each tile module's own RNG exactly
//!    as a sequential loop would. Responses are therefore bit-identical
//!    whatever executed phase 1.
//!
//! The merge is the pure function [`top_k_merge`] over the concatenated
//! per-tile code vectors: candidates are ordered by `(code descending,
//! global column ascending)`, a strict total order. At k=1 this reduces
//! *exactly* to [`crate::wta::argmax_lowest_index`] over the
//! concatenation — the single tie-break rule every WTA path in this crate
//! shares — so a single-tile pool reproduces flat-module recall bit for
//! bit and every existing identity proof carries over.
//!
//! Per-tile DOM codes are each in their tile's own calibrated LSB scale
//! (tiles calibrate independently, like partition segments); the ranking
//! compares them directly, and the flat↔tiled winner-agreement floor in
//! the conformance ledger bounds what that approximation costs.
//!
//! # Runtime template banks
//!
//! Templates are insertable and evictable at runtime, built on the
//! spare-column machinery from the fault subsystem:
//! [`TiledAmm::insert_template`] programs the pattern into the first free
//! column of the first tile with space (program-and-verify retry path,
//! re-trimmed row dummies), growing the pool by a fresh tile when every
//! tile is full; the pool flags which tiles have a free column, so an
//! insert goes straight to its tile. [`TiledAmm::evict_template`] releases
//! the column back to the free pool; it is pure ownership bookkeeping
//! (conductances, row loads and the RNG schedule are untouched). Both drop
//! the tile's kernel tables, which the tile's next recall rebuilds.

use crate::amm::{bank_width, AmmConfig, AssociativeMemoryModule, QueryEvaluation, RecallResult};
use crate::energy::EnergyBreakdown;
use crate::request::RecallRequest;
use crate::CoreError;
use spinamm_circuit::units::Seconds;
use spinamm_telemetry::{Layer, Recorder};

/// Identifies one crossbar tile within a [`TiledAmm`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

/// A stable reference to one stored template: which tile holds it, which
/// physical column it occupies, and its (append-only) template slot on
/// that tile's module. Returned by [`TiledAmm::insert_template`] and
/// consumed by [`TiledAmm::evict_template`]; slots never renumber, so a
/// handle stays valid until its template is evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateHandle {
    /// The tile holding the template.
    pub tile: TileId,
    /// The physical column within the tile.
    pub column: usize,
    /// The template slot on the tile's module.
    pub slot: usize,
}

/// One entry of a ranked recall: a column and its DOM code, in merge
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedMatch {
    /// Global column index `tile.0 × tile_columns + column` — the merge's
    /// tie-break key (lower wins on equal scores).
    pub global_column: usize,
    /// The column's DOM code, in its tile's own LSB scale.
    pub score: u32,
    /// The owning template, when the column holds a live one (`None` for
    /// a spare or evicted column that surfaced in a low-score tail).
    pub handle: Option<TemplateHandle>,
}

/// Result of one ranked pool recall.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledRecall {
    /// The top-k matches, best first: `(code descending, global column
    /// ascending)`. `matches[0]` is exactly the legacy single-winner
    /// choice ([`crate::wta::argmax_lowest_index`] over `scores`).
    pub matches: Vec<RankedMatch>,
    /// Degree of match of the best column (`matches[0].score`), matching
    /// the flat [`RecallResult::dom`] semantics.
    pub dom: u32,
    /// Concatenated per-tile column codes in global column order — the
    /// exact input the merge ranked, kept so any consumer (or oracle) can
    /// re-derive the ranking.
    pub scores: Vec<u32>,
    /// Combined energy of all tile evaluations.
    pub energy: EnergyBreakdown,
}

/// The deterministic top-k merge over per-tile code vectors.
///
/// Scans every column in global order (global index = running offset +
/// local column), keeping at most `k` `(global_column, code)` candidates
/// sorted best first: a candidate enters while the buffer is short, or
/// when its code beats the k-th strictly, since a later column loses every
/// tie. The result therefore equals the first `k` entries of a full
/// argsort of the concatenation by `(code descending, global column
/// ascending)` — the oracle the conformance harness and the E18 gate check
/// against — and at `k = 1` it is exactly
/// [`crate::wta::argmax_lowest_index`]. An entry costs one compare, plus
/// a shift of up to `k` candidates when it enters.
#[must_use]
pub fn top_k_merge(per_tile: &[&[u32]], k: usize) -> Vec<(usize, u32)> {
    let columns: usize = per_tile.iter().map(|codes| codes.len()).sum();
    let mut top: Vec<(usize, u32)> = Vec::with_capacity(k.min(columns) + 1);
    let mut column = 0;
    for codes in per_tile {
        for &code in *codes {
            if top.len() < k || top.last().is_some_and(|&(_, last)| code > last) {
                // After every candidate that scores at least as high.
                let at = top.partition_point(|&(_, c)| c >= code);
                top.insert(at, (column, code));
                top.truncate(k);
            }
            column += 1;
        }
    }
    top
}

/// Derives tile `index`'s RNG seed from the pool seed. Tile 0 keeps the
/// pool seed unchanged, so a single-tile pool is device-for-device the
/// flat module (the k=1 identity proof); later tiles decorrelate their
/// programming noise, mismatch and thermal streams.
fn tile_seed(base: u64, index: usize) -> u64 {
    base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An associative memory whose template set is sharded across a pool of
/// identical crossbar tiles, serving ranked top-k recall.
///
/// # Example
///
/// ```
/// use spinamm_core::amm::AmmConfig;
/// use spinamm_core::capacity::TiledAmm;
///
/// # fn main() -> Result<(), spinamm_core::CoreError> {
/// let patterns: Vec<Vec<u32>> = (0..6)
///     .map(|p| (0..16).map(|i| u32::from(i % 3 == p % 3) * 31).collect())
///     .collect();
/// let mut pool = TiledAmm::build(&patterns, 2, &AmmConfig::default())?.with_top_k(3)?;
/// assert_eq!(pool.tile_count(), 3);
/// let r = pool.recall(&patterns[4])?;
/// assert_eq!(r.matches.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledAmm {
    /// One full module per crossbar tile.
    tiles: Vec<AssociativeMemoryModule>,
    /// Per tile, whether it has a free column, re-read from the tile after
    /// every insert or evict that touches it, so an insert finds its tile
    /// without reading every full tile's column map.
    open: Vec<bool>,
    /// Template slots per tile at build time.
    tile_capacity: usize,
    /// Physical columns per tile (`tile_capacity + spare_columns`),
    /// uniform across the pool.
    tile_columns: usize,
    vector_len: usize,
    top_k: usize,
    /// Build-time config, kept for pool-growing inserts.
    base_config: AmmConfig,
}

impl TiledAmm {
    /// [`TiledAmm::build_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::build_request`].
    pub fn build(
        patterns: &[Vec<u32>],
        tile_capacity: usize,
        config: &AmmConfig,
    ) -> Result<Self, CoreError> {
        Self::build_request(patterns, tile_capacity, config, &RecallRequest::DEFAULT)
    }

    /// Builds a pool storing `patterns` in contiguous chunks of
    /// `tile_capacity` templates per tile. Every tile gets
    /// `config.spare_columns` extra spare columns; a final partial chunk
    /// is padded with additional spares so all tiles share one geometry.
    /// The default ranking depth is `k = 1`; see [`TiledAmm::with_top_k`].
    ///
    /// Tiles build on scoped threads, as many as the request's worker
    /// count ([`RecallRequest::with_workers`], else the machine's available
    /// parallelism) capped at the tile count, each programming a contiguous
    /// range of tiles. A tile depends only on its chunk, its derived seed
    /// and the config, so the pool is bit-identical at every worker count;
    /// a pool of one tile, or a request for one worker, builds inline.
    ///
    /// Emits `capacity.tiles` (tiles built) on the request's recorder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty or ragged
    /// pattern set or a zero tile capacity, before any tile is built;
    /// propagates module build errors (out-of-range levels, device
    /// failures), the lowest-index tile's first, as a sequential build
    /// would.
    pub fn build_request<R: Recorder + Sync>(
        patterns: &[Vec<u32>],
        tile_capacity: usize,
        config: &AmmConfig,
        req: &RecallRequest<'_, R>,
    ) -> Result<Self, CoreError> {
        let vector_len = bank_width(patterns)?;
        if tile_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                what: "tile capacity must be at least one template",
            });
        }
        let tile_columns = tile_capacity + config.spare_columns;
        let chunks: Vec<&[Vec<u32>]> = patterns.chunks(tile_capacity).collect();
        // Builds the tiles of `group`, the first of which is tile `first`.
        let build_tiles = |first: usize, group: &[&[Vec<u32>]]| {
            group
                .iter()
                .enumerate()
                .map(|(k, chunk)| {
                    let mut cfg = *config;
                    cfg.seed = tile_seed(config.seed, first + k);
                    cfg.spare_columns = tile_columns - chunk.len();
                    AssociativeMemoryModule::build_request(chunk, &cfg, req)
                })
                .collect::<Result<Vec<_>, CoreError>>()
        };
        let workers = req.batch_workers().min(chunks.len());
        let tiles = if workers <= 1 {
            build_tiles(0, &chunks)?
        } else {
            let per_worker = chunks.len().div_ceil(workers);
            let groups = std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .chunks(per_worker)
                    .enumerate()
                    .map(|(w, group)| s.spawn(move || build_tiles(w * per_worker, group)))
                    .collect();
                // In tile order, so the first error is the lowest tile's.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tile build worker panicked"))
                    .collect::<Result<Vec<_>, CoreError>>()
            })?;
            groups.into_iter().flatten().collect()
        };
        req.recorder().counter("capacity.tiles", tiles.len() as u64);
        Ok(Self {
            open: tiles.iter().map(has_free_column).collect(),
            tiles,
            tile_capacity,
            tile_columns,
            vector_len,
            top_k: 1,
            base_config: *config,
        })
    }

    /// Sets the ranking depth returned by recalls (builder form).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `k = 0`.
    pub fn with_top_k(mut self, k: usize) -> Result<Self, CoreError> {
        self.set_top_k(k)?;
        Ok(self)
    }

    /// Sets the ranking depth returned by recalls. Observational for the
    /// ranking itself: every depth ranks by the same total order, so the
    /// first entry never depends on `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `k = 0`.
    pub fn set_top_k(&mut self, k: usize) -> Result<(), CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                what: "ranking depth k must be at least 1",
            });
        }
        self.top_k = k;
        Ok(())
    }

    /// Tiles in the pool.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Template slots per tile at build time.
    #[must_use]
    pub fn tile_capacity(&self) -> usize {
        self.tile_capacity
    }

    /// Physical columns per tile (templates + spares), uniform.
    #[must_use]
    pub fn tile_columns(&self) -> usize {
        self.tile_columns
    }

    /// Total physical columns across the pool — the length of
    /// [`TiledRecall::scores`] and the global column index space.
    #[must_use]
    pub fn total_columns(&self) -> usize {
        self.tiles.len() * self.tile_columns
    }

    /// Full input vector length.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// The configured ranking depth.
    #[must_use]
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Tiles whose evaluate phase runs through a compiled kernel: every
    /// tile, since the kernel is each module's only execution path.
    #[must_use]
    pub fn compiled_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Live (non-evicted) templates across the pool.
    #[must_use]
    pub fn live_template_count(&self) -> usize {
        self.tiles.iter().map(|t| t.live_templates().len()).sum()
    }

    /// Handles of every live template, in global (tile, slot) order.
    #[must_use]
    pub fn handles(&self) -> Vec<TemplateHandle> {
        let mut out = Vec::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            let columns = tile.template_columns();
            for slot in tile.live_templates() {
                out.push(TemplateHandle {
                    tile: TileId(i),
                    column: columns[slot],
                    slot,
                });
            }
        }
        out
    }

    /// The index a handle's template had in the build-time pattern set.
    /// Meaningful only for a pool that has not been mutated since build
    /// (inserted templates get fresh slots past the build set).
    #[must_use]
    pub fn build_ordinal(&self, handle: &TemplateHandle) -> usize {
        handle.tile.0 * self.tile_capacity + handle.slot
    }

    /// Recognition latency: tiles convert concurrently in hardware, so one
    /// tile's conversion dominates (the digital merge network pipelines
    /// under it).
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.tiles[0].latency()
    }

    /// Runs one ranked recall.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::recall_request`].
    pub fn recall(&mut self, input: &[u32]) -> Result<TiledRecall, CoreError> {
        self.recall_request(input, &RecallRequest::DEFAULT)
    }

    /// [`TiledAmm::recall`] with options: one traced `recall` request
    /// (one `recall.total` sample) running phase 1 on every tile, then the
    /// in-order select phase and the top-k merge. Each tile is a module
    /// that selects, so `recall.count` rises once per tile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] /
    /// [`CoreError::InvalidParameter`] for bad inputs; propagates device
    /// and solver errors.
    pub fn recall_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<TiledRecall, CoreError> {
        let probe = req.begin(Layer::RECALL);
        let evals = self.evaluate_tiles(input, &probe)?;
        self.select_tiles(evals, &probe)
    }

    /// Runs the RNG-free first phase on every tile. Safe on a clone of
    /// the pool (mutates only cached solver state) — the engine-worker
    /// entry point. Pair with [`TiledAmm::select_winner_request`] in submission
    /// order to reproduce [`TiledAmm::recall`] bit for bit.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::recall_request`]; all input validation happens in
    /// this phase.
    pub fn evaluate_query_request<R: Recorder>(
        &mut self,
        input: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        self.evaluate_tiles(input, &req.probe())
    }

    /// The evaluate phase, every tile reporting to `probe`.
    fn evaluate_tiles<T: Recorder>(
        &mut self,
        input: &[u32],
        probe: &T,
    ) -> Result<Vec<QueryEvaluation>, CoreError> {
        if input.len() != self.vector_len {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len,
                found: input.len(),
            });
        }
        self.tiles
            .iter_mut()
            .map(|tile| tile.evaluate_query_inner(input, probe))
            .collect()
    }

    /// Runs the RNG-consuming second phase: every tile digitizes in fixed
    /// tile order (advancing its module RNG exactly as sequential recall
    /// would), then the top-k merge ranks the concatenated codes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an evaluation-count
    /// mismatch; propagates spin/WTA errors.
    pub fn select_winner_request<R: Recorder>(
        &mut self,
        evals: Vec<QueryEvaluation>,
        req: &RecallRequest<'_, R>,
    ) -> Result<TiledRecall, CoreError> {
        self.select_tiles(evals, &req.probe())
    }

    /// The select phase, every tile reporting to `probe`.
    fn select_tiles<T: Recorder>(
        &mut self,
        evals: Vec<QueryEvaluation>,
        probe: &T,
    ) -> Result<TiledRecall, CoreError> {
        if evals.len() != self.tiles.len() {
            return Err(CoreError::InvalidParameter {
                what: "one evaluation per tile is required",
            });
        }
        let mut results: Vec<RecallResult> = Vec::with_capacity(self.tiles.len());
        for (tile, eval) in self.tiles.iter_mut().zip(evals) {
            results.push(tile.select_winner_inner(eval, probe)?);
        }
        Ok(self.combine(&results))
    }

    /// The digital merge network: concatenates per-tile codes, ranks the
    /// top-k, and sums energies.
    fn combine(&self, per_tile: &[RecallResult]) -> TiledRecall {
        let mut scores = Vec::with_capacity(self.total_columns());
        let mut energy = EnergyBreakdown::default();
        for r in per_tile {
            scores.extend_from_slice(&r.codes);
            energy = energy + r.energy;
        }
        let code_slices: Vec<&[u32]> = per_tile.iter().map(|r| r.codes.as_slice()).collect();
        let matches: Vec<RankedMatch> = top_k_merge(&code_slices, self.top_k)
            .into_iter()
            .map(|(global_column, score)| RankedMatch {
                global_column,
                score,
                handle: self.handle_at(global_column),
            })
            .collect();
        let dom = matches.first().map_or(0, |m| m.score);
        TiledRecall {
            matches,
            dom,
            scores,
            energy,
        }
    }

    /// Resolves a global column to its owning template, if live.
    fn handle_at(&self, global_column: usize) -> Option<TemplateHandle> {
        let tile = global_column / self.tile_columns;
        let column = global_column % self.tile_columns;
        self.tiles[tile].column_owner[column].map(|slot| TemplateHandle {
            tile: TileId(tile),
            column,
            slot,
        })
    }

    /// [`TiledAmm::insert_template_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::insert_template_request`].
    pub fn insert_template(&mut self, pattern: &[u32]) -> Result<TemplateHandle, CoreError> {
        self.insert_template_request(pattern, &RecallRequest::DEFAULT)
    }

    /// Installs a new template at runtime: the pattern is programmed into
    /// the first free column of the first tile with space (build-time
    /// spares and evicted columns both qualify). When every tile is full
    /// the pool grows by one fresh tile (same geometry, derived seed)
    /// holding the new template alone. The tile's kernel is rebuilt by its
    /// next recall, not here.
    ///
    /// Emits `bank.installs` (and `capacity.tiles_grown` when the pool
    /// grows).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputLengthMismatch`] /
    /// [`CoreError::InvalidParameter`] for a bad pattern; propagates
    /// programming and build errors.
    pub fn insert_template_request<R: Recorder>(
        &mut self,
        pattern: &[u32],
        req: &RecallRequest<'_, R>,
    ) -> Result<TemplateHandle, CoreError> {
        if pattern.len() != self.vector_len {
            return Err(CoreError::InputLengthMismatch {
                expected: self.vector_len,
                found: pattern.len(),
            });
        }
        if let Some(index) = self.open.iter().position(|&open| open) {
            let tile = &mut self.tiles[index];
            let installed = tile.install_template_request(pattern, req);
            self.open[index] = has_free_column(tile);
            let (slot, column) = installed?;
            return Ok(TemplateHandle {
                tile: TileId(index),
                column,
                slot,
            });
        }
        // Pool full: grow by a fresh tile storing just this pattern.
        let index = self.tiles.len();
        let mut cfg = self.base_config;
        cfg.seed = tile_seed(self.base_config.seed, index);
        cfg.spare_columns = self.tile_columns - 1;
        let module = AssociativeMemoryModule::build_request(&[pattern.to_vec()], &cfg, req)?;
        let column = module.template_columns()[0];
        self.open.push(has_free_column(&module));
        self.tiles.push(module);
        req.recorder().counter("capacity.tiles_grown", 1);
        Ok(TemplateHandle {
            tile: TileId(index),
            column,
            slot: 0,
        })
    }

    /// [`TiledAmm::evict_template_request`] without telemetry.
    ///
    /// # Errors
    ///
    /// See [`TiledAmm::evict_template_request`].
    pub fn evict_template(&mut self, handle: TemplateHandle) -> Result<(), CoreError> {
        self.evict_template_request(handle, &RecallRequest::DEFAULT)
    }

    /// Evicts a template, releasing its column back to the tile's free
    /// pool for later inserts. Ownership bookkeeping only: conductances,
    /// row loads and every RNG schedule are untouched, and the column is
    /// gated out of ranking from the next recall on.
    ///
    /// Evicting the **sole** live template of the **trailing** tile
    /// releases the whole tile instead (undoing pool growth): the tile —
    /// with its crossbar, converters and kernel tables — is dropped,
    /// `total_columns` shrinks by one tile's width, and the remaining
    /// tiles' independent RNG schedules are untouched, so every surviving
    /// handle and recall stays bit-identical. The pool always keeps at
    /// least one tile.
    ///
    /// Emits `bank.retires` (and `capacity.tiles_released` when a tile is
    /// dropped).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an unknown tile, a
    /// stale handle (already evicted, or remapped by a fault pass since it
    /// was issued), or a non-releasable tile that would be left empty (a
    /// non-trailing tile, or the pool's last tile, keeps at least one
    /// template).
    pub fn evict_template_request<R: Recorder>(
        &mut self,
        handle: TemplateHandle,
        req: &RecallRequest<'_, R>,
    ) -> Result<(), CoreError> {
        let tile = self
            .tiles
            .get_mut(handle.tile.0)
            .ok_or(CoreError::InvalidParameter {
                what: "unknown tile in template handle",
            })?;
        if tile.template_columns().get(handle.slot) != Some(&handle.column) {
            return Err(CoreError::InvalidParameter {
                what: "stale template handle (column no longer matches slot)",
            });
        }
        let sole_trailing = handle.tile.0 == self.tiles.len() - 1
            && self.tiles.len() > 1
            && self.tiles[handle.tile.0].live_templates().len() == 1;
        if sole_trailing {
            // Dropping the trailing tile removes only that tile's
            // independent RNG stream.
            self.tiles.pop();
            self.open.pop();
            req.recorder().counter("bank.retires", 1);
            req.recorder().counter("capacity.tiles_released", 1);
            return Ok(());
        }
        let tile = &mut self.tiles[handle.tile.0];
        let retired = tile.retire_template_request(handle.slot, req);
        self.open[handle.tile.0] = has_free_column(tile);
        retired.map(|_| ())
    }
}

/// Whether `tile` can take an insert.
fn has_free_column(tile: &AssociativeMemoryModule) -> bool {
    !tile.free_columns().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amm::Fidelity;
    use crate::wta::argmax_lowest_index;
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
    use spinamm_telemetry::MemoryRecorder;

    fn workload(pattern_count: usize, queries: usize) -> PatternWorkload {
        PatternWorkload::generate(&WorkloadConfig {
            pattern_count,
            vector_len: 16,
            bits: 5,
            query_count: queries,
            query_noise: 0.4,
            noise_magnitude: 2,
            similarity: 0.0,
            seed: 0x711e,
        })
        .unwrap()
    }

    #[test]
    fn build_validation() {
        let w = workload(6, 1);
        let cfg = AmmConfig::default();
        assert!(TiledAmm::build(&[], 2, &cfg).is_err());
        assert!(TiledAmm::build(&w.patterns, 0, &cfg).is_err());
        let pool = TiledAmm::build(&w.patterns, 4, &cfg).unwrap();
        assert_eq!(pool.tile_count(), 2);
        assert_eq!(pool.tile_columns(), 4);
        assert_eq!(pool.total_columns(), 8);
        assert_eq!(pool.live_template_count(), 6);
        assert_eq!(pool.compiled_tiles(), 2);
        assert!(pool.clone().with_top_k(0).is_err());
    }

    #[test]
    fn ragged_patterns_are_rejected_before_any_tile_builds() {
        // Each chunk is rectangular on its own, so tile-by-tile checks
        // would build a pool no 4-long query could ever read.
        let patterns = vec![vec![31; 8], vec![0; 8], vec![31; 4], vec![0; 4]];
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        let built = TiledAmm::build_request(&patterns, 2, &AmmConfig::default(), &req);
        assert!(matches!(built, Err(CoreError::InvalidParameter { .. })));
        assert_eq!(recorder.snapshot().counter("memristor.write_pulses"), 0);
    }

    /// Eight queries on six tiles (the last a partial chunk) of two
    /// templates plus a spare.
    fn six_tile_bank() -> (PatternWorkload, AmmConfig) {
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        (workload(11, 8), cfg)
    }

    #[test]
    fn pools_are_bit_identical_at_every_worker_count() {
        let (w, base) = six_tile_bank();
        let (patterns, queries) = (&w.patterns, &w.queries);
        for fidelity in [Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = AmmConfig { fidelity, ..base };
            let build = |workers: Option<usize>| {
                let recorder = MemoryRecorder::default();
                let req = RecallRequest::recorded(&recorder);
                let req = workers.map_or(req, |w| req.with_workers(w));
                let pool = TiledAmm::build_request(patterns, 2, &cfg, &req)
                    .unwrap()
                    .with_top_k(3)
                    .unwrap();
                (pool, recorder.snapshot())
            };
            let (mut want, want_telemetry) = build(Some(1));
            assert_eq!(want.tile_count(), 6);
            let tables = |pool: &TiledAmm| -> Vec<Vec<u64>> {
                pool.tiles
                    .iter()
                    .map(|t| {
                        t.array()
                            .conductances()
                            .iter()
                            .map(|g| g.0.to_bits())
                            .collect()
                    })
                    .collect()
            };
            let counts = |snapshot: &spinamm_telemetry::TelemetrySnapshot| {
                (
                    snapshot.counter("memristor.write_pulses"),
                    snapshot.counter("memristor.verify_checks"),
                    snapshot.counter("capacity.tiles"),
                    snapshot.span_stats("build.program").map(|s| s.count),
                )
            };
            let want_recalls: Vec<TiledRecall> = queries
                .iter()
                .map(|(_, q)| want.recall(q).unwrap())
                .collect();
            for workers in [Some(2), Some(3), None] {
                let (mut pool, telemetry) = build(workers);
                assert_eq!(tables(&pool), tables(&want), "{fidelity:?} {workers:?}");
                assert_eq!(pool.handles(), want.handles());
                assert_eq!(counts(&telemetry), counts(&want_telemetry));
                assert_eq!(counts(&telemetry).3, Some(6));
                for ((_, q), want) in queries.iter().zip(&want_recalls) {
                    let got = pool.recall(q).unwrap();
                    assert_eq!(got.scores, want.scores, "{fidelity:?} {workers:?}");
                    assert_eq!(got.matches, want.matches);
                    assert_eq!(
                        got.energy.total().0.to_bits(),
                        want.energy.total().0.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn a_bad_middle_tile_fails_as_the_sequential_build_does() {
        let (w, cfg) = six_tile_bank();
        let mut patterns = w.patterns;
        // Pattern 5 is tile 2's second template.
        patterns[5][3] = 32;
        let build = |req: &RecallRequest<'_>| TiledAmm::build_request(&patterns, 2, &cfg, req);
        let sequential = build(&RecallRequest::DEFAULT.with_workers(1)).unwrap_err();
        assert_eq!(
            sequential,
            CoreError::InvalidParameter {
                what: "pattern level exceeds template bit width"
            }
        );
        for workers in [2, 3, 8] {
            let got = build(&RecallRequest::DEFAULT.with_workers(workers)).unwrap_err();
            assert_eq!(got, sequential, "{workers} workers");
        }
        assert_eq!(build(&RecallRequest::DEFAULT).unwrap_err(), sequential);
    }

    #[test]
    fn single_tile_pool_is_the_flat_module_bit_for_bit() {
        // Tile 0 keeps the pool seed, so a pool of one tile with no spares
        // is device-for-device the flat module; k=1 ranking must reproduce
        // its winner, dom and codes across an RNG-advancing sequence.
        let w = workload(5, 6);
        let cfg = AmmConfig::default();
        let mut flat = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let mut pool = TiledAmm::build(&w.patterns, 5, &cfg).unwrap();
        assert_eq!(pool.tile_count(), 1);
        for (_, q) in &w.queries {
            let want = flat.recall(q).unwrap();
            let got = pool.recall(q).unwrap();
            assert_eq!(got.scores, want.codes);
            assert_eq!(got.matches[0].global_column, want.raw_winner);
            assert_eq!(got.dom, want.dom);
            assert_eq!(
                got.energy.total().0.to_bits(),
                want.energy.total().0.to_bits()
            );
        }
    }

    #[test]
    fn k1_is_argmax_lowest_index_over_the_concatenation() {
        let w = workload(10, 8);
        let mut pool = TiledAmm::build(&w.patterns, 3, &AmmConfig::default()).unwrap();
        assert_eq!(pool.tile_count(), 4);
        for (_, q) in &w.queries {
            let r = pool.recall(q).unwrap();
            assert_eq!(
                r.matches[0].global_column,
                argmax_lowest_index(&r.scores).unwrap()
            );
            assert_eq!(r.dom, r.scores[r.matches[0].global_column]);
        }
    }

    /// Ranks candidates best-first: higher code wins, ties break to the
    /// lowest global column index.
    fn rank_order(a: &(usize, u32), b: &(usize, u32)) -> std::cmp::Ordering {
        b.1.cmp(&a.1).then(a.0.cmp(&b.0))
    }

    /// The full argsort oracle the merge must equal.
    fn argsort_oracle(scores: &[u32], k: usize) -> Vec<(usize, u32)> {
        let mut all: Vec<(usize, u32)> = scores.iter().copied().enumerate().collect();
        all.sort_by(rank_order);
        all.truncate(k);
        all
    }

    #[test]
    fn topk_matches_argsort_oracle_on_recalls() {
        let w = workload(10, 6);
        let mut pool = TiledAmm::build(&w.patterns, 3, &AmmConfig::default())
            .unwrap()
            .with_top_k(5)
            .unwrap();
        for (_, q) in &w.queries {
            let r = pool.recall(q).unwrap();
            let ranked: Vec<(usize, u32)> = r
                .matches
                .iter()
                .map(|m| (m.global_column, m.score))
                .collect();
            assert_eq!(ranked, argsort_oracle(&r.scores, 5));
        }
    }

    /// A pool recall with every tile run through the module reference
    /// implementation instead of its kernel.
    fn oracle_recall(pool: &mut TiledAmm, q: &[u32]) -> TiledRecall {
        let per_tile: Vec<RecallResult> = pool
            .tiles
            .iter_mut()
            .map(|t| t.oracle_recall_request(q, &RecallRequest::DEFAULT).unwrap())
            .collect();
        pool.combine(&per_tile)
    }

    #[test]
    fn interpreted_and_compiled_pools_are_bit_identical() {
        let w = workload(8, 6);
        let cfg = AmmConfig::default();
        let mut compiled = TiledAmm::build(&w.patterns, 3, &cfg)
            .unwrap()
            .with_top_k(4)
            .unwrap();
        assert!(compiled.compiled_tiles() > 0);
        let mut interpreted = compiled.clone();
        for (_, q) in &w.queries {
            let a = compiled.recall(q).unwrap();
            let b = oracle_recall(&mut interpreted, q);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn duplicated_template_loses_ties_to_the_lower_global_column() {
        // An exact copy of template 0 stored on a *later* tile must never
        // outrank the original unless it strictly out-scores it.
        let w = workload(6, 1);
        let mut patterns = w.patterns.clone();
        patterns.push(w.patterns[0].clone());
        let mut pool = TiledAmm::build(&patterns, 3, &AmmConfig::default())
            .unwrap()
            .with_top_k(7)
            .unwrap();
        let dup_global = pool
            .handles()
            .last()
            .map(|h| h.tile.0 * pool.tile_columns() + h.column)
            .unwrap();
        let r = pool.recall(&w.patterns[0]).unwrap();
        let original = r.matches.iter().position(|m| m.global_column == 0);
        let copy = r.matches.iter().position(|m| m.global_column == dup_global);
        if r.scores[0] >= r.scores[dup_global] {
            assert!(
                original < copy,
                "tie or better must rank the lower global column first"
            );
        }
        assert_eq!(
            r.matches[0].global_column,
            argmax_lowest_index(&r.scores).unwrap()
        );
    }

    #[test]
    fn insert_evict_lifecycle() {
        let w = workload(4, 1);
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        let mut pool = TiledAmm::build_request(&w.patterns, 2, &cfg, &req).unwrap();
        assert_eq!(pool.tile_count(), 2);
        assert_eq!(pool.tile_columns(), 3);

        // Insert a distinctive new pattern into the first tile's spare.
        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 2 == 0) * 31).collect();
        let handle = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(handle.tile, TileId(0));
        assert_eq!(pool.live_template_count(), 5);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(r.matches[0].handle, Some(handle));

        // Evict it: the handle's column gates out and the win disappears.
        pool.evict_template_request(handle, &req).unwrap();
        assert_eq!(pool.live_template_count(), 4);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(
            r.scores[handle.tile.0 * pool.tile_columns() + handle.column],
            0
        );
        assert_ne!(r.matches[0].handle, Some(handle));
        // Stale handle: double-evict is rejected.
        assert!(pool.evict_template(handle).is_err());

        // Re-insert: the freed column is reused (lowest-index free column
        // of the lowest tile), under a fresh slot.
        let again = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(again.tile, handle.tile);
        assert_eq!(again.column, handle.column);
        assert!(again.slot > handle.slot);
        let r = pool.recall(&novel).unwrap();
        assert_eq!(r.matches[0].handle, Some(again));

        // Fill every remaining free column, then grow the pool.
        let tiles_before = pool.tile_count();
        loop {
            let h = pool.insert_template_request(&novel, &req).unwrap();
            if h.tile.0 >= tiles_before {
                break;
            }
        }
        assert_eq!(pool.tile_count(), tiles_before + 1);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("capacity.tiles_grown"), Some(&1));
        assert!(counters.get("bank.installs").copied().unwrap_or(0) >= 3);
    }

    #[test]
    fn evicting_sole_trailing_template_releases_the_tile() {
        let w = workload(4, 2);
        let cfg = AmmConfig::default();
        let recorder = MemoryRecorder::default();
        let req = RecallRequest::recorded(&recorder);
        let mut pool = TiledAmm::build_request(&w.patterns, 2, &cfg, &req).unwrap();
        let tiles_before = pool.tile_count();
        let columns_before = pool.total_columns();
        // Control: an untouched clone sharing every RNG schedule.
        let mut control = pool.clone();

        // Grow the pool by one tile holding a single novel template...
        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 3 == 0) * 31).collect();
        let handle = pool.insert_template_request(&novel, &req).unwrap();
        assert_eq!(handle.tile.0, tiles_before);
        assert_eq!(pool.tile_count(), tiles_before + 1);

        // ...then evict it: the trailing tile is released outright.
        pool.evict_template_request(handle, &req).unwrap();
        assert_eq!(pool.tile_count(), tiles_before);
        assert_eq!(pool.total_columns(), columns_before);
        assert_eq!(pool.compiled_tiles(), tiles_before);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("capacity.tiles_released"), Some(&1));
        // The handle is now unknown, not merely stale.
        assert!(pool.evict_template(handle).is_err());

        // Grow/release round trip leaves surviving tiles bit-identical to
        // the untouched control: their RNG schedules never saw the
        // transient tile.
        for (_, q) in &w.queries {
            assert_eq!(pool.recall(q).unwrap(), control.recall(q).unwrap());
        }

        // Releasing never empties the pool: a single-tile pool keeps its
        // last template.
        let mut single = TiledAmm::build(&w.patterns[..2], 4, &cfg).unwrap();
        assert_eq!(single.tile_count(), 1);
        let handles = single.handles();
        single.evict_template(handles[0]).unwrap();
        assert!(single.evict_template(handles[1]).is_err());
    }

    #[test]
    fn bank_writes_retrim_dummies_to_the_cellwise_reference() {
        use crate::degrade::DegradationPolicy;
        use spinamm_crossbar::CrossbarArray;
        use spinamm_faults::{FaultMap, FaultModel};

        // Each row's load summed cell by cell in column order, the target
        // widened past `cols × g_max` by the largest load, and each dummy
        // the target minus its row's load.
        fn reference_dummies(a: &CrossbarArray) -> Vec<u64> {
            let loads: Vec<f64> = (0..a.rows())
                .map(|i| {
                    let mut total = 0.0;
                    for j in 0..a.cols() {
                        total += a.conductance(i, j).unwrap().0;
                    }
                    total
                })
                .collect();
            let default = a.limits().g_max().0 * a.cols() as f64;
            let target = loads.iter().fold(default, |t, &l| t.max(l));
            loads
                .iter()
                .map(|l| (target - l).max(0.0).to_bits())
                .collect()
        }
        fn assert_dummies(pool: &TiledAmm) {
            for (t, tile) in pool.tiles.iter().enumerate() {
                let a = tile.array();
                let got: Vec<u64> = (0..a.rows())
                    .map(|i| a.dummy_conductance(i).unwrap().0.to_bits())
                    .collect();
                assert_eq!(got, reference_dummies(a), "tile {t}");
            }
        }

        // Two tiles of three templates plus one spare, each faulted with
        // stuck cells, a gain spread and a 6× gain on row 0, which pushes
        // that row's load past `cols × g_max` on tile 1.
        let w = workload(6, 1);
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let mut pool = TiledAmm::build(&w.patterns, 3, &cfg).unwrap();
        let mut model = FaultModel::stuck(0.05).unwrap();
        model.spread_sigma = 0.2;
        for (t, tile) in pool.tiles.iter_mut().enumerate() {
            let map = FaultMap::sample(&model, 16, 4, t as u64)
                .and_then(|m| (0..4).try_fold(m, |m, j| m.with_cell_gain(0, j, 6.0)))
                .unwrap();
            tile.inject_faults(map, &DegradationPolicy::default())
                .unwrap();
        }
        let g_max = cfg.params.memristor_limits.g_max().0;
        let widened = |pool: &TiledAmm| {
            pool.tiles
                .iter()
                .filter(|t| t.array().equalization_target().unwrap().0 > 4.0 * g_max)
                .count()
        };
        assert_eq!(widened(&pool), 1);
        assert_dummies(&pool);

        // A full-scale row-0 level in tile 0's spare widens its target too.
        let novel: Vec<u32> = (0..16).map(|i| (i as u32 * 7 + 31) % 32).collect();
        let inserted = pool.insert_template(&novel).unwrap();
        assert_eq!(inserted.tile, TileId(0));
        assert_eq!(widened(&pool), 2);
        assert_dummies(&pool);
        pool.evict_template(inserted).unwrap();
        assert_dummies(&pool);
        let victim = pool.handles()[4];
        pool.evict_template(victim).unwrap();
        assert_dummies(&pool);
        let again = pool.insert_template(&w.patterns[0]).unwrap();
        assert!(again.tile.0 < 2);
        assert_dummies(&pool);
    }

    #[test]
    fn inserts_land_on_the_lowest_tile_with_a_free_column() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        // Random inserts and evicts, growing and releasing tiles: each
        // insert lands where a scan of every tile's free columns points,
        // and the open flags always match that scan.
        let w = workload(7, 1);
        let mut pool = TiledAmm::build(&w.patterns, 2, &AmmConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (mut grew, mut released) = (false, false);
        for step in 0..80 {
            let scan: Vec<bool> = pool.tiles.iter().map(has_free_column).collect();
            assert_eq!(pool.open, scan, "step {step}");
            let tiles = pool.tile_count();
            if rng.gen_bool(0.5) {
                let want = scan.iter().position(|&open| open).unwrap_or(tiles);
                let handle = pool.insert_template(&w.patterns[step % 7]).unwrap();
                assert_eq!(handle.tile.0, want, "step {step}");
            } else {
                let handles = pool.handles();
                let victim = handles[rng.gen_range(0..handles.len())];
                // A tile's last template stays unless the tile is the
                // trailing one, so some evictions are refused.
                let _ = pool.evict_template(victim);
            }
            grew |= pool.tile_count() > tiles;
            released |= pool.tile_count() < tiles;
        }
        assert!(grew && released);
    }

    #[test]
    fn mutated_pool_keeps_plan_interpreted_identity() {
        // Insert and evict both drop the tile's kernel; the rebuilt kernel
        // must stay bit-identical to the reference implementation on a
        // clone sharing the same RNG schedule.
        let w = workload(4, 4);
        let cfg = AmmConfig {
            spare_columns: 1,
            ..AmmConfig::default()
        };
        let mut compiled = TiledAmm::build(&w.patterns, 2, &cfg)
            .unwrap()
            .with_top_k(3)
            .unwrap();
        let mut interpreted = compiled.clone();

        let novel: Vec<u32> = (0..16).map(|i| u32::from(i % 4 == 1) * 31).collect();
        let ha = compiled.insert_template(&novel).unwrap();
        let hb = interpreted.insert_template(&novel).unwrap();
        assert_eq!(ha, hb);
        for (_, q) in &w.queries {
            assert_eq!(
                compiled.recall(q).unwrap(),
                oracle_recall(&mut interpreted, q)
            );
        }
        compiled.evict_template(ha).unwrap();
        interpreted.evict_template(hb).unwrap();
        for (_, q) in &w.queries {
            assert_eq!(
                compiled.recall(q).unwrap(),
                oracle_recall(&mut interpreted, q)
            );
        }
    }

    #[test]
    fn uniform_geometry_across_the_pool() {
        let w = workload(7, 1);
        let cfg = AmmConfig {
            spare_columns: 2,
            ..AmmConfig::default()
        };
        let pool = TiledAmm::build(&w.patterns, 3, &cfg).unwrap();
        let geometries: Vec<_> = pool
            .tiles
            .iter()
            .map(|t| (t.vector_len(), t.array().cols()))
            .collect();
        assert_eq!(geometries.len(), pool.tile_count());
        assert!(geometries.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(geometries[0].1, 5);
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The merge tree equals the full argsort oracle for every k,
            /// under heavy duplication (scores drawn from 0..4 force exact
            /// ties within and across tiles).
            #[test]
            fn merge_equals_argsort_oracle(
                tiles in proptest::collection::vec(
                    proptest::collection::vec(0u32..4, 0..12),
                    1..8,
                ),
                k in 1usize..20,
            ) {
                let slices: Vec<&[u32]> = tiles.iter().map(Vec::as_slice).collect();
                let merged = top_k_merge(&slices, k);
                let flat: Vec<u32> = tiles.iter().flatten().copied().collect();
                prop_assert_eq!(merged, argsort_oracle(&flat, k));
            }

            /// k=1 is exactly the legacy WTA tie-break rule.
            #[test]
            fn k1_equals_argmax_lowest_index(
                tiles in proptest::collection::vec(
                    proptest::collection::vec(0u32..4, 1..10),
                    1..6,
                ),
            ) {
                let slices: Vec<&[u32]> = tiles.iter().map(Vec::as_slice).collect();
                let merged = top_k_merge(&slices, 1);
                let flat: Vec<u32> = tiles.iter().flatten().copied().collect();
                let want = argmax_lowest_index(&flat).unwrap();
                prop_assert_eq!(merged[0].0, want);
                prop_assert_eq!(merged[0].1, flat[want]);
            }
        }
    }

    #[test]
    fn k_zero_merge_is_empty_and_k_caps_at_pool_size() {
        assert!(top_k_merge(&[&[1, 2][..]], 0).is_empty());
        let out = top_k_merge(&[&[3, 1][..], &[2][..]], 10);
        assert_eq!(out, vec![(0, 3), (2, 2), (1, 1)]);
    }
}
