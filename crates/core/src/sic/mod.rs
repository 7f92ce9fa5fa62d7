//! Similarity Concentrator (SIC, paper §VI).
//!
//! Vector-level redundancy removal aligned with GEMM tiling: the
//! [`gather`] pass deduplicates each output tile's vectors within
//! spatiotemporal blocks, the [`layout`] module recovers positions and
//! guarantees conflict-free bank access, and the [`scatter`] pass
//! reconstructs full tiles from concentrated partial sums in the next
//! GEMM. [`SimilarityConcentrator`] applies gathering across a whole
//! activation matrix and aggregates the statistics the pipeline and the
//! cycle model consume.
//!
//! The recycled [`GatherScratch`] (flat position lookup + per-m-tile
//! candidate plan) is the SIC half of
//! [`crate::exec::StageWorkspace`]; the task-graph schedule keeps a
//! ring of them per gather stage so several layers' gathers can be in
//! flight without sharing mutable state.

pub mod block;
pub mod gather;
pub mod layout;
pub mod map;
pub mod scatter;
pub mod temporal;

pub use gather::{gather_tile, GatherConfig, GatherResult, GatherScratch};
pub use layout::{BankAddress, ConvLayouter, Fhw};
pub use map::SimilarityMap;
pub use scatter::{scatter, scatter_cycles, scatter_ops};
pub use temporal::{
    CarryMask, TemporalCache, TemporalCacheConfig, TemporalCounters, TemporalSnapshot,
};

use focus_tensor::backend::{BackendHandle, KernelLaunch};
use focus_tensor::ops::vector_ranges;
use focus_tensor::Matrix;

use crate::config::FocusConfig;

/// Aggregate gather statistics over one activation matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatrixGatherStats {
    /// Unique-vector counts per `(m_tile, col_tile)`, flattened
    /// `m_tile * col_tiles + col_tile` — exactly the `subtile_rows`
    /// layout [`focus_sim::GemmWork`] expects for the consuming GEMM.
    pub tile_p: Vec<usize>,
    /// Number of column tiles (= K sub-tiles of the consuming GEMM).
    pub col_tiles: usize,
    /// Height of each m-tile.
    pub tile_heights: Vec<usize>,
    /// Total vectors processed.
    pub total_vectors: u64,
    /// Unique vectors retained.
    pub unique_vectors: u64,
    /// Cosine comparisons evaluated.
    pub comparisons: u64,
    /// Vectors that matched.
    pub matches: u64,
    /// Vectors carried bit-exactly from the temporal cache (streaming
    /// sessions only; see [`temporal`]). Carried vectors are neither
    /// unique nor matched — they drop out of the compact payload
    /// entirely.
    pub carried: u64,
    /// Per-row mean reconstruction fidelity across column tiles.
    pub row_fidelity: Vec<f32>,
    /// Dense activation bytes (FP16).
    pub dense_bytes: u64,
    /// Compressed bytes (unique vectors + similarity maps).
    pub compressed_bytes: u64,
    /// Total matcher cycles across tiles (they overlap GEMM).
    pub matcher_cycles: u64,
    /// Matcher multiply ops (energy accounting).
    pub dot_ops: u64,
}

impl MatrixGatherStats {
    /// Fraction of vectors retained (`Σp / total`), 1.0 for an empty
    /// matrix.
    pub fn retained_ratio(&self) -> f64 {
        if self.total_vectors == 0 {
            1.0
        } else {
            self.unique_vectors as f64 / self.total_vectors as f64
        }
    }

    /// Compression ratio of the activation payload (dense / compressed).
    pub fn compression(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Matrix-level similarity concentration.
#[derive(Clone, Debug, PartialEq)]
pub struct SimilarityConcentrator {
    /// Gather parameters (threshold, block).
    pub gather: GatherConfig,
    /// Vector length (Table I: 32; `usize::MAX` = token-wise).
    pub vector_len: usize,
    /// Output-tile height.
    pub tile_m: usize,
}

impl SimilarityConcentrator {
    /// Builds a concentrator from a [`FocusConfig`].
    pub fn from_config(cfg: &FocusConfig) -> Self {
        SimilarityConcentrator {
            gather: GatherConfig {
                threshold: cfg.threshold,
                block: cfg.block,
            },
            vector_len: cfg.vector_len,
            tile_m: cfg.tile_m,
        }
    }

    /// Gathers a whole activation matrix (`rows × width`), tiling rows
    /// by `tile_m` and columns by `vector_len`.
    ///
    /// `positions[row]` is each row's decoded (F,H,W) position (`None`
    /// for text tokens). `scratch` is recycled across calls: each
    /// m-tile's candidate neighbourhoods are resolved **once** through
    /// its flat position lookup and replayed across all of the tile's
    /// column groups; the statistics do not depend on what the scratch
    /// served before. All numeric work dispatches through `backend`.
    ///
    /// `temporal` is the optional cross-frame probe `(cache, tokens,
    /// layer, stage)`: each m-tile is settled against the cache's
    /// `(layer, stage)` plane in one [`TemporalCache::reconcile`] pass —
    /// the plane is locked once per m-tile, byte-identical rows become
    /// **carried** entries and moved rows are re-committed — and the
    /// per-column-tile sweeps then read the resulting carry mask without
    /// touching the cache (see [`temporal`]). `tokens[row]` keys each
    /// row to its absolute token index across frames. With a cold or
    /// never-hitting cache the statistics are identical to a `None`
    /// probe except for the probe counters.
    ///
    /// # Panics
    ///
    /// Panics if a position lies off the scratch's frame grid, or if
    /// `tokens` is shorter than `acts`.
    pub fn gather_matrix(
        &self,
        acts: &Matrix,
        positions: &[Option<Fhw>],
        scratch: &mut GatherScratch,
        temporal: Option<(&TemporalCache, &[usize], usize, usize)>,
        backend: BackendHandle,
    ) -> MatrixGatherStats {
        if let Some((_, tokens, ..)) = temporal {
            assert!(tokens.len() >= acts.rows(), "tokens shorter than matrix");
        }
        let width = acts.cols();
        // One coarse launch record for the whole matrix sweep (the
        // numeric backends drop it; the trace backend logs it).
        backend.record(KernelLaunch::GatherScore {
            rows: acts.rows(),
            width,
        });
        let v_len = self.vector_len.min(width.max(1));
        let col_ranges = vector_ranges(width, v_len);
        let m_tiles = acts.rows().div_ceil(self.tile_m).max(1);

        let mut stats = MatrixGatherStats {
            col_tiles: col_ranges.len(),
            row_fidelity: vec![0.0; acts.rows()],
            ..MatrixGatherStats::default()
        };
        let mut avoided: u64 = 0;

        for mt in 0..m_tiles {
            let row_start = mt * self.tile_m;
            let row_count = self.tile_m.min(acts.rows().saturating_sub(row_start));
            if row_count == 0 {
                stats.tile_heights.push(0);
                for _ in &col_ranges {
                    stats.tile_p.push(0);
                }
                continue;
            }
            stats.tile_heights.push(row_count);
            scratch.plan_tile(positions, row_start, row_count, self.gather.block);
            if let Some((cache, tokens, layer, stage)) = temporal {
                cache.reconcile(
                    layer,
                    stage,
                    acts,
                    row_start,
                    row_count,
                    v_len,
                    tokens,
                    &mut scratch.carry,
                );
            }
            for (ct, col_range) in col_ranges.iter().enumerate() {
                let carry = temporal.map(|_| (&scratch.carry, ct));
                let r = gather_tile(
                    acts,
                    scratch,
                    col_range.clone(),
                    &self.gather,
                    carry,
                    backend,
                );
                stats.tile_p.push(r.p());
                stats.total_vectors += row_count as u64;
                stats.unique_vectors += r.p() as u64;
                stats.comparisons += r.comparisons;
                stats.matches += r.matches;
                stats.carried += r.carried;
                avoided += r.avoided;
                stats.matcher_cycles += r.cycles;
                stats.dot_ops += r.dot_ops;
                stats.dense_bytes += (row_count * col_range.len() * 2) as u64;
                stats.compressed_bytes += r.compressed_bytes() as u64;
                for (local, &f) in r.fidelity.iter().enumerate() {
                    stats.row_fidelity[row_start + local] += f / col_ranges.len() as f32;
                }
            }
        }
        if let Some((cache, ..)) = temporal {
            cache.add_skipped(avoided);
        }
        stats
    }
}

/// Ratio of GEMM cycles to matcher cycles for one tile (paper §VI-A):
/// GEMM needs `(K/b)·m` cycles, the matcher `cells·m`; below 1 the
/// matcher would enter the critical path and parallel matcher units are
/// required (`K < cells·b`, e.g. K < 256 for the defaults).
pub fn matcher_overlap_ratio(k: usize, pe_rows: usize, block_cells: usize) -> f64 {
    (k as f64 / pe_rows as f64) / block_cells as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockSize;
    use crate::obs::kernel_backend;

    fn grid_positions(frames: usize, h: usize, w: usize) -> Vec<Option<Fhw>> {
        let mut out = Vec::new();
        for f in 0..frames {
            for r in 0..h {
                for c in 0..w {
                    out.push(Some(Fhw { f, r, c }));
                }
            }
        }
        out
    }

    fn concentrator(tile_m: usize, vector_len: usize) -> SimilarityConcentrator {
        SimilarityConcentrator {
            gather: GatherConfig {
                threshold: 0.9,
                block: BlockSize::DEFAULT,
            },
            vector_len,
            tile_m,
        }
    }

    /// A fresh gather scratch for the 4×4 test grids.
    fn scratch() -> GatherScratch {
        GatherScratch::new(&ConvLayouter::new(4, 4))
    }

    /// Gathers `acts` without a temporal probe on a fresh scratch.
    fn gather(
        conc: &SimilarityConcentrator,
        acts: &Matrix,
        positions: &[Option<Fhw>],
    ) -> MatrixGatherStats {
        conc.gather_matrix(acts, positions, &mut scratch(), None, kernel_backend())
    }

    #[test]
    fn fully_redundant_matrix_concentrates_hard() {
        // Every token identical → only block-unreachable rows stay.
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 64, |_, c| (c as f32).sin());
        let stats = gather(&concentrator(1024, 32), &acts, &positions);
        assert!(stats.retained_ratio() < 0.1, "{}", stats.retained_ratio());
        assert!(stats.compression() > 5.0);
        assert_eq!(stats.tile_p.len(), 2); // one m-tile × two col tiles
        assert_eq!(stats.col_tiles, 2);
    }

    #[test]
    fn random_matrix_stays_dense() {
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 64, |r, c| ((r * 97 + c * 31) % 64) as f32 - 31.0);
        let stats = gather(&concentrator(1024, 32), &acts, &positions);
        assert_eq!(stats.retained_ratio(), 1.0);
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn smaller_tiles_reduce_match_opportunities() {
        // The Fig. 10(a) mechanism: tile boundaries hide candidates.
        let positions = grid_positions(4, 4, 4);
        let acts = Matrix::from_fn(64, 32, |_, c| (c as f32).cos());
        let big = gather(&concentrator(64, 32), &acts, &positions);
        let small = gather(&concentrator(8, 32), &acts, &positions);
        assert!(small.unique_vectors > big.unique_vectors);
    }

    #[test]
    fn finer_vectors_match_at_least_as_much() {
        // Make half of each row's groups identical across tokens and
        // half noisy: token-wise similarity fails, vector-wise succeeds.
        let positions = grid_positions(2, 2, 2);
        let acts = Matrix::from_fn(8, 64, |r, c| {
            if c < 32 {
                (c as f32).sin() // shared half
            } else if c - 32 == r {
                8.0 // exactly orthogonal idiosyncratic half
            } else {
                0.0
            }
        });
        let fine = gather(&concentrator(1024, 32), &acts, &positions);
        let coarse = gather(&concentrator(1024, usize::MAX), &acts, &positions);
        assert!(fine.matches > 0, "shared half must deduplicate");
        assert_eq!(coarse.matches, 0, "full-token similarity is too coarse");
    }

    #[test]
    fn tile_p_aligns_with_gemm_subtile_layout() {
        let positions = grid_positions(2, 4, 4);
        let acts = Matrix::from_fn(32, 96, |_, c| (c as f32).sin());
        let stats = gather(&concentrator(16, 32), &acts, &positions);
        // 2 m-tiles × 3 col tiles.
        assert_eq!(stats.tile_p.len(), 6);
        assert_eq!(stats.tile_heights, vec![16, 16]);
    }

    #[test]
    fn fidelity_is_one_for_unique_rows() {
        let positions = grid_positions(1, 2, 2);
        let acts = Matrix::identity(4);
        let stats = gather(&concentrator(1024, 4), &acts, &positions);
        assert!(stats.row_fidelity.iter().all(|&f| (f - 1.0).abs() < 1e-6));
    }

    #[test]
    fn recycled_scratch_stats_are_byte_identical() {
        let mut reused_scratch = scratch();
        let conc = concentrator(16, 32);
        // Reuse one scratch across several matrices (as the stage
        // workspace does across layers); every call must match a fresh
        // scratch.
        for seed in 0..3 {
            let positions = grid_positions(2, 4, 4);
            let acts = Matrix::from_fn(32, 64, |r, c| ((r * 3 + c + seed) as f32 * 0.7).sin());
            let reference = gather(&conc, &acts, &positions);
            let reused = conc.gather_matrix(
                &acts,
                &positions,
                &mut reused_scratch,
                None,
                kernel_backend(),
            );
            assert_eq!(reused, reference);
        }
    }

    #[test]
    fn overlap_ratio_flags_shallow_gemms() {
        // K = 3584: ratio 14 ≫ 1 (paper: matcher far off critical path).
        assert!(matcher_overlap_ratio(3584, 32, 8) > 10.0);
        // K = 128 < 256: ratio 0.5 → parallel matchers needed.
        assert!(matcher_overlap_ratio(128, 32, 8) < 1.0);
    }
}
