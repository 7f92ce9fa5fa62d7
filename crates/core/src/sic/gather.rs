//! Similarity Gather (paper §VI-A, Fig. 6).
//!
//! Operates on one GEMM output tile (`m` rows × one `vector_len`-wide
//! column group) as it streams out of the array: every row is a
//! vector; each vector is compared, via cosine similarity with
//! precomputed L2 norms, against the vectors at its block-candidate
//! positions **within the same tile** (tile-local compression is what
//! keeps the unit streaming — the Fig. 10(a) boundary effect follows
//! directly). Matches reuse their representative's compact index
//! through the [`SimilarityMap`]; unique vectors append to the compact
//! buffer.
//!
//! The tile is one contiguous `m × vector_len` buffer, and the
//! per-m-tile candidate plan ([`GatherScratch`]) is a flat list of
//! `(row, candidate)` probes into it: the scoring kernels address rows
//! by index, so a tile's probes are scored without building any
//! per-probe slice or norm vectors.

use core::ops::Range;

use focus_tensor::backend::BackendHandle;
use focus_tensor::Matrix;

use crate::config::BlockSize;
use crate::sic::block::candidate_positions;
use crate::sic::layout::{ConvLayouter, Fhw, PositionLookup};
use crate::sic::map::SimilarityMap;
use crate::sic::temporal::CarryMask;

/// Gather parameters (a slice of [`FocusConfig`](crate::FocusConfig)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatherConfig {
    /// Cosine similarity threshold (Table I: 0.9).
    pub threshold: f32,
    /// Spatiotemporal block (Table I: 2×2×2).
    pub block: BlockSize,
}

/// Result of gathering one tile.
#[derive(Clone, Debug, PartialEq)]
pub struct GatherResult {
    /// The deduplicated vectors (`p × vector_len`).
    pub compact: Matrix,
    /// Row → compact index map.
    pub map: SimilarityMap,
    /// Cosine comparisons actually evaluated.
    pub comparisons: u64,
    /// Rows that matched a representative.
    pub matches: u64,
    /// Per-row reconstruction fidelity: cosine between the row and its
    /// representative (1.0 for unique rows).
    pub fidelity: Vec<f32>,
    /// Matcher cycles: one norm slot plus up to `cells−1` comparison
    /// slots per row (the paper's `8·m` bound for 2×2×2); temporally
    /// carried rows cost a single probe slot instead.
    pub cycles: u64,
    /// Multiply ops in the matcher datapath (dots + norms), for energy.
    pub dot_ops: u64,
    /// Rows resolved from the temporal cache (carried): bit-exact
    /// replays of the previous frame, excluded from the compact buffer
    /// and from in-frame candidacy. Always 0 without a temporal probe.
    pub carried: u64,
    /// Planned in-frame comparisons avoided through carried rows (the
    /// carried rows' own candidate lists plus probes that would have
    /// targeted a carried candidate). Always 0 without a temporal
    /// probe; the matrix-level gather folds it into the cache's
    /// `gathers_skipped` counter.
    pub avoided: u64,
}

impl GatherResult {
    /// Number of unique vectors retained.
    pub fn p(&self) -> usize {
        self.compact.rows()
    }

    /// Compressed payload bytes: compact vectors (FP16) + the map.
    pub fn compressed_bytes(&self) -> usize {
        self.compact.rows() * self.compact.cols() * 2 + self.map.storage_bytes()
    }
}

/// Recycled scratch for the matrix-level gather sweep: the flat
/// position lookup, a **per-m-tile candidate plan** and the contiguous
/// tile buffer the sweep streams each column tile through. The
/// candidate set of every row depends only on positions — not on the
/// column group — so the plan is resolved once per m-tile and each of
/// the tile's column groups scores it straight from its flat probe
/// list, skipping the per-row neighbourhood enumeration (and its
/// allocation) entirely.
#[derive(Clone, Debug)]
pub struct GatherScratch {
    lookup: PositionLookup,
    /// `offsets[local]..offsets[local+1]` indexes `probes`.
    offsets: Vec<u32>,
    /// Every row's `(row, candidate)` probes, tile-local, in sweep
    /// order.
    probes: Vec<(u32, u32)>,
    /// The `(row_start, row_count)` tile the current plan covers;
    /// [`gather_tile`] gathers exactly these rows.
    planned: Option<(usize, usize)>,
    /// Recycled per-m-tile temporal carry decisions (filled by
    /// [`TemporalCache::reconcile`](crate::sic::TemporalCache::reconcile)
    /// on temporal sweeps, untouched otherwise).
    pub carry: CarryMask,
    /// Recycled `tile_m × vector_len` tile buffer of the streamed
    /// sweep.
    pub(crate) tile: Matrix,
}

impl GatherScratch {
    /// Scratch for tiles positioned on `layouter`'s grid.
    pub fn new(layouter: &ConvLayouter) -> Self {
        GatherScratch {
            lookup: PositionLookup::new(layouter),
            offsets: Vec::new(),
            probes: Vec::new(),
            planned: None,
            carry: CarryMask::new(),
            tile: Matrix::zeros(0, 0),
        }
    }

    /// Plans one m-tile: registers its rows and resolves every row's
    /// in-tile candidate list, in exactly the order the streaming
    /// sweep enumerates (block scan order, earlier rows only).
    ///
    /// # Panics
    ///
    /// Panics if `positions` is shorter than the tile, or if a position
    /// lies off the scratch's frame grid.
    pub fn plan_tile(
        &mut self,
        positions: &[Option<Fhw>],
        row_start: usize,
        row_count: usize,
        block: BlockSize,
    ) {
        assert!(
            positions.len() >= row_start + row_count,
            "positions too short"
        );
        self.lookup.begin_tile();
        for local in 0..row_count {
            if let Some(p) = positions[row_start + local] {
                self.lookup.insert(p, local);
            }
        }
        self.offsets.clear();
        self.probes.clear();
        self.offsets.push(0);
        for local in 0..row_count {
            if let Some(p) = positions[row_start + local] {
                for cand in candidate_positions(p, block) {
                    if let Some(cand_local) = self.lookup.get(cand) {
                        if cand_local < local {
                            self.probes.push((local as u32, cand_local as u32));
                        }
                    }
                }
            }
            self.offsets.push(self.probes.len() as u32);
        }
        self.planned = Some((row_start, row_count));
    }

    /// The planned `(row, candidate)` probes of tile-local row `local`.
    #[inline]
    fn row_probes(&self, local: usize) -> &[(u32, u32)] {
        &self.probes[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

/// Gathers one tile: the rows the last [`GatherScratch::plan_tile`]
/// call on `plan` covered, held in `acts` (row `local` of `acts` is
/// tile row `local`), columns `col_range` of it. Each row is scored
/// against its planned candidates (block scan order, earlier rows
/// only); `None` rows (text tokens) have none and never match. The
/// streamed sweep hands over exactly the tile (`col_range` spanning
/// `acts`); a narrower range is copied out into a contiguous tile
/// first.
///
/// `carry` is the `(mask, col_tile)` pair a
/// [`TemporalCache::reconcile`](crate::sic::TemporalCache::reconcile)
/// pre-pass settled for this m-tile, if any: a row marked carried at
/// `col_tile` — its bytes proven a bit-exact replay of its anchored
/// frame — is never read (the streamed sweep leaves it unsynthesised),
/// takes no norm, no candidate scoring and no compact slot, and its
/// planned comparisons are counted as avoided. Every other row runs the
/// exact per-frame path, except that probes touching a carried row are
/// filtered out. The gather itself never touches the cache: all
/// proof-checking happened in the reconcile pass.
///
/// All numeric work — norms, candidate scoring, fidelity — dispatches
/// through `backend`; this function only owns the control flow. Carry
/// decisions are mask-driven (never by scores), so the whole tile's
/// norms and candidate probes are known up front: the sweep launches
/// **one** [`Backend::row_norms`](focus_tensor::backend::Backend::row_norms)
/// over every live row and **one**
/// [`Backend::score_pairs`](focus_tensor::backend::Backend::score_pairs)
/// over the plan's `(row, candidate)` probes (the SIMD backend runs
/// eight rows/pairs per pass), then the sequential best-match walk just
/// reads the precomputed scores — comparison counts and tie-breaking
/// are identical to a one-candidate-at-a-time loop. Matched rows'
/// fidelity is a second batched launch after the walk, scored against
/// each representative's *source* row (byte-identical to the compact
/// copy, so the bits cannot differ).
///
/// # Panics
///
/// Panics if `plan` holds no tile plan, if `acts` does not hold exactly
/// the planned rows, or if `col_range` exceeds its columns.
pub fn gather_tile(
    acts: &Matrix,
    plan: &GatherScratch,
    col_range: Range<usize>,
    cfg: &GatherConfig,
    carry: Option<(&CarryMask, usize)>,
    backend: BackendHandle,
) -> GatherResult {
    let (_, row_count) = plan
        .planned
        .expect("gather_tile needs a tile planned by GatherScratch::plan_tile");
    assert_eq!(acts.rows(), row_count, "acts must hold the planned rows");
    assert!(col_range.end <= acts.cols(), "column range out of bounds");
    let narrowed;
    let tile = if col_range == (0..acts.cols()) {
        acts
    } else {
        narrowed = acts.submatrix(0, row_count, col_range.start, col_range.len());
        &narrowed
    };
    let width = tile.cols();
    let carried_at = |local: usize| -> Option<u32> {
        carry.and_then(|(mask, col_tile)| mask.carried(local, col_tile))
    };

    let mut map = SimilarityMap::with_capacity(row_count);
    let mut compact_rows: Vec<f32> = Vec::new();
    let mut fidelity = vec![1.0f32; row_count];
    let mut comparisons: u64 = 0;
    let mut matches: u64 = 0;
    let mut dot_ops: u64 = 0;
    let mut carried: u64 = 0;
    // In-frame comparisons avoided through the temporal cache: the
    // planned candidates of carried rows, plus probes that would have
    // targeted a carried (hence compact-less) candidate.
    let mut avoided: u64 = 0;

    // Pre-pass 1: batched norms of every live (non-carried) row.
    // Carried rows keep a 0.0 sentinel (they are never candidates, so
    // their slot is never read).
    let mut norms = vec![0.0f32; row_count];
    let live: Vec<u32> = (0..row_count as u32)
        .filter(|&l| carried_at(l as usize).is_none())
        .collect();
    backend.row_norms(tile, &live, &mut norms);

    // Pre-pass 2: every row's live probes, scored in one batched
    // launch. Without a temporal probe that is the plan's probe list
    // as is; otherwise a probe is live iff neither endpoint is carried,
    // and dead probes count as avoided exactly where the
    // one-row-at-a-time walk counted them.
    let filtered: (Vec<u32>, Vec<(u32, u32)>);
    let (offsets, probes): (&[u32], &[(u32, u32)]) = if carry.is_none() {
        (&plan.offsets, &plan.probes)
    } else {
        let mut offsets = Vec::with_capacity(row_count + 1);
        let mut probes = Vec::new();
        offsets.push(0);
        for local in 0..row_count {
            let planned = plan.row_probes(local);
            if carried_at(local).is_some() {
                avoided += planned.len() as u64;
            } else {
                for &(row, cand) in planned {
                    if carried_at(cand as usize).is_some() {
                        avoided += 1;
                    } else {
                        probes.push((row, cand));
                    }
                }
            }
            offsets.push(probes.len() as u32);
        }
        filtered = (offsets, probes);
        (&filtered.0, &filtered.1)
    };
    let mut scores = vec![0.0f32; probes.len()];
    backend.score_pairs(tile, probes, &norms, &mut scores);

    // The sequential walk: carried replay, best-match selection over
    // the precomputed scores, compact append.
    //
    // Compact slot → source row: a compact row is byte-identical to
    // its source row, so its (deterministic) norm is too — scoring
    // fidelity against the source row spares the matcher a re-norm
    // pass per matched row without moving a single bit.
    let mut rep_source: Vec<u32> = Vec::new();
    // Matched rows' deferred fidelity probes `(row, representative's
    // source row)`.
    let mut fid_pairs: Vec<(u32, u32)> = Vec::new();
    for local in 0..row_count {
        if let Some(slot) = carried_at(local) {
            // Proven bit-exact replay of the anchored frame: fidelity
            // is exactly 1.0 and only the reconcile pass's proof check
            // was paid (no byte compare ever ran).
            map.push_carried(slot);
            carried += 1;
            dot_ops += width as u64;
            continue;
        }
        dot_ops += width as u64; // the norm's squared-sum pass

        // Best-match selection in visit order: a strictly better score
        // wins, a tie keeps the earlier candidate — exactly the
        // streaming matcher's behaviour.
        let range = offsets[local] as usize..offsets[local + 1] as usize;
        let mut best: Option<(usize, f32)> = None;
        for (&(_, cand), &cos) in probes[range.clone()].iter().zip(&scores[range]) {
            comparisons += 1;
            dot_ops += width as u64;
            if cos >= cfg.threshold && best.is_none_or(|(_, b)| cos > b) {
                best = Some((cand as usize, cos));
            }
        }

        match best {
            Some((cand_local, _)) => {
                let rep = map.representative(cand_local);
                map.push_match(rep);
                matches += 1;
                fid_pairs.push((local as u32, rep_source[rep as usize]));
            }
            None => {
                map.push_unique();
                compact_rows.extend_from_slice(tile.row(local));
                rep_source.push(local as u32);
            }
        }
    }

    // Deferred fidelity of the matched rows, one batched launch:
    // cosine against the representative actually stored (via its
    // byte-identical source row and that row's norm).
    if !fid_pairs.is_empty() {
        let mut fid = vec![0.0f32; fid_pairs.len()];
        backend.score_pairs(tile, &fid_pairs, &norms, &mut fid);
        for (&(l, _), &f) in fid_pairs.iter().zip(&fid) {
            fidelity[l as usize] = f;
        }
    }

    let p = compact_rows.len() / width.max(1);
    GatherResult {
        compact: Matrix::from_vec(p, width, compact_rows),
        map,
        comparisons,
        matches,
        fidelity,
        // Carried rows occupy a single probe slot; everything else
        // pays the full block scan.
        cycles: carried + (row_count as u64 - carried) * cfg.block.cells() as u64,
        dot_ops,
        carried,
        avoided,
    }
}

/// The reference candidate source: a position → tile-local row
/// `HashMap` rebuilt for every tile, resolving the candidates
/// [`GatherScratch::plan_tile`] resolves through its flat lookup. The
/// returned plan feeds [`gather_tile`] like any other; the oracle tests
/// require it to gather bit-identically to the flat-lookup plan.
#[cfg(test)]
pub(crate) fn hashmap_plan(
    positions: &[Option<Fhw>],
    row_start: usize,
    row_count: usize,
    block: BlockSize,
) -> GatherScratch {
    use std::collections::HashMap;

    let mut pos_to_row: HashMap<Fhw, usize> = HashMap::with_capacity(row_count);
    for local in 0..row_count {
        if let Some(p) = positions[row_start + local] {
            pos_to_row.insert(p, local);
        }
    }
    let mut plan = GatherScratch::new(&ConvLayouter::new(1, 1));
    plan.offsets.push(0);
    for local in 0..row_count {
        if let Some(p) = positions[row_start + local] {
            for cand in candidate_positions(p, block) {
                if let Some(&cand_local) = pos_to_row.get(&cand) {
                    if cand_local < local {
                        plan.probes.push((local as u32, cand_local as u32));
                    }
                }
            }
        }
        plan.offsets.push(plan.probes.len() as u32);
    }
    plan.planned = Some((row_start, row_count));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::kernel_backend;
    use focus_tensor::backend;
    use proptest::prelude::*;

    fn cfg() -> GatherConfig {
        GatherConfig {
            threshold: 0.9,
            block: BlockSize::DEFAULT,
        }
    }

    /// Plans rows `row_start..row_start + row_count` (positions on a
    /// 4×4 grid) and gathers columns `col_range` of them.
    fn gather(
        acts: &Matrix,
        row_start: usize,
        row_count: usize,
        col_range: Range<usize>,
        positions: &[Option<Fhw>],
        cfg: &GatherConfig,
    ) -> GatherResult {
        let mut plan = GatherScratch::new(&ConvLayouter::new(4, 4));
        plan.plan_tile(positions, row_start, row_count, cfg.block);
        let rows = acts.submatrix(row_start, row_count, 0, acts.cols());
        gather_tile(&rows, &plan, col_range, cfg, None, kernel_backend())
    }

    /// Tokens laid out on a 1-frame 2×2 grid; rows 0..4 in scan order.
    fn positions_2x2() -> Vec<Option<Fhw>> {
        vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
            Some(Fhw { f: 0, r: 1, c: 0 }),
            Some(Fhw { f: 0, r: 1, c: 1 }),
        ]
    }

    #[test]
    fn identical_neighbours_deduplicate() {
        let acts = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ]);
        let r = gather(&acts, 0, 4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 2);
        assert_eq!(r.matches, 2);
        // Rows 1 and 3 map to row 0's compact slot.
        assert_eq!(r.map.representative(1), r.map.representative(0));
        assert_eq!(r.map.representative(3), r.map.representative(0));
        assert!(r.fidelity.iter().all(|&f| f > 0.999));
    }

    #[test]
    fn dissimilar_rows_stay_unique() {
        let acts = Matrix::identity(4);
        let r = gather(&acts, 0, 4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 4);
        assert_eq!(r.matches, 0);
        assert!(r.comparisons > 0);
    }

    #[test]
    fn text_rows_never_match() {
        let acts = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let positions = vec![Some(Fhw { f: 0, r: 0, c: 0 }), None];
        let r = gather(
            &acts,
            0,
            2,
            0..2,
            &positions,
            &GatherConfig {
                threshold: 0.5,
                block: BlockSize::DEFAULT,
            },
        );
        assert_eq!(r.p(), 2, "the positionless row must stay unique");
    }

    #[test]
    fn representative_chains_resolve_to_roots() {
        // Row 1 matches row 0; row 3 matches row 1 → must map to row 0's
        // compact slot (chained reuse, Fig. 6 ④).
        let v = vec![1.0, 1.0, 0.0, 0.0];
        let acts = Matrix::from_rows(&[v.clone(), v.clone(), vec![0.0, 0.0, 5.0, 0.0], v]);
        let r = gather(&acts, 0, 4, 0..4, &positions_2x2(), &cfg());
        assert_eq!(r.p(), 2);
        assert_eq!(r.map.representative(3), 0);
    }

    #[test]
    fn tile_locality_blocks_cross_tile_matches() {
        // Rows 2,3 form their own tile: row 2's spatial neighbours are
        // in tile 0, so nothing matches even though values repeat.
        let v = vec![2.0, 0.0];
        let acts = Matrix::from_rows(&[v.clone(), v.clone(), v.clone(), v]);
        let r = gather(&acts, 2, 2, 0..2, &positions_2x2(), &cfg());
        // Row 2's only block candidate (0,0) lives in tile 0 → unique;
        // row 3 matches row 2 inside the tile → one compact vector.
        assert_eq!(r.matches, 1);
        assert_eq!(r.p(), 1);
    }

    #[test]
    fn threshold_is_respected() {
        // cos(a,b) ≈ 0.894 < 0.9 → no match; at 0.85 → match.
        let a = vec![1.0, 0.0];
        let b = vec![2.0, 1.0];
        let acts = Matrix::from_rows(&[a, b]);
        let positions = vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
        ];
        let strict = gather(&acts, 0, 2, 0..2, &positions, &cfg());
        assert_eq!(strict.matches, 0);
        let loose = gather(
            &acts,
            0,
            2,
            0..2,
            &positions,
            &GatherConfig {
                threshold: 0.85,
                block: BlockSize::DEFAULT,
            },
        );
        assert_eq!(loose.matches, 1);
        assert!((loose.fidelity[1] - 0.894).abs() < 0.01);
    }

    #[test]
    fn cycle_bound_is_eight_m_for_default_block() {
        let acts = Matrix::zeros(16, 8);
        let positions: Vec<Option<Fhw>> = (0..16)
            .map(|i| {
                Some(Fhw {
                    f: 0,
                    r: i / 4,
                    c: i % 4,
                })
            })
            .collect();
        let r = gather(&acts, 0, 16, 0..8, &positions, &cfg());
        assert_eq!(r.cycles, 8 * 16);
    }

    #[test]
    #[should_panic(expected = "plan_tile")]
    fn gathering_without_a_plan_panics() {
        let plan = GatherScratch::new(&ConvLayouter::new(4, 4));
        gather_tile(
            &Matrix::zeros(4, 4),
            &plan,
            0..4,
            &cfg(),
            None,
            kernel_backend(),
        );
    }

    #[test]
    fn compressed_bytes_account_vectors_and_map() {
        let acts = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let positions = vec![
            Some(Fhw { f: 0, r: 0, c: 0 }),
            Some(Fhw { f: 0, r: 0, c: 1 }),
        ];
        let r = gather(&acts, 0, 2, 0..2, &positions, &cfg());
        // 1 unique vector × 2 elems × 2 B + 2 map entries × 2 B.
        assert_eq!(r.compressed_bytes(), 4 + 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat-lookup plan gathers bit-identically to the
        /// `HashMap` oracle, field for field: random pruned multi-frame
        /// positions with interleaved text rows, several m-tile splits
        /// (one scratch recycled across all of them) and column ranges,
        /// thresholds, and both numeric backends.
        #[test]
        fn planned_gather_matches_hashmap_oracle(
            grid_h in 1usize..6,
            grid_w in 1usize..6,
            frames in 1usize..4,
            keep_every in 1usize..4,
            text_every in 2usize..9,
            width in 1usize..12,
            families in 1usize..6,
            seed in 0u64..1000,
        ) {
            let layouter = ConvLayouter::new(grid_h, grid_w);
            let tokens = frames * layouter.tokens_per_frame();
            let mut positions: Vec<Option<Fhw>> = Vec::new();
            for t in (0..tokens).step_by(keep_every) {
                if positions.len() % text_every == text_every - 1 {
                    positions.push(None);
                }
                positions.push(Some(layouter.position_of(t)));
            }
            let rows = positions.len();
            // Rows drawn from a few value families, so that exact and
            // near matches both occur; the half offset keeps every row
            // non-zero.
            let acts = Matrix::from_fn(rows, width, |r, c| {
                let family = ((r as u64 * 2_654_435_761) ^ seed) % families as u64;
                let jitter = if r % 3 == 0 { 0.0 } else { (r % 5) as f32 * 0.1 };
                ((family * 131 + c as u64 * 17) % 97) as f32 - 48.5 + jitter
            });
            let half = width / 2;
            let col_ranges: Vec<Range<usize>> = [0..width, 0..half, half..width]
                .into_iter()
                .filter(|r| !r.is_empty())
                .collect();
            let mut scratch = GatherScratch::new(&layouter);
            for tile_m in [rows, rows.div_ceil(2), 3] {
                for row_start in (0..rows).step_by(tile_m) {
                    let row_count = tile_m.min(rows - row_start);
                    let oracle =
                        hashmap_plan(&positions, row_start, row_count, BlockSize::DEFAULT);
                    scratch.plan_tile(&positions, row_start, row_count, BlockSize::DEFAULT);
                    let tile = acts.submatrix(row_start, row_count, 0, width);
                    for col_range in &col_ranges {
                        for threshold in [0.5f32, 0.9, 0.99] {
                            let cfg = GatherConfig { threshold, block: BlockSize::DEFAULT };
                            for be in [backend::scalar_ref(), backend::simd()] {
                                let planned =
                                    gather_tile(&tile, &scratch, col_range.clone(), &cfg, None, be);
                                let reference =
                                    gather_tile(&tile, &oracle, col_range.clone(), &cfg, None, be);
                                prop_assert_eq!(planned, reference);
                            }
                        }
                    }
                }
            }
        }
    }
}
