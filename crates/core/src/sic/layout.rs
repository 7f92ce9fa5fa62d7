//! Convolution-style layouter with conflict-free bank addressing
//! (paper §VI-B, Fig. 7).
//!
//! Two jobs:
//!
//! 1. **Position recovery** — decode the semantic offset stream back to
//!    (Frame, Height, Width) coordinates so block grouping is exact
//!    even after pruning.
//! 2. **Conflict-free banking** — map every token to one of 8 SRAM
//!    banks by coordinate parity,
//!    `bank = (f mod 2)·4 + (r mod 2)·2 + (c mod 2)`,
//!    `offset = ⌊r/2⌋·⌈W/2⌉ + ⌊c/2⌋`,
//!    which guarantees the 8 cells of any 2×2×2 window live in 8
//!    distinct banks — fully parallel reads with **zero replication**
//!    (traditional CNN accelerators replicate up to 8×).
//!
//! The parity trick is specific to 2-sized windows; larger windows
//! (the Fig. 10(c) sweep) fall back to multi-cycle reads, which the
//! matcher cycle model charges accordingly.

/// A token's (frame, row, column) position in the video grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fhw {
    /// Frame index.
    pub f: usize,
    /// Patch row.
    pub r: usize,
    /// Patch column.
    pub c: usize,
}

/// A bank/offset SRAM address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BankAddress {
    /// Bank index in `0..8`.
    pub bank: usize,
    /// Word offset within the bank.
    pub offset: usize,
}

/// The layouter for a given frame grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvLayouter {
    /// Grid height (patch rows per frame).
    pub grid_h: usize,
    /// Grid width (patch columns per frame).
    pub grid_w: usize,
}

impl ConvLayouter {
    /// Creates a layouter for a `grid_h × grid_w` frame grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(grid_h: usize, grid_w: usize) -> Self {
        assert!(grid_h > 0 && grid_w > 0, "grid must be non-empty");
        ConvLayouter { grid_h, grid_w }
    }

    /// Tokens per frame.
    pub fn tokens_per_frame(&self) -> usize {
        self.grid_h * self.grid_w
    }

    /// Converts a global token index (frame-major, row-major) to its
    /// position.
    pub fn position_of(&self, token: usize) -> Fhw {
        let per_frame = self.tokens_per_frame();
        let f = token / per_frame;
        let rem = token % per_frame;
        Fhw {
            f,
            r: rem / self.grid_w,
            c: rem % self.grid_w,
        }
    }

    /// Converts a position back to its global token index.
    pub fn token_of(&self, p: Fhw) -> usize {
        debug_assert!(p.r < self.grid_h && p.c < self.grid_w);
        (p.f * self.grid_h + p.r) * self.grid_w + p.c
    }

    /// The conflict-free bank/offset address of a position (Fig. 7 ②).
    pub fn address_of(&self, p: Fhw) -> BankAddress {
        BankAddress {
            bank: (p.f % 2) * 4 + (p.r % 2) * 2 + (p.c % 2),
            offset: (p.r / 2) * self.grid_w.div_ceil(2) + (p.c / 2),
        }
    }

    /// Words each bank must hold to store one 2-frame window of the
    /// grid (the layouter buffer sizing of Table I).
    pub fn bank_depth(&self) -> usize {
        self.grid_h.div_ceil(2) * self.grid_w.div_ceil(2)
    }
}

/// A flat, layouter-indexed `Fhw → tile-local row` map — the
/// workspace-resident replacement for the per-tile `HashMap` the
/// gather unit used to rebuild for every `(m-tile, col-tile)` pair.
///
/// Positions index a dense array at `(f·H + r)·W + c`; tile
/// generations are distinguished by an epoch stamp, so starting a new
/// tile is O(1) (no clearing) and stale entries from previous tiles,
/// layers or stages can never leak into a lookup. The array grows to
/// the high-water frame count and is then allocation-free.
#[derive(Clone, Debug)]
pub(crate) struct PositionLookup {
    grid_h: usize,
    grid_w: usize,
    epoch: u32,
    slots: Vec<(u32, u32)>,
}

impl PositionLookup {
    /// A lookup for positions on `layouter`'s frame grid.
    pub(crate) fn new(layouter: &ConvLayouter) -> Self {
        PositionLookup {
            grid_h: layouter.grid_h,
            grid_w: layouter.grid_w,
            epoch: 1,
            slots: Vec::new(),
        }
    }

    #[inline]
    fn index_of(&self, p: Fhw) -> usize {
        debug_assert!(p.r < self.grid_h && p.c < self.grid_w);
        (p.f * self.grid_h + p.r) * self.grid_w + p.c
    }

    /// Starts a new tile generation: previously inserted entries become
    /// invisible without touching the array.
    pub(crate) fn begin_tile(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: stale stamps could alias the new
            // generation, so clear once every 2^32 tiles.
            self.slots.iter_mut().for_each(|s| *s = (0, 0));
            self.epoch = 1;
        }
    }

    /// Registers `p` as tile-local row `local` in the current tile.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies off the grid: its flat index would alias
    /// another position's slot (on a 4×4 grid, `(f0,r4,c1)` and
    /// `(f1,r0,c1)` share one).
    pub(crate) fn insert(&mut self, p: Fhw, local: usize) {
        assert!(
            p.r < self.grid_h && p.c < self.grid_w,
            "position {p:?} is off the {}x{} grid",
            self.grid_h,
            self.grid_w
        );
        let idx = self.index_of(p);
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, (0, 0));
        }
        self.slots[idx] = (self.epoch, local as u32);
    }

    /// Looks up the tile-local row of `p` in the current tile.
    #[inline]
    pub(crate) fn get(&self, p: Fhw) -> Option<usize> {
        let idx = self.index_of(p);
        match self.slots.get(idx) {
            // `epoch` is always ≥ 1, so default-initialised `(0, 0)`
            // slots can never match.
            Some(&(epoch, local)) if epoch == self.epoch => Some(local as usize),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_token_round_trip() {
        let l = ConvLayouter::new(14, 14);
        for token in [0, 1, 13, 14, 195, 196, 1000, 6271] {
            assert_eq!(l.token_of(l.position_of(token)), token);
        }
    }

    #[test]
    fn paper_example_addresses() {
        // Fig. 7: W=5, f=1, r=1, c=2 → bank 1·4+1·2+0 = 6? The figure
        // computes bank = 1%2·4 + 1%2·2 + 2%2 = 6 … the printed "7"
        // includes its own example values; verify the formula itself.
        let l = ConvLayouter::new(5, 5);
        let a = l.address_of(Fhw { f: 1, r: 1, c: 2 });
        assert_eq!(a.bank, 4 + 2);
        assert_eq!(a.offset, 1); // (r/2)·ceil(w/2) + c/2 = 0·3 + 1
        let b = l.address_of(Fhw { f: 1, r: 4, c: 3 });
        assert_eq!(b.bank, 4 + 1); // f%2·4 + r%2·2 + c%2
        assert_eq!(b.offset, 7); // 2·3 + 1
    }

    #[test]
    fn any_2x2x2_window_is_conflict_free() {
        let l = ConvLayouter::new(14, 14);
        for f0 in 0..3 {
            for r0 in 0..13 {
                for c0 in 0..13 {
                    let mut banks = [false; 8];
                    for df in 0..2 {
                        for dr in 0..2 {
                            for dc in 0..2 {
                                let a = l.address_of(Fhw {
                                    f: f0 + df,
                                    r: r0 + dr,
                                    c: c0 + dc,
                                });
                                assert!(!banks[a.bank], "bank conflict at window ({f0},{r0},{c0})");
                                banks[a.bank] = true;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn addresses_are_injective_within_two_frames() {
        // No two positions of a 2-frame window may share (bank, offset):
        // that would silently overwrite data.
        use std::collections::HashSet;
        let l = ConvLayouter::new(8, 8);
        let mut seen = HashSet::new();
        for f in 0..2 {
            for r in 0..8 {
                for c in 0..8 {
                    let a = l.address_of(Fhw { f, r, c });
                    assert!(seen.insert((a.bank, a.offset)), "duplicate address {a:?}");
                }
            }
        }
        assert_eq!(seen.len(), 2 * 64);
    }

    #[test]
    fn bank_depth_covers_all_offsets() {
        let l = ConvLayouter::new(14, 14);
        let mut max_offset = 0;
        for r in 0..14 {
            for c in 0..14 {
                max_offset = max_offset.max(l.address_of(Fhw { f: 0, r, c }).offset);
            }
        }
        assert_eq!(l.bank_depth(), max_offset + 1);
    }

    #[test]
    fn layouter_buffer_fits_table1_budget() {
        // Table I: 16 KB layouter buffer for a 256-vector window. A
        // 2-frame window of 8×8 grids = 128 vectors of 32 FP16 = 8 KB;
        // 14×14 grids need two half-frame windows of the same size.
        let l = ConvLayouter::new(8, 8);
        let bytes = 8 * l.bank_depth() * 32 * 2;
        assert!(bytes <= 16 * 1024, "{bytes}");
    }

    #[test]
    fn position_lookup_matches_hashmap_semantics() {
        use std::collections::HashMap;
        let l = ConvLayouter::new(4, 5);
        let mut lookup = PositionLookup::new(&l);
        let mut reference: HashMap<Fhw, usize> = HashMap::new();
        lookup.begin_tile();
        for (local, token) in [3usize, 17, 8, 39].iter().enumerate() {
            let p = l.position_of(*token);
            lookup.insert(p, local);
            reference.insert(p, local);
        }
        for token in 0..40 {
            let p = l.position_of(token);
            assert_eq!(lookup.get(p), reference.get(&p).copied(), "{p:?}");
        }
    }

    #[test]
    fn position_lookup_tiles_do_not_leak() {
        let l = ConvLayouter::new(2, 2);
        let mut lookup = PositionLookup::new(&l);
        let p = Fhw { f: 1, r: 1, c: 0 };
        lookup.begin_tile();
        lookup.insert(p, 7);
        assert_eq!(lookup.get(p), Some(7));
        lookup.begin_tile();
        assert_eq!(lookup.get(p), None, "stale entry visible after begin_tile");
        // Unseen positions (beyond the high-water mark) are absent.
        assert_eq!(lookup.get(Fhw { f: 9, r: 0, c: 0 }), None);
    }

    #[test]
    #[should_panic(expected = "off the 4x4 grid")]
    fn position_lookup_rejects_off_grid_positions() {
        // (f0,r4,c1) would alias (f1,r0,c1)'s slot on a 4×4 grid.
        let mut lookup = PositionLookup::new(&ConvLayouter::new(4, 4));
        lookup.begin_tile();
        lookup.insert(Fhw { f: 1, r: 0, c: 1 }, 0);
        lookup.insert(Fhw { f: 0, r: 4, c: 1 }, 1);
    }

    #[test]
    fn odd_grids_still_address_injectively() {
        use std::collections::HashSet;
        let l = ConvLayouter::new(5, 7);
        let mut seen = HashSet::new();
        for f in 0..2 {
            for r in 0..5 {
                for c in 0..7 {
                    assert!(seen.insert({
                        let a = l.address_of(Fhw { f, r, c });
                        (a.bank, a.offset)
                    }));
                }
            }
        }
    }
}
