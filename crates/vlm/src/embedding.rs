//! Token embedding and activation synthesis.
//!
//! Expands the [`crate::scene::Scene`]'s content keys into
//! layer/stage-specific activation rows with a **controlled sub-vector
//! redundancy structure**:
//!
//! * every [`ContentKey`] owns a deterministic latent appearance vector;
//! * each 8-element *group* of a token's row is either **stable**
//!   (bit-identical whenever the same content appears, in any frame) or
//!   **unstable** (fresh Gaussian noise of magnitude `noise_sigma` every
//!   frame);
//! * the per-content stable-group fraction is drawn around the dataset's
//!   [`stable_fraction`](crate::dataset::RedundancyProfile::stable_fraction).
//!
//! This reproduces the paper's Fig. 2(b) mechanism exactly: at a
//! granularity of 8 the fraction of >0.9-cosine vectors approaches the
//! stable fraction, while full-token cosine is dragged below the 0.9
//! threshold by the noisy groups (`cos ≈ sf + (1-sf)/(1+σ²)`), so finer
//! granularity reveals substantially more redundancy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use focus_tensor::backend::{self, BackendHandle, KernelLaunch};
use focus_tensor::Matrix;

use crate::dataset::RedundancyProfile;
use crate::scene::{fnv1a_fold, hash_words, ContentKey, Scene, FNV_OFFSET_BASIS};

/// FNV-1a for the synthesiser's memo-cache keys. The caches sit on the
/// row-synthesis hot path and are probed a few times per token row;
/// SipHash's per-lookup cost is pure overhead there (a memo's hash
/// function cannot affect synthesised values, only lookup speed; `Eq`
/// still guards exactness). The fold itself is
/// [`crate::scene::fnv1a_fold`] — one definition of the constants.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET_BASIS)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// Elements per stability group: the finest granularity at which
/// redundancy exists (the paper's Fig. 2(b) sweeps down to size 8).
pub const GROUP: usize = 8;

/// The network stages whose outputs the similarity concentrator gathers
/// (paper §VI-A footnote: FFN, O-projection and PV outputs) plus the
/// initial embeddings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Projector output / LLM input embeddings.
    Embedding,
    /// Output of the attention PV GEMM (input of the O projection).
    PvOut,
    /// Output of the O projection (input, through the residual/norm, of
    /// the FFN gate/up GEMMs).
    OProjOut,
    /// The gated FFN activation (input of the FFN down GEMM); its width
    /// is `ffn_hidden`, not `hidden`.
    FfnAct,
    /// Output of the FFN down GEMM (input of the next layer's QKV).
    FfnDownOut,
}

impl Stage {
    /// All gather points in execution order within a layer.
    pub const GATHER_POINTS: [Stage; 4] = [
        Stage::PvOut,
        Stage::OProjOut,
        Stage::FfnAct,
        Stage::FfnDownOut,
    ];

    /// Index of this stage within [`Stage::GATHER_POINTS`], or `None`
    /// for [`Stage::Embedding`]. Pipelines use this to address
    /// per-layer gather-stage arrays.
    pub fn gather_index(self) -> Option<usize> {
        Stage::GATHER_POINTS.iter().position(|&s| s == self)
    }

    /// Activation width of this stage's output rows under `model`
    /// (`ffn_hidden` for the gated FFN activation, `hidden` otherwise).
    pub fn width(self, model: &crate::config::ModelConfig) -> usize {
        match self {
            Stage::FfnAct => model.ffn_hidden,
            _ => model.hidden,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Stage::Embedding => 0x10,
            Stage::PvOut => 0x20,
            Stage::OProjOut => 0x30,
            Stage::FfnAct => 0x40,
            Stage::FfnDownOut => 0x50,
        }
    }
}

/// SplitMix64: a tiny, fast, high-quality deterministic generator used
/// to expand hash seeds into value streams.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal sample (Box–Muller over the fixed-polynomial
    /// kernel, one value per call). Bit-identical to the corresponding
    /// position of a [`SplitMix64::fill_normals`] batch.
    #[inline]
    pub fn next_normal(&mut self) -> f32 {
        let r1 = self.next_u64();
        let r2 = self.next_u64();
        focus_tensor::math::normal_from_raw(r1, r2)
    }

    /// Fills `out` with standard normal samples, consuming exactly two
    /// raw words per value — the batched form of
    /// [`SplitMix64::next_normal`]. The fill runs through
    /// [`focus_tensor::math::box_muller_fill`]'s runtime-dispatched
    /// SIMD kernel, and the generator advances as if each value had
    /// been drawn one call at a time, so batched and sequential draws
    /// produce interchangeable streams.
    #[inline]
    pub fn fill_normals(&mut self, out: &mut [f32]) {
        focus_tensor::math::box_muller_fill(self.0, out);
        self.0 = self
            .0
            .wrapping_add(focus_tensor::math::GAMMA.wrapping_mul(2 * out.len() as u64));
    }

    /// [`SplitMix64::fill_normals`] through an explicit [`Backend`]
    /// handle — the synthesis-fill kernel the stage pipeline
    /// dispatches. The generator advances identically whatever the
    /// backend does (the trace backend zero-fills without numeric
    /// work; the numeric backends are bit-identical to each other).
    ///
    /// [`Backend`]: focus_tensor::backend::Backend
    #[inline]
    pub fn fill_normals_with(&mut self, backend: BackendHandle, out: &mut [f32]) {
        backend.normal_fill(self.0, out);
        self.0 = self
            .0
            .wrapping_add(focus_tensor::math::GAMMA.wrapping_mul(2 * out.len() as u64));
    }
}

/// The deterministic group-stability law of activation synthesis:
/// which [`GROUP`]-wide slices of a content key's rows are bit-stable
/// across frames, as a pure function of `(key, layer, stage, width)`
/// under a synthesiser seed.
///
/// [`ActivationSynthesizer::token_row`] draws its stability pattern
/// from this model, and the temporal concentrator consults the *same*
/// model to prove — before a single byte is synthesised — that a
/// column tile of a signature-stable token will re-synthesise
/// bit-identically next frame. One definition, two consumers: the
/// carry proof cannot drift from the synthesis it predicts.
#[derive(Clone, Copy, Debug)]
pub struct StabilityModel {
    redundancy: RedundancyProfile,
    layers: usize,
    seed: u64,
}

impl StabilityModel {
    /// A model under the given dataset profile, total layer count and
    /// synthesiser seed — the same triple fed to
    /// [`ActivationSynthesizer::new`].
    pub fn new(redundancy: RedundancyProfile, layers: usize, seed: u64) -> Self {
        StabilityModel {
            redundancy,
            layers,
            seed,
        }
    }

    /// Context salt for a (layer, stage) pair.
    fn context_salt(&self, layer: usize, stage: Stage) -> u64 {
        hash_words(self.seed, &[0xCC, layer as u64, stage.salt()])
    }

    /// Per-content stable-group fraction: the dataset mean plus a
    /// per-content offset and a mild depth decay.
    fn stable_fraction_for(&self, key: ContentKey, layer: usize) -> f64 {
        let z = centered_unit(key.stable_hash(self.seed ^ 0x5F5F));
        let depth = layer as f64 / self.layers.max(1) as f64;
        (self.redundancy.stable_fraction + 0.24 * z - 0.05 * depth).clamp(0.02, 0.995)
    }

    /// Hierarchical per-[`GROUP`] stability flags of `key`'s rows at
    /// `(layer, stage, width)`.
    ///
    /// Channel stability in real activations is spatially *clustered*:
    /// whole 32-wide feature blocks freeze for static content, and
    /// inside a volatile block some 8-wide sub-groups still repeat.
    /// Two tiers reproduce the Fig. 2(b) CDF at both ends — the
    /// 8-dim `>0.9` fraction equals `sf`, while the 32-dim fraction
    /// equals the block-tier stability `s32 = α·sf` — without the
    /// `sf⁴` collapse a flat i.i.d. model would force on vector-level
    /// matching.
    pub fn group_pattern(
        &self,
        key: ContentKey,
        layer: usize,
        stage: Stage,
        width: usize,
    ) -> Vec<bool> {
        self.group_pattern_salted(key, layer, self.context_salt(layer, stage), width)
    }

    fn group_pattern_salted(
        &self,
        key: ContentKey,
        layer: usize,
        salt: u64,
        width: usize,
    ) -> Vec<bool> {
        let sf = self.stable_fraction_for(key, layer);
        const BLOCK_TIER: f64 = 0.72;
        let s32 = BLOCK_TIER * sf;
        let s8 = ((sf - s32) / (1.0 - s32)).clamp(0.0, 1.0);
        let stability_seed = key.stable_hash(salt ^ 0xABCD);
        let groups_per_block = 32 / GROUP;
        (0..width / GROUP)
            .map(|g| {
                let block = g / groups_per_block;
                let block_stable =
                    unit_from(hash_words(stability_seed, &[0x32, block as u64])) < s32;
                block_stable || unit_from(hash_words(stability_seed, &[0x8, g as u64])) < s8
            })
            .collect()
    }

    /// Column-tile stability at SIC vector granularity `v_len`: a tile
    /// is provably bit-stable iff every [`GROUP`] inside it is. Returns
    /// one flag per tile (the tiling of `width` used by the gather
    /// sweeps); all-false — nothing provable — when the tiling does not
    /// align to whole groups.
    pub fn tile_pattern(
        &self,
        key: ContentKey,
        layer: usize,
        stage: Stage,
        width: usize,
        v_len: usize,
    ) -> Vec<bool> {
        let tiles = width.div_ceil(v_len.max(1)).max(1);
        if width == 0 || v_len == 0 || !width.is_multiple_of(GROUP) || !v_len.is_multiple_of(GROUP)
        {
            return vec![false; tiles];
        }
        let groups = self.group_pattern(key, layer, stage, width);
        let per_tile = v_len / GROUP;
        (0..tiles)
            .map(|t| {
                groups[t * per_tile..((t + 1) * per_tile).min(groups.len())]
                    .iter()
                    .all(|&s| s)
            })
            .collect()
    }
}

/// The deterministic base of one row: a memoised appearance copied, or
/// two blended (`wa·a + wb·b`). Offsets index the synthesiser's
/// appearance slab.
#[derive(Clone, Copy, Debug)]
enum RowBase {
    Copy(usize),
    Mix {
        a: usize,
        wa: f32,
        b: usize,
        wb: f32,
    },
}

/// One row's synthesis recipe under the current context: every memo
/// lookup of the row resolved once, to slab offsets and weights, so a
/// column-range fill is pure elementwise work.
#[derive(Clone, Copy, Debug)]
struct RowRecipe {
    base: RowBase,
    /// Sub-patch motion: `(secondary appearance, damped φ)`.
    blend: Option<(usize, f32)>,
    /// Offset of the row's group-stability flags in the flag slab.
    flags: usize,
    /// The per-group noise hash `hash_words(salt, [token, g])` folded
    /// up to the group word: folding `g` on completes it.
    noise_prefix: u64,
}

/// Synthesises per-layer, per-stage activations for a scene, one
/// column range of a set of prepared rows at a time.
///
/// [`ActivationSynthesizer::prepare_rows`] resolves every row's
/// appearance and stability lookups into a recipe;
/// [`ActivationSynthesizer::fill_columns`] then synthesises any
/// [`GROUP`]-aligned column range of those rows, bit-identical to the
/// same columns of the full-width row ([`ActivationSynthesizer::token_row`]
/// and [`ActivationSynthesizer::activations`] are its `0..width` case).
/// Appearances are memoised at full width in one slab and flushed when
/// the (layer, stage) context changes, which matches the layer-by-layer
/// traversal of the pipeline.
#[derive(Debug)]
pub struct ActivationSynthesizer {
    scene: Arc<Scene>,
    redundancy: RedundancyProfile,
    seed: u64,
    layers: usize,
    /// Kernel backend every normal fill routes through (and the sink
    /// for synthesis-launch records).
    backend: BackendHandle,
    cache_salt: u64,
    /// The current context's appearance vectors, back to back at full
    /// width; `appearance_at` maps `(key, width)` to an offset.
    slab: Vec<f32>,
    appearance_at: HashMap<(ContentKey, usize), usize, FnvBuild>,
    /// Per-(content, width) group-stability flags, back to back — a
    /// pure function of the content key within one (layer, stage)
    /// context, shared by every token showing that content (flushed
    /// with the context, like the appearance memo).
    flags: Vec<bool>,
    flags_at: HashMap<(ContentKey, usize), usize, FnvBuild>,
    /// Recipes of the rows the last `prepare_rows` call resolved.
    recipes: Vec<RowRecipe>,
    /// Row width of the prepared rows.
    width: usize,
}

impl ActivationSynthesizer {
    /// Creates a synthesiser for `scene` with the dataset's redundancy
    /// profile. `layers` is the total layer count (used for the mild
    /// depth trend in stability).
    pub fn new(
        scene: impl Into<Arc<Scene>>,
        redundancy: RedundancyProfile,
        layers: usize,
        seed: u64,
    ) -> Self {
        ActivationSynthesizer {
            scene: scene.into(),
            redundancy,
            seed,
            layers,
            backend: backend::active(),
            cache_salt: u64::MAX,
            slab: Vec::new(),
            appearance_at: HashMap::default(),
            flags: Vec::new(),
            flags_at: HashMap::default(),
            recipes: Vec::new(),
            width: 0,
        }
    }

    /// Replaces the kernel backend (the process-wide
    /// [`backend::active`] by default).
    pub fn with_backend(mut self, backend: BackendHandle) -> Self {
        self.backend = backend;
        self
    }

    /// The scene this synthesiser reads.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Context salt for a (layer, stage) pair.
    fn context_salt(&self, layer: usize, stage: Stage) -> u64 {
        hash_words(self.seed, &[0xCC, layer as u64, stage.salt()])
    }

    /// The stability law this synthesiser's rows obey (the proof side
    /// of temporal carry).
    pub fn stability_model(&self) -> StabilityModel {
        StabilityModel::new(self.redundancy, self.layers, self.seed)
    }

    /// Slab offset of a content key's deterministic appearance vector
    /// at the current context, synthesised on first use.
    fn appearance(&mut self, key: ContentKey, width: usize) -> usize {
        if let Some(&at) = self.appearance_at.get(&(key, width)) {
            return at;
        }
        let at = self.slab.len();
        self.slab.resize(at + width, 0.0);
        let mut rng = SplitMix64(key.stable_hash(self.cache_salt));
        rng.fill_normals_with(self.backend, &mut self.slab[at..]);
        self.appearance_at.insert((key, width), at);
        at
    }

    /// Resolves one row's recipe: its appearance offsets and weights,
    /// motion blend, stability flags and noise key.
    ///
    /// The two-term mixes are `wa·a + wb·b` with `a` the first
    /// component drawn; IEEE-754 addition is commutative, so the
    /// operand order of the sum cannot move a bit.
    fn recipe(&mut self, token: usize, layer: usize, width: usize) -> RowRecipe {
        let patch = *self.scene.patch_by_index(token);
        let base = match patch.primary {
            ContentKey::Background { epoch, .. } => {
                // sqrt-weighted mix keeps unit variance; the expected
                // cosine between two background patches is 1 - texture.
                let texture = self.redundancy.bg_texture_var.clamp(0.0, 1.0);
                // focus-lint: allow(D1-libm) — IEEE 754 sqrt is correctly rounded:
                // bit-deterministic on every conforming platform.
                let w_scene = ((1.0 - texture) as f32).sqrt();
                // focus-lint: allow(D1-libm) — same correctly-rounded sqrt as above.
                let w_pos = (texture as f32).sqrt();
                RowBase::Mix {
                    a: self.appearance(patch.primary, width),
                    wa: w_pos,
                    b: self.appearance(ContentKey::Scene { epoch }, width),
                    wb: w_scene,
                }
            }
            ContentKey::Object { epoch, object, .. } => {
                // Objects mix a core identity with per-cell texture.
                const OBJECT_TEXTURE: f32 = 0.7;
                // focus-lint: allow(D1-libm) — IEEE 754 sqrt is correctly rounded:
                // bit-deterministic on every conforming platform.
                let w_core = (1.0 - OBJECT_TEXTURE).sqrt();
                // focus-lint: allow(D1-libm) — same correctly-rounded sqrt as above.
                let w_cell = OBJECT_TEXTURE.sqrt();
                let core_key = ContentKey::Object {
                    epoch,
                    object,
                    lr: i16::MAX,
                    lc: i16::MAX,
                };
                RowBase::Mix {
                    a: self.appearance(patch.primary, width),
                    wa: w_cell,
                    b: self.appearance(core_key, width),
                    wb: w_core,
                }
            }
            ContentKey::Scene { .. } => RowBase::Copy(self.appearance(patch.primary, width)),
        };
        // Sub-patch motion blends the neighbouring content. The blend
        // weight is damped below the raw area overlap: vision-encoder
        // features are translation-tolerant, so a patch whose content
        // shifted by φ of a cell moves much less than φ in feature
        // space (this is precisely the sub-token redundancy Fig. 1(c)
        // exploits).
        const MOTION_DAMPING: f32 = 0.5;
        let blend = patch
            .secondary
            .map(|(secondary, phi)| (self.appearance(secondary, width), MOTION_DAMPING * phi));

        // Group stability comes from the shared [`StabilityModel`] law
        // (see its docs for the two-tier structure), memoised per
        // (content, width) so tokens repeating a content key — the
        // scene's redundancy itself — share one pattern. The additive
        // noise stays strictly per (token, group).
        let key = patch.primary;
        let flags = match self.flags_at.get(&(key, width)) {
            Some(&at) => at,
            None => {
                let at = self.flags.len();
                let pattern =
                    self.stability_model()
                        .group_pattern_salted(key, layer, self.cache_salt, width);
                self.flags.extend(pattern);
                self.flags_at.insert((key, width), at);
                at
            }
        };
        // Noise keys off the *global-time* token index: at origin 0
        // this is the local index (bit-identical to every pinned
        // value), and in a scene stream it advances with the window, so
        // unstable groups redraw each wall-clock frame while stable
        // groups stay bit-identical — exactly the cross-window
        // redundancy the temporal concentrator harvests.
        let noise_token = self.scene.global_token(token) as u64;
        RowRecipe {
            base,
            blend,
            flags,
            noise_prefix: hash_words(self.cache_salt ^ 0x0115E, &[noise_token]),
        }
    }

    /// Resolves the synthesis recipes of `tokens` (rows in that order;
    /// image-token indices are scene-global, frame-major) at `(layer,
    /// stage)` and `width`: every appearance and stability lookup of
    /// the rows, once. Following [`ActivationSynthesizer::fill_columns`]
    /// calls synthesise column ranges of exactly these rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a positive multiple of [`GROUP`].
    pub fn prepare_rows(&mut self, tokens: &[usize], layer: usize, stage: Stage, width: usize) {
        assert!(
            width > 0 && width.is_multiple_of(GROUP),
            "width must be a multiple of {GROUP}"
        );
        let salt = self.context_salt(layer, stage);
        if salt != self.cache_salt {
            self.slab.clear();
            self.appearance_at.clear();
            self.flags.clear();
            self.flags_at.clear();
            self.cache_salt = salt;
        }
        self.recipes.clear();
        for &token in tokens {
            let recipe = self.recipe(token, layer, width);
            self.recipes.push(recipe);
        }
        self.width = width;
    }

    /// Synthesises columns `cols` of every prepared row into `out`
    /// (row-major, one `cols.len()`-wide row per prepared row),
    /// bit-identical to the same columns of the full-width row: the
    /// per-element operations run in the same order, and the noise is
    /// keyed per `(token, group)`. Rows for which `skip(row)` holds are
    /// not synthesised: their span is filled with `f32::NAN`, so any
    /// read of it poisons the result.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is not [`GROUP`]-aligned within the prepared
    /// width, or `out` is not one `cols.len()`-wide row per prepared
    /// row.
    pub fn fill_columns(&self, cols: Range<usize>, skip: impl Fn(usize) -> bool, out: &mut [f32]) {
        assert!(
            cols.start.is_multiple_of(GROUP)
                && cols.end.is_multiple_of(GROUP)
                && cols.start <= cols.end
                && cols.end <= self.width,
            "column range {cols:?} must be {GROUP}-aligned within width {}",
            self.width
        );
        let n = cols.len();
        assert_eq!(
            out.len(),
            self.recipes.len() * n,
            "one span per prepared row"
        );
        self.backend.record(KernelLaunch::SynthFill {
            rows: self.recipes.len(),
            width: n,
        });
        if n == 0 {
            return;
        }
        let sigma = self.redundancy.noise_sigma as f32;
        let at = |offset: usize| &self.slab[offset + cols.start..offset + cols.end];
        for (row, (recipe, o)) in self.recipes.iter().zip(out.chunks_exact_mut(n)).enumerate() {
            if skip(row) {
                o.fill(f32::NAN);
                continue;
            }
            match recipe.base {
                RowBase::Copy(a) => o.copy_from_slice(at(a)),
                RowBase::Mix { a, wa, b, wb } => {
                    for ((o, &x), &y) in o.iter_mut().zip(at(a)).zip(at(b)) {
                        *o = wa * x + wb * y;
                    }
                }
            }
            if let Some((secondary, phi)) = recipe.blend {
                for (o, &s) in o.iter_mut().zip(at(secondary)) {
                    *o = (1.0 - phi) * *o + phi * s;
                }
            }
            let mut noise = [0.0f32; GROUP];
            for g in cols.start / GROUP..cols.end / GROUP {
                if self.flags[recipe.flags + g] {
                    continue;
                }
                let seed = fnv1a_fold(recipe.noise_prefix, &(g as u64).to_le_bytes());
                SplitMix64(seed).fill_normals_with(self.backend, &mut noise);
                let lo = g * GROUP - cols.start;
                for (v, &z) in o[lo..lo + GROUP].iter_mut().zip(&noise) {
                    *v += sigma * z;
                }
            }
        }
    }

    /// Synthesises one activation row for `token` at `(layer, stage)`
    /// into `out` (whose length sets the width) — the one-row,
    /// full-width case of [`ActivationSynthesizer::fill_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a positive multiple of [`GROUP`].
    pub fn token_row(&mut self, token: usize, layer: usize, stage: Stage, out: &mut [f32]) {
        let width = out.len();
        self.prepare_rows(&[token], layer, stage, width);
        self.fill_columns(0..width, |_| false, out);
    }

    /// Synthesises the activation matrix of the given tokens at
    /// `(layer, stage)` — the full-width case of
    /// [`ActivationSynthesizer::fill_columns`]. Rows follow the order
    /// of `tokens`; image-token indices are scene-global (frame-major).
    pub fn activations(
        &mut self,
        tokens: &[usize],
        layer: usize,
        stage: Stage,
        width: usize,
    ) -> Matrix {
        let mut m = Matrix::zeros(tokens.len(), width);
        self.prepare_rows(tokens, layer, stage, width);
        self.fill_columns(0..width, |_| false, m.as_mut_slice());
        m
    }

    /// Cosine-similarity samples between temporally adjacent tokens at
    /// the given vector granularity — the measurement behind Fig. 2(b).
    ///
    /// For every token of frames `1..F`, its row is compared with the
    /// same grid position in the previous frame, slice by slice of
    /// `granularity` elements; all slice similarities are returned.
    pub fn temporal_similarity_samples(
        &mut self,
        layer: usize,
        stage: Stage,
        width: usize,
        granularity: usize,
    ) -> Vec<f32> {
        let cfg = *self.scene.config();
        let per_frame = cfg.grid_h * cfg.grid_w;
        let mut samples = Vec::new();
        let mut prev_row = vec![0.0f32; width];
        let mut cur_row = vec![0.0f32; width];
        for f in 1..cfg.frames {
            for p in 0..per_frame {
                let cur = f * per_frame + p;
                let prev = (f - 1) * per_frame + p;
                self.token_row(prev, layer, stage, &mut prev_row);
                self.token_row(cur, layer, stage, &mut cur_row);
                for range in focus_tensor::ops::vector_ranges(width, granularity) {
                    samples.push(focus_tensor::ops::cosine_similarity(
                        &cur_row[range.clone()],
                        &prev_row[range],
                    ));
                }
            }
        }
        samples
    }
}

/// Uniform in `[0,1)` from a hash.
fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in `[-1, 1)` from a hash.
fn centered_unit(h: u64) -> f64 {
    unit_from(h) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelKind;
    use crate::dataset::{DatasetKind, DatasetProfile};
    use crate::scene::SceneConfig;

    fn make_scene() -> Scene {
        let profile = DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B);
        Scene::synthesize(SceneConfig {
            frames: 4,
            grid_h: 14,
            grid_w: 14,
            redundancy: profile.redundancy,
            seed: 99,
        })
    }

    fn profile() -> RedundancyProfile {
        DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B).redundancy
    }

    #[test]
    fn rows_are_deterministic() {
        let scene = make_scene();
        let mut a = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut b = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut ra = vec![0.0; 128];
        let mut rb = vec![0.0; 128];
        a.token_row(17, 3, Stage::PvOut, &mut ra);
        b.token_row(17, 3, Stage::PvOut, &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_layers_decorrelate() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut r3 = vec![0.0; 128];
        let mut r9 = vec![0.0; 128];
        syn.token_row(17, 3, Stage::PvOut, &mut r3);
        syn.token_row(17, 9, Stage::PvOut, &mut r9);
        let cos = focus_tensor::ops::cosine_similarity(&r3, &r9);
        assert!(cos.abs() < 0.5, "layers must have distinct latents ({cos})");
    }

    #[test]
    fn static_background_has_stable_groups_across_frames() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        // Find a static-background position in frames 0 and 1.
        let per_frame = 14 * 14;
        let (mut t0, mut t1) = (usize::MAX, 0);
        for p in 0..per_frame {
            if scene.patch_by_index(p).object.is_none()
                && scene.patch_by_index(per_frame + p).object.is_none()
                && scene.epoch_of_frame(0) == scene.epoch_of_frame(1)
            {
                t0 = p;
                t1 = per_frame + p;
                break;
            }
        }
        assert_ne!(t0, usize::MAX, "scene must contain static background");
        let mut a = vec![0.0; 256];
        let mut b = vec![0.0; 256];
        syn.token_row(t0, 5, Stage::OProjOut, &mut a);
        syn.token_row(t1, 5, Stage::OProjOut, &mut b);
        // Some groups identical (stable), some not (noisy).
        let mut identical = 0;
        let mut different = 0;
        for g in 0..256 / GROUP {
            if a[g * GROUP..(g + 1) * GROUP] == b[g * GROUP..(g + 1) * GROUP] {
                identical += 1;
            } else {
                different += 1;
            }
        }
        assert!(
            identical >= 256 / GROUP / 3,
            "stable groups must repeat ({identical})"
        );
        assert!(different > 0, "unstable groups must differ");
    }

    #[test]
    fn stability_model_predicts_byte_repeats_exactly() {
        // The carry proof: for any two tokens showing the same content
        // signature, a group flagged stable by the model is
        // bit-identical between their rows, and a group flagged
        // unstable differs (noise keys off the distinct token indices).
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let model = syn.stability_model();
        let per_frame = 14 * 14;
        let width = 256;
        let (layer, stage) = (5, Stage::OProjOut);
        let mut a = vec![0.0; width];
        let mut b = vec![0.0; width];
        let (mut stable_checked, mut unstable_checked) = (0, 0);
        for p in 0..per_frame {
            let (t0, t1) = (p, per_frame + p);
            if scene.token_signature(t0) != scene.token_signature(t1) {
                continue;
            }
            syn.token_row(t0, layer, stage, &mut a);
            syn.token_row(t1, layer, stage, &mut b);
            let key = scene.patch_by_index(t0).primary;
            for (g, &stable) in model
                .group_pattern(key, layer, stage, width)
                .iter()
                .enumerate()
            {
                let ga = &a[g * GROUP..(g + 1) * GROUP];
                let gb = &b[g * GROUP..(g + 1) * GROUP];
                let same = ga.iter().zip(gb).all(|(x, y)| x.to_bits() == y.to_bits());
                if stable {
                    assert!(same, "model says stable, bytes moved (token {p} group {g})");
                    stable_checked += 1;
                } else {
                    assert!(
                        !same,
                        "model says unstable, bytes repeated (token {p} group {g})"
                    );
                    unstable_checked += 1;
                }
            }
        }
        assert!(
            stable_checked > 100,
            "stable groups checked: {stable_checked}"
        );
        assert!(
            unstable_checked > 100,
            "unstable groups checked: {unstable_checked}"
        );
    }

    #[test]
    fn tile_pattern_requires_every_group_and_aligned_tiling() {
        let scene = make_scene();
        let model = ActivationSynthesizer::new(&scene, profile(), 28, 7).stability_model();
        let key = scene.patch_by_index(0).primary;
        let (layer, stage, width) = (3, Stage::PvOut, 256);
        let groups = model.group_pattern(key, layer, stage, width);
        let tiles = model.tile_pattern(key, layer, stage, width, 32);
        assert_eq!(tiles.len(), width / 32);
        for (t, &stable) in tiles.iter().enumerate() {
            let per_tile = 32 / GROUP;
            let expect = groups[t * per_tile..(t + 1) * per_tile].iter().all(|&s| s);
            assert_eq!(stable, expect, "tile {t}");
        }
        // Misaligned tilings prove nothing.
        assert!(model
            .tile_pattern(key, layer, stage, width, 12)
            .iter()
            .all(|&s| !s));
    }

    #[test]
    fn fine_granularity_reveals_more_redundancy() {
        // The Fig. 2(b) ordering: P(sim > 0.9) at granularity 8 must
        // exceed P(sim > 0.9) at full width.
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let width = 256;
        let fine = syn.temporal_similarity_samples(4, Stage::FfnDownOut, width, 8);
        let coarse = syn.temporal_similarity_samples(4, Stage::FfnDownOut, width, width);
        let frac = |v: &[f32]| v.iter().filter(|&&s| s > 0.9).count() as f64 / v.len() as f64;
        assert!(
            frac(&fine) > frac(&coarse) + 0.1,
            "fine {:.3} vs coarse {:.3}",
            frac(&fine),
            frac(&coarse)
        );
    }

    #[test]
    fn activations_matrix_matches_row_synthesis() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let tokens = [3usize, 200, 77];
        let m = syn.activations(&tokens, 2, Stage::FfnAct, 64);
        let mut row = vec![0.0; 64];
        syn.token_row(200, 2, Stage::FfnAct, &mut row);
        assert_eq!(m.row(1), &row[..]);
    }

    #[test]
    fn recycled_buffer_synthesis_is_bit_identical() {
        let scene = make_scene();
        let mut fresh = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut reused = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut buf = Vec::new();
        // Drive the reused synthesiser and buffer through several
        // (layer, stage, shape) contexts; every call must match a fresh
        // allocation.
        let calls = [
            (vec![0usize, 5, 9, 300], 2, Stage::PvOut, 64),
            (vec![1usize, 2], 2, Stage::FfnAct, 128),
            (vec![7usize, 8, 9], 4, Stage::OProjOut, 64),
            (vec![0usize], 4, Stage::PvOut, 32),
        ];
        for (tokens, layer, stage, width) in calls {
            buf.resize(tokens.len() * width, 7.0);
            reused.prepare_rows(&tokens, layer, stage, width);
            reused.fill_columns(0..width, |_| false, &mut buf);
            let expect = fresh.activations(&tokens, layer, stage, width);
            assert_eq!(buf, expect.as_slice());
        }
    }

    #[test]
    fn skipped_rows_are_poisoned_not_synthesised() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let full = syn.activations(&[4, 5, 6], 1, Stage::OProjOut, 64);
        let mut out = vec![0.0f32; 3 * 16];
        syn.fill_columns(16..32, |row| row == 1, &mut out);
        assert!(out[16..32].iter().all(|v| v.is_nan()));
        for row in [0, 2] {
            assert_eq!(&out[row * 16..(row + 1) * 16], &full.row(row)[16..32]);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn width_must_be_group_aligned() {
        let scene = make_scene();
        let mut syn = ActivationSynthesizer::new(&scene, profile(), 28, 7);
        let mut row = vec![0.0; 13];
        syn.token_row(0, 0, Stage::Embedding, &mut row);
    }

    #[test]
    fn fill_normals_matches_sequential_draws() {
        let mut batched = SplitMix64(123);
        let mut buf = vec![0.0f32; 19];
        batched.fill_normals(&mut buf);
        let mut sequential = SplitMix64(123);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                sequential.next_normal().to_bits(),
                "value {i} diverged"
            );
        }
        // Both generators sit at the same stream position afterwards.
        assert_eq!(batched.next_u64(), sequential.next_u64());
    }

    #[test]
    fn splitmix_is_reproducible_and_normalish() {
        let mut rng = SplitMix64(42);
        let first = rng.next_u64();
        assert_eq!(SplitMix64(42).next_u64(), first);
        let mut rng = SplitMix64(7);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| rng.next_normal() as f64).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.08, "mean {mean}");
    }
}
