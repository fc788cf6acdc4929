//! Fused any-bitwidth GEMM: every bit-plane pair in one pass over the output.
//!
//! The plane-composition reference in [`crate::gemm`] materialises a fresh
//! `Matrix<u32>` partial product per `(i, j)` plane pair and then re-walks the
//! full M×N output to shift-accumulate it — `s·t` allocations, `s·t` extra
//! passes over C, and `s·t` parallel dispatches for an `s`-bit × `t`-bit GEMM.
//! The kernel here is the fusion Algorithm 1 of the paper actually describes:
//! walk the output **once**, and for each block of elements reduce *all* plane
//! pairs in registers before a single store.
//!
//! Structural optimisations, mirroring the register-blocked micro-kernels of
//! the tensor-core GEMM literature:
//!
//! * **row-block parallelism** — the output is split into blocks of
//!   [`ROW_BLOCK`] rows, each a single work item for the persistent pool, so a
//!   3-bit × 2-bit GEMM costs one dispatch instead of six;
//! * **`u64` word pairs** — every packed lane is widened once per call (B) or
//!   once per row (A) from `u32` words to aligned `u64` values
//!   (`chunks_exact(2)` pairs, little-endian), halving the popcount loop trip
//!   count and removing the per-iteration pair assembly from the hot loop;
//! * **register blocking** — the micro-kernel produces [`COL_BLOCK`] output
//!   columns per step, loading each widened A word once and AND-popcounting it
//!   against four B lanes, with four independent accumulator chains to keep the
//!   popcount units busy;
//! * **hardware vector popcount** — on x86-64 hosts with AVX-512
//!   `VPOPCNTDQ` the micro-kernel runs 512 bits per step through
//!   `_mm512_popcnt_epi64` (detected once at runtime; every other host takes
//!   the portable `u64` path, and both produce identical results).
//!
//! [`crate::gemm::any_bit_gemm_serial`] remains the semantic oracle: the
//! property suite asserts bit-for-bit equality against it across random shapes,
//! bit widths and padded/odd K values.
//!
//! # Zero-word skipping
//!
//! Sparse adjacencies (the left operand of every aggregation) are mostly zero
//! words after packing, and an all-zero A word contributes nothing to an
//! AND+popcount reduction.  [`any_bit_gemm_fused_skip`] therefore scans each
//! widened A lane once, collects the maximal runs ("spans") of non-zero `u64`
//! words, and runs the micro-kernel only over those spans — the word-granular
//! analogue of the kernel's 8×128 zero-tile jumping (paper §4.3).  Skipped
//! words are exactly the all-zero ones, so the result is **bitwise identical**
//! to the non-skipping path by construction (asserted by the property suite),
//! and both the AVX-512 and portable micro-kernel bodies honour the same span
//! index — they only differ in how they traverse the surviving words.  The
//! returned [`FusedGemmStats`] reports how much popcount work the index
//! removed.
//!
//! # Narrow-K route
//!
//! When K fits one PAD128 tile (at most [`NARROW_K_WORDS`] widened words,
//! i.e. K ≤ 128 bits) the whole reduction is one K tile and all of the work
//! lies across the output, so a body that vectorizes along K fills at most
//! two of its eight lanes.  On the AVX-512 body,
//! [`any_bit_gemm_fused_with_scheme`] therefore serves these shapes with a
//! kernel that vectorizes across output columns instead (see
//! [`takes_narrow_k_route`]): B is re-laid out once per call as
//! `[plane_b][word][column]`, each non-zero A word is broadcast against eight
//! columns per `VPOPCNTQ`, and all-zero A words are skipped.  The route is
//! chosen from K alone and ignores the [`TilingScheme`].

use crate::bitmatrix::BitMatrixLayout;
use crate::stacked::StackedBitMatrix;
use qgtc_tensor::Matrix;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Output rows per parallel work item (one pool dispatch covers all of C).
pub const ROW_BLOCK: usize = 8;

/// Output columns produced per micro-kernel step.
pub const COL_BLOCK: usize = 4;

/// Widened 64-bit K words up to which the AVX-512 body takes the narrow-K
/// route: K ≤ 128 bits, one PAD128 tile (the K extent of one `bmma` tile).
pub const NARROW_K_WORDS: usize = 2;

/// Output rows per work item of the narrow-K kernel.  A GEMM with at most
/// this many rows (a serving batch's 72) runs inline on the calling thread,
/// without a pool dispatch.
const NARROW_ROW_BLOCK: usize = 128;

/// A maximal run of non-zero widened A words: `(first_word, word_count)`.
type Span = (usize, usize);

/// Tiling parameters of the panel-staged fused GEMM.
///
/// * `row_block` — output rows per parallel work item (and per staged-panel
///   reuse window: every staged B panel is consumed by all rows of the block
///   before the next panel is staged);
/// * `col_block` — output columns per staged B panel (the panel holds this
///   many B lanes per bit-plane);
/// * `k_panel_words` — widened 64-bit K-loop words per panel.  `0` means
///   "the whole K extent in one panel" and is clamped to the lane length at
///   run time, so a K-panel larger than K degenerates to full-K staging.
///
/// [`TilingScheme::baseline`] reproduces today's hardwired constants
/// (`ROW_BLOCK`×`COL_BLOCK`, no staging) and routes to the legacy unstaged
/// kernel byte-for-byte; every other scheme takes the staged double-buffered
/// path.  Every `(scheme, body)` pair is bitwise identical to the portable
/// oracle — a scheme only changes the traversal order and cache residency,
/// never a single popcount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingScheme {
    /// Output rows per work item / panel-reuse window (≥ 1).
    pub row_block: usize,
    /// Output columns per staged panel (≥ 1).
    pub col_block: usize,
    /// Widened 64-bit words per K panel; `0` = full K in one panel.
    pub k_panel_words: usize,
}

impl Default for TilingScheme {
    fn default() -> Self {
        Self::baseline()
    }
}

impl TilingScheme {
    /// Today's hardwired constants: `ROW_BLOCK`×`COL_BLOCK`, no K-panel
    /// staging.  This scheme routes to the legacy unstaged kernel verbatim,
    /// which makes it both the compatibility default and the fair A/B
    /// baseline of the tiling benchmarks.
    pub const fn baseline() -> Self {
        Self {
            row_block: ROW_BLOCK,
            col_block: COL_BLOCK,
            k_panel_words: 0,
        }
    }

    /// Whether this scheme routes to the legacy unstaged kernel.
    pub fn is_baseline(&self) -> bool {
        *self == Self::baseline()
    }

    /// Parse the `"RxCxK"` notation (e.g. `"16x8x8"`): row block × column
    /// block × K-panel words.  Row and column blocks must be positive; the
    /// K-panel may be `0` (full K).  Anything else is a typed
    /// [`ParseTilingSchemeError`].
    pub fn parse(input: &str) -> Result<Self, ParseTilingSchemeError> {
        let err = |reason: &'static str| ParseTilingSchemeError {
            input: input.to_string(),
            reason,
        };
        let mut fields = input.trim().split('x');
        let mut next = |name: &'static str| -> Result<usize, ParseTilingSchemeError> {
            fields
                .next()
                .ok_or_else(|| err("expected three 'x'-separated fields"))?
                .parse::<usize>()
                .map_err(|_| err(name))
        };
        let row_block = next("row block is not a non-negative integer")?;
        let col_block = next("column block is not a non-negative integer")?;
        let k_panel_words = next("K-panel word count is not a non-negative integer")?;
        if fields.next().is_some() {
            return Err(err("expected exactly three 'x'-separated fields"));
        }
        if row_block == 0 {
            return Err(err("row block must be at least 1"));
        }
        if col_block == 0 {
            return Err(err("column block must be at least 1"));
        }
        Ok(Self {
            row_block,
            col_block,
            k_panel_words,
        })
    }
}

impl std::fmt::Display for TilingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.row_block, self.col_block, self.k_panel_words
        )
    }
}

/// A tiling-scheme string that does not follow the `"RxCxK"` notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTilingSchemeError {
    /// The rejected input, verbatim.
    pub input: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseTilingSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid tiling scheme {:?}: {} (expected \"RxCxK\", e.g. \"16x8x8\")",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseTilingSchemeError {}

/// Which popcount micro-kernel body the fused GEMM runs.
///
/// Both bodies are bitwise identical over any input (the AVX-512 body's tail
/// loop *is* the portable body); they differ only in how many widened words
/// they traverse per step.  The default entry points pick
/// [`PopcountBody::detect`]; the kernel-backend layer selects a body
/// explicitly so the portable and vector paths can be raced and
/// conformance-tested against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopcountBody {
    /// Scalar `u64::count_ones` loop — available on every host.
    #[default]
    Portable,
    /// AVX2 nibble-LUT popcount (`PSHUFB` + `PSADBW`, the Muła kernel),
    /// 256 bits per step — x86-64 hosts with `avx2`.  Introduced with the
    /// panel-staged loop; the legacy unstaged kernel also accepts it but
    /// never auto-selects it (see [`PopcountBody::detect`]).
    Avx2,
    /// AVX-512 `VPOPCNTQ`, 512 bits per step — x86-64 hosts with
    /// `avx512f` + `avx512vpopcntdq` only.
    Avx512,
}

impl PopcountBody {
    /// The fastest body the *legacy unstaged* kernel auto-selects on this
    /// host.  The unstaged kernel predates the AVX2 nibble body and is kept
    /// as the frozen A/B baseline of the tiling benchmarks, so its detection
    /// order is unchanged: AVX-512 when available, the scalar loop otherwise.
    pub fn detect() -> Self {
        if avx512_popcount_available() {
            PopcountBody::Avx512
        } else {
            PopcountBody::Portable
        }
    }

    /// The fastest body available to the panel-staged loop on this host:
    /// AVX-512 `VPOPCNTQ`, else the AVX2 nibble-LUT body, else the scalar
    /// loop.
    pub fn detect_staged() -> Self {
        if avx512_popcount_available() {
            PopcountBody::Avx512
        } else if avx2_popcount_available() {
            PopcountBody::Avx2
        } else {
            PopcountBody::Portable
        }
    }

    /// The fastest body for `scheme`: [`PopcountBody::detect`] for the
    /// baseline (unstaged) scheme, [`PopcountBody::detect_staged`] for every
    /// staged one.
    pub fn detect_for(scheme: TilingScheme) -> Self {
        if scheme.is_baseline() {
            Self::detect()
        } else {
            Self::detect_staged()
        }
    }

    /// Whether this body can run on this host.
    pub fn is_available(self) -> bool {
        match self {
            PopcountBody::Portable => true,
            PopcountBody::Avx2 => avx2_popcount_available(),
            PopcountBody::Avx512 => avx512_popcount_available(),
        }
    }

    /// Stable lower-case name (the key of `TUNE_gemm.json` entries).
    pub fn name(self) -> &'static str {
        match self {
            PopcountBody::Portable => "portable",
            PopcountBody::Avx2 => "avx2",
            PopcountBody::Avx512 => "avx512",
        }
    }
}

/// Zero-word accounting of one fused GEMM execution.
///
/// Words are the widened 64-bit units of the inner (K) loop; the totals count
/// one word per `(A plane, output row)` lane, i.e. the K-loop trip count the
/// kernel would pay per B lane without skipping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedGemmStats {
    /// Widened A words the K loop would visit without skipping.
    pub total_words: u64,
    /// Words inside a non-zero span (actually popcounted).
    pub visited_words: u64,
}

impl FusedGemmStats {
    /// Words the span index removed from the popcount loop.
    pub fn skipped_words(&self) -> u64 {
        self.total_words - self.visited_words
    }

    /// Fraction of K-loop work skipped, in `[0, 1]` (0.0 when nothing ran).
    pub fn skip_ratio(&self) -> f64 {
        if self.total_words == 0 {
            0.0
        } else {
            self.skipped_words() as f64 / self.total_words as f64
        }
    }
}

/// Fused any-bitwidth GEMM `C = A · B` between an `s`-bit row-packed stack and a
/// `t`-bit column-packed stack.  Bit-for-bit equal to
/// [`crate::gemm::any_bit_gemm_serial`], but performs the whole composition in
/// one pass over the output with no intermediate plane products.
pub fn any_bit_gemm_fused(a: &StackedBitMatrix, b: &StackedBitMatrix) -> Matrix<i64> {
    fused_gemm_impl(a, b, false, PopcountBody::detect()).0
}

/// [`any_bit_gemm_fused`] with zero-word skipping: all-zero `u64` words of the
/// A operand are jumped via a per-row non-zero-span index.  Bitwise identical
/// to the non-skipping path; returns the measured skip statistics alongside the
/// product.
pub fn any_bit_gemm_fused_skip(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
) -> (Matrix<i64>, FusedGemmStats) {
    fused_gemm_impl(a, b, true, PopcountBody::detect())
}

/// Run the fused GEMM with skipping on or off, always returning the word
/// accounting.  With `skip_zero_words == false` every K-loop word is visited
/// and the stats report zero skips — the kernel's own count, so callers that
/// toggle skipping (e.g. the BMM cost model) never re-derive the total
/// themselves.
pub fn any_bit_gemm_fused_with_stats(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
) -> (Matrix<i64>, FusedGemmStats) {
    fused_gemm_impl(a, b, skip_zero_words, PopcountBody::detect())
}

/// [`any_bit_gemm_fused_with_stats`] with an explicitly selected popcount
/// body instead of the runtime-detected one.  The backend layer uses this to
/// pin a kernel to one body (e.g. racing portable against AVX-512 on the same
/// host, or forcing the scalar oracle in a differential test).
///
/// # Panics
///
/// Panics if `body` is not available on this host (see
/// [`PopcountBody::is_available`]).
pub fn any_bit_gemm_fused_with_body(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
) -> (Matrix<i64>, FusedGemmStats) {
    assert!(
        body.is_available(),
        "popcount body {body:?} is not available on this host"
    );
    fused_gemm_impl(a, b, skip_zero_words, body)
}

/// Fused GEMM under an explicit [`TilingScheme`], with the fastest body
/// available for that scheme ([`PopcountBody::detect_for`]).
///
/// The baseline scheme routes to the legacy unstaged kernel; every other
/// scheme runs the panel-staged, K-loop double-buffered kernel.  Both are
/// bitwise identical to the portable oracle, and the returned
/// [`FusedGemmStats`] counters are scheme-independent: `total_words` is the
/// arithmetic K-loop trip count and `visited_words` is derived from the same
/// full-lane span index the unstaged kernel uses.
pub fn any_bit_gemm_fused_tiled(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    scheme: TilingScheme,
) -> (Matrix<i64>, FusedGemmStats) {
    any_bit_gemm_fused_with_scheme(
        a,
        b,
        skip_zero_words,
        PopcountBody::detect_for(scheme),
        scheme,
    )
}

/// [`any_bit_gemm_fused_tiled`] with an explicitly selected popcount body —
/// the backend layer's entry point, pinning one body per kernel backend.
///
/// Shapes for which [`takes_narrow_k_route`] holds run the narrow-K kernel
/// whatever the scheme; results and [`FusedGemmStats`] are the same either
/// way.
///
/// # Panics
///
/// Panics if `body` is not available on this host.
pub fn any_bit_gemm_fused_with_scheme(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
    scheme: TilingScheme,
) -> (Matrix<i64>, FusedGemmStats) {
    assert!(
        body.is_available(),
        "popcount body {body:?} is not available on this host"
    );
    #[cfg(target_arch = "x86_64")]
    if takes_narrow_k_route(a, body) {
        return fused_gemm_narrow(a, b, skip_zero_words);
    }
    if scheme.is_baseline() {
        fused_gemm_impl(a, b, skip_zero_words, body)
    } else {
        fused_gemm_staged(a, b, skip_zero_words, body, scheme)
    }
}

/// Fused neighbour aggregation `X_new = A · X`: a 1-bit adjacency stack times an
/// `s`-bit feature stack, semantically identical to
/// [`crate::gemm::aggregate_adj_features`].
pub fn aggregate_adj_features_fused(adj: &StackedBitMatrix, x: &StackedBitMatrix) -> Matrix<i64> {
    assert_eq!(adj.bits(), 1, "adjacency stack must be 1-bit");
    any_bit_gemm_fused(adj, x)
}

/// [`aggregate_adj_features_fused`] with zero-word skipping — the shape the
/// skip index was designed for, since a batched-subgraph adjacency is mostly
/// zero words.
pub fn aggregate_adj_features_fused_skip(
    adj: &StackedBitMatrix,
    x: &StackedBitMatrix,
) -> (Matrix<i64>, FusedGemmStats) {
    assert_eq!(adj.bits(), 1, "adjacency stack must be 1-bit");
    any_bit_gemm_fused_skip(adj, x)
}

/// Shared body of the skipping and non-skipping entry points.
///
/// The two modes run distinct row kernels: the non-skipping path is the
/// original dense micro-kernel (full-lane popcounts, no span indirection, no
/// shared counters — its stats are the arithmetic `rows × planes × pairs`), so
/// enabling the skip machinery costs the dense hot path nothing.
fn fused_gemm_impl(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
) -> (Matrix<i64>, FusedGemmStats) {
    validate_fused_operands(a, b);
    let m = a.rows();
    let n = b.cols();
    let mut out: Matrix<i64> = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return (out, FusedGemmStats::default());
    }
    let words = a.plane(0).words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
    let pairs = words / 2;
    let s = a.planes().len();
    let t = b.planes().len();

    // Widen every B lane once per call: layout [plane][column][pair], so the
    // four lanes of a column block are one contiguous region.
    let mut b_wide = vec![0u64; t * n * pairs];
    for (plane_idx, plane) in b.planes().iter().enumerate() {
        for col in 0..n {
            let base = (plane_idx * n + col) * pairs;
            widen_lane(&mut b_wide[base..base + pairs], &plane.lane(col)[..words]);
        }
    }
    let a_planes = a.planes();
    let total_words = (m * s * pairs) as u64;

    if !skip_zero_words {
        out.data_mut()
            .par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(block, rows)| {
                let row_base = block * ROW_BLOCK;
                // Worker-local scratch: the current row's A lanes, widened.
                let mut a_wide = vec![0u64; s * pairs];
                for (local, out_row) in rows.chunks_mut(n).enumerate() {
                    for (plane_idx, plane) in a_planes.iter().enumerate() {
                        widen_lane(
                            &mut a_wide[plane_idx * pairs..(plane_idx + 1) * pairs],
                            &plane.lane(row_base + local)[..words],
                        );
                    }
                    fused_row_full(&a_wide, s, &b_wide, t, pairs, out_row, body);
                }
            });
        let stats = FusedGemmStats {
            total_words,
            visited_words: total_words,
        };
        return (out, stats);
    }

    let visited_words = AtomicU64::new(0);
    out.data_mut()
        .par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(block, rows)| {
            let row_base = block * ROW_BLOCK;
            // Worker-local scratch: the current row's A lanes, widened, plus
            // the per-plane non-zero span index of those lanes.
            let mut a_wide = vec![0u64; s * pairs];
            let mut spans: Vec<Vec<Span>> = vec![Vec::new(); s];
            let mut visited = 0u64;
            for (local, out_row) in rows.chunks_mut(n).enumerate() {
                for (plane_idx, plane) in a_planes.iter().enumerate() {
                    let lane = &mut a_wide[plane_idx * pairs..(plane_idx + 1) * pairs];
                    widen_lane(lane, &plane.lane(row_base + local)[..words]);
                    visited += nonzero_spans(lane, &mut spans[plane_idx]) as u64;
                }
                fused_row_spans(&a_wide, s, &b_wide, t, pairs, &spans, out_row, body);
            }
            visited_words.fetch_add(visited, Ordering::Relaxed);
        });
    let stats = FusedGemmStats {
        total_words,
        visited_words: visited_words.into_inner(),
    };
    (out, stats)
}

/// Whether [`any_bit_gemm_fused_with_scheme`] serves `a · b` on `body` with
/// the narrow-K kernel: the AVX-512 body and a left operand whose widened K
/// extent is at most [`NARROW_K_WORDS`] words (K ≤ 128 bits).  The portable
/// oracle and the AVX2 body always stay on the scheme's loops.
pub fn takes_narrow_k_route(a: &StackedBitMatrix, body: PopcountBody) -> bool {
    body == PopcountBody::Avx512 && a.plane(0).words_per_lane() / 2 <= NARROW_K_WORDS
}

/// One non-zero widened A word of the current output row, as the narrow-K
/// kernel consumes it.
#[derive(Debug, Clone, Copy, Default)]
struct NarrowWord {
    /// The word itself.
    value: u64,
    /// Its A bit-plane: the base of the `plane_a + plane_b` shift.
    plane_a: usize,
    /// Offset of its K word's column run inside one B plane of the narrow
    /// layout (`word · n8`).
    b_offset: usize,
}

/// The narrow-K kernel behind [`takes_narrow_k_route`].
///
/// B is re-laid out once per call as `[plane_b][word][column]`, columns
/// zero-padded to `n8`, a multiple of eight, so one 512-bit load covers eight
/// output columns of one (B plane, K word).  Per output row, the non-zero
/// widened A words are listed once (zero words are skipped: the word-level
/// zero-tile jump), and each is broadcast, ANDed and `VPOPCNTQ`'d against
/// those loads; the counts are shift-accumulated by `plane_a + plane_b` and
/// each eight-column block is stored once.  No masked loads, no horizontal
/// reductions.
///
/// `visited_words` in skip mode is the number of non-zero widened A words,
/// which is exactly what the span index of the other kernels covers, so the
/// returned [`FusedGemmStats`] equal theirs.  Rows split into blocks of
/// [`NARROW_ROW_BLOCK`] across the pool; a smaller GEMM runs inline.  The
/// only per-call allocation besides the output is the narrow B image,
/// `t · pairs · n8` words: the staged kernel's widened B plus at most seven
/// zero columns, with no per-work-item A or panel scratch.
#[cfg(target_arch = "x86_64")]
fn fused_gemm_narrow(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
) -> (Matrix<i64>, FusedGemmStats) {
    validate_fused_operands(a, b);
    assert!(
        avx512_popcount_available(),
        "the narrow-K kernel needs AVX-512 VPOPCNTDQ"
    );
    let m = a.rows();
    let n = b.cols();
    let mut out: Matrix<i64> = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return (out, FusedGemmStats::default());
    }
    let words = a.plane(0).words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
    let pairs = words / 2;
    assert!(
        pairs <= NARROW_K_WORDS,
        "narrow-K kernel called with {pairs} widened K words"
    );
    let s = a.planes().len();
    let t = b.planes().len();

    let n8 = n.div_ceil(8) * 8;
    let plane_stride = pairs * n8;
    let mut b_narrow = vec![0u64; t * plane_stride];
    for (plane_b, plane) in b.planes().iter().enumerate() {
        for col in 0..n {
            for (w, pair) in plane.lane(col)[..words].chunks_exact(2).enumerate() {
                b_narrow[plane_b * plane_stride + w * n8 + col] =
                    pair[0] as u64 | ((pair[1] as u64) << 32);
            }
        }
    }
    let a_planes = a.planes();
    let b_narrow = &b_narrow;

    // One work item: rows `row_base..` of the output; returns the number of
    // non-zero widened A words it consumed.
    let run = |row_base: usize, rows: &mut [i64]| -> u64 {
        // At most 32 planes × NARROW_K_WORDS words per row.
        let mut nonzero = [NarrowWord::default(); 32 * NARROW_K_WORDS];
        let mut visited = 0u64;
        for (local, out_row) in rows.chunks_mut(n).enumerate() {
            let mut len = 0;
            for (plane_a, plane) in a_planes.iter().enumerate() {
                let lane = &plane.lane(row_base + local)[..words];
                for (w, pair) in lane.chunks_exact(2).enumerate() {
                    let value = pair[0] as u64 | ((pair[1] as u64) << 32);
                    if value != 0 {
                        nonzero[len] = NarrowWord {
                            value,
                            plane_a,
                            b_offset: w * n8,
                        };
                        len += 1;
                    }
                }
            }
            visited += len as u64;
            // SAFETY: `fused_gemm_narrow` asserted AVX-512 VPOPCNTDQ above.
            // `b_narrow` holds `t` planes of `plane_stride = pairs · n8`
            // words, every `b_offset` is `w · n8` with `w < pairs`, `n8` is a
            // multiple of eight, and `out_row.len() == n <= n8`.
            unsafe { narrow_row_avx512(&nonzero[..len], b_narrow, t, plane_stride, out_row) };
        }
        visited
    };
    let visited = if m <= NARROW_ROW_BLOCK {
        run(0, out.data_mut())
    } else {
        let visited = AtomicU64::new(0);
        out.data_mut()
            .par_chunks_mut(NARROW_ROW_BLOCK * n)
            .enumerate()
            .for_each(|(block, rows)| {
                visited.fetch_add(run(block * NARROW_ROW_BLOCK, rows), Ordering::Relaxed);
            });
        visited.into_inner()
    };
    let total_words = (m * s * pairs) as u64;
    let stats = FusedGemmStats {
        total_words,
        visited_words: if skip_zero_words {
            visited
        } else {
            total_words
        },
    };
    (out, stats)
}

/// The panel-staged, K-loop double-buffered kernel behind every non-baseline
/// [`TilingScheme`].
///
/// Work decomposition, mirroring the shared-memory staging of the paper's
/// tensor-core kernel (§4.2) on a cache hierarchy:
///
/// 1. the output is split into blocks of `scheme.row_block` rows (one
///    parallel work item each), and each block's widened A lanes — plus, in
///    skip mode, their full-lane non-zero span index — are materialised once;
/// 2. per `scheme.col_block`-wide column tile, the active K panel of B
///    (`scheme.k_panel_words` widened words of every bit-plane and tile
///    column) is packed into one of **two** reusable scratch buffers;
/// 3. the K loop double-buffers those panels: panel `p + 1` is staged into
///    the idle buffer *before* panel `p` is consumed (a software-pipelined
///    prefetch+copy that lands the next panel in L1/L2 while the current one
///    is hot), then the buffers swap;
/// 4. the consume step walks all rows of the block over the L1-resident
///    panel — two rows at a time, sharing every panel load — and
///    `+=`-accumulates each panel's exact popcount contribution into C.
///
/// Per-panel contributions are exact integers, so any panel split produces
/// bit-identical output; in skip mode the spans are clipped to the panel
/// (the clipped pieces tile each span exactly) and `visited_words` is counted
/// from the *full-lane* index, keeping [`FusedGemmStats`] scheme-independent.
///
/// Skip mode consumes B **in place**: the span walk visits only the sparse
/// non-zero subset of each A lane, so copying whole K panels for it costs
/// more than the locality buys.  The tile/column-quad decomposition and the
/// fused plane-pair micro-kernels are shared with the dense staged path; only
/// the dense path stages and double-buffers physical panels.
fn fused_gemm_staged(
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
    body: PopcountBody,
    scheme: TilingScheme,
) -> (Matrix<i64>, FusedGemmStats) {
    validate_fused_operands(a, b);
    let m = a.rows();
    let n = b.cols();
    let mut out: Matrix<i64> = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return (out, FusedGemmStats::default());
    }
    let words = a.plane(0).words_per_lane();
    debug_assert_eq!(words % 2, 0, "PAD128 guarantees an even word count");
    let pairs = words / 2;
    let s = a.planes().len();
    let t = b.planes().len();
    let row_block = scheme.row_block.max(1);
    let col_block = scheme.col_block.max(1);
    // A K-panel of 0 (or anything past the lane end) is the whole K extent.
    let k_panel = match scheme.k_panel_words {
        0 => pairs,
        kp => kp.min(pairs),
    };
    let num_panels = pairs.div_ceil(k_panel);

    // Widen every B lane once per call, exactly like the unstaged kernel:
    // layout [plane][column][pair].  Panels are cut out of this buffer.
    let mut b_wide = vec![0u64; t * n * pairs];
    for (plane_idx, plane) in b.planes().iter().enumerate() {
        for col in 0..n {
            let base = (plane_idx * n + col) * pairs;
            widen_lane(&mut b_wide[base..base + pairs], &plane.lane(col)[..words]);
        }
    }
    let a_planes = a.planes();
    let total_words = (m * s * pairs) as u64;
    let visited_words = AtomicU64::new(0);

    out.data_mut()
        .par_chunks_mut(row_block * n)
        .enumerate()
        .for_each(|(block, rows)| {
            let row_base = block * row_block;
            let rows_here = rows.len() / n;
            // Worker-local scratch: all of the block's A lanes, widened, so
            // every staged panel is reused across the whole row block.
            let mut a_wide = vec![0u64; rows_here * s * pairs];
            for local in 0..rows_here {
                for (plane_idx, plane) in a_planes.iter().enumerate() {
                    widen_lane(
                        &mut a_wide[(local * s + plane_idx) * pairs..][..pairs],
                        &plane.lane(row_base + local)[..words],
                    );
                }
            }
            if skip_zero_words {
                let mut spans = vec![Vec::new(); rows_here * s];
                let mut visited = 0u64;
                for (lane_idx, lane_spans) in spans.iter_mut().enumerate() {
                    let lane = &a_wide[lane_idx * pairs..][..pairs];
                    visited += nonzero_spans(lane, lane_spans) as u64;
                }
                visited_words.fetch_add(visited, Ordering::Relaxed);
                // In-place consumption: each tile's "panel" is a strided view
                // of the widened B buffer covering the whole K extent.
                let mut col = 0;
                while col < n {
                    let tile_cols = col_block.min(n - col);
                    consume_panel(
                        rows,
                        n,
                        col,
                        tile_cols,
                        &b_wide[col * pairs..],
                        pairs,
                        n * pairs,
                        0,
                        pairs,
                        &a_wide,
                        s,
                        t,
                        pairs,
                        Some(&spans),
                        body,
                    );
                    col += tile_cols;
                }
                return;
            }
            // Double-buffered panel scratch: [plane][tile column][panel word],
            // each lane `k_panel` words apart regardless of the tail length.
            let mut front = vec![0u64; t * col_block * k_panel];
            let mut back = vec![0u64; t * col_block * k_panel];
            let (mut cur, mut next) = (&mut front, &mut back);
            let mut col = 0;
            while col < n {
                let tile_cols = col_block.min(n - col);
                stage_panel(&b_wide, n, pairs, t, col, tile_cols, 0, k_panel, cur);
                for p in 0..num_panels {
                    // Software pipeline: land panel p+1 in cache while the
                    // micro-kernel still has panel p hot.
                    if p + 1 < num_panels {
                        stage_panel(&b_wide, n, pairs, t, col, tile_cols, p + 1, k_panel, next);
                    }
                    let p_start = p * k_panel;
                    let p_len = k_panel.min(pairs - p_start);
                    consume_panel(
                        rows,
                        n,
                        col,
                        tile_cols,
                        cur,
                        k_panel,
                        tile_cols * k_panel,
                        p_start,
                        p_len,
                        &a_wide,
                        s,
                        t,
                        pairs,
                        None,
                        body,
                    );
                    std::mem::swap(&mut cur, &mut next);
                }
                col += tile_cols;
            }
        });

    let stats = FusedGemmStats {
        total_words,
        visited_words: if skip_zero_words {
            visited_words.into_inner()
        } else {
            total_words
        },
    };
    (out, stats)
}

/// Pack K panel `p_idx` of a `tile_cols`-wide column tile (every B bit-plane)
/// from the widened B buffer into a staging buffer: layout
/// `[plane][tile column][panel word]`, lanes `k_panel` words apart.
#[allow(clippy::too_many_arguments)]
fn stage_panel(
    b_wide: &[u64],
    n: usize,
    pairs: usize,
    t: usize,
    col0: usize,
    tile_cols: usize,
    p_idx: usize,
    k_panel: usize,
    dst: &mut [u64],
) {
    let p_start = p_idx * k_panel;
    let p_len = k_panel.min(pairs - p_start);
    for plane_b in 0..t {
        for c in 0..tile_cols {
            let src = &b_wide[(plane_b * n + col0 + c) * pairs + p_start..][..p_len];
            dst[(plane_b * tile_cols + c) * k_panel..][..p_len].copy_from_slice(src);
        }
    }
}

/// Consume one panel of a column tile: accumulate its exact popcount
/// contribution for every (row of the block, tile column, plane pair) into
/// the output rows.  The panel is addressed generically — `b_panel` holds
/// the tile's first column lane, columns `b_col_stride` words apart and B
/// planes `b_plane_stride` words apart — so the same walk serves a physically
/// staged panel (dense mode) and an in-place strided view of the widened B
/// buffer (skip mode).
///
/// Rows are walked two at a time so each panel load feeds two accumulator
/// sets, and the whole `s × t` plane-pair reduction of one (row, column)
/// happens inside a single fused micro-kernel call ([`panel_accum2`] /
/// [`panel_span_accum4`] / [`panel_span_accum`]): the vector bodies
/// shift-accumulate in the vector domain and run one horizontal reduction per
/// row and column (per column quad in skip mode), instead of one per plane
/// pair.  In skip mode the full-lane spans are clipped to the panel window.
#[allow(clippy::too_many_arguments)]
fn consume_panel(
    rows: &mut [i64],
    n: usize,
    col0: usize,
    tile_cols: usize,
    b_panel: &[u64],
    b_col_stride: usize,
    b_plane_stride: usize,
    p_start: usize,
    p_len: usize,
    a_wide: &[u64],
    s: usize,
    t: usize,
    pairs: usize,
    spans: Option<&[Vec<Span>]>,
    body: PopcountBody,
) {
    let rows_here = rows.len() / n;
    let b_stride = b_plane_stride;
    let mut local = 0;
    while local + 2 <= rows_here {
        let (head, tail) = rows.split_at_mut((local + 1) * n);
        let row0 = &mut head[local * n..];
        let row1 = &mut tail[..n];
        let a0 = &a_wide[local * s * pairs..][..s * pairs];
        let a1 = &a_wide[(local + 1) * s * pairs..][..s * pairs];
        match spans {
            None => {
                for c in 0..tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    let (tot0, tot1) =
                        panel_accum2(body, a0, a1, s, pairs, p_start, b_col, t, b_stride, p_len);
                    row0[col0 + c] += tot0;
                    row1[col0 + c] += tot1;
                }
            }
            Some(spans) => {
                let sp0 = &spans[local * s..][..s];
                let sp1 = &spans[(local + 1) * s..][..s];
                let mut c = 0;
                while c + 4 <= tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    let t0 = panel_span_accum4(
                        body,
                        a0,
                        sp0,
                        s,
                        pairs,
                        b_col,
                        t,
                        b_stride,
                        b_col_stride,
                        p_start,
                        p_len,
                    );
                    let t1 = panel_span_accum4(
                        body,
                        a1,
                        sp1,
                        s,
                        pairs,
                        b_col,
                        t,
                        b_stride,
                        b_col_stride,
                        p_start,
                        p_len,
                    );
                    for j in 0..4 {
                        row0[col0 + c + j] += t0[j];
                        row1[col0 + c + j] += t1[j];
                    }
                    c += 4;
                }
                while c < tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    row0[col0 + c] += panel_span_accum(
                        body, a0, sp0, s, pairs, b_col, t, b_stride, p_start, p_len,
                    );
                    row1[col0 + c] += panel_span_accum(
                        body, a1, sp1, s, pairs, b_col, t, b_stride, p_start, p_len,
                    );
                    c += 1;
                }
            }
        }
        local += 2;
    }
    if local < rows_here {
        let row = &mut rows[local * n..(local + 1) * n];
        let a0 = &a_wide[local * s * pairs..][..s * pairs];
        match spans {
            None => {
                for c in 0..tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    // Remainder row: run the pair kernel against itself and
                    // keep one total — exact, and only 1-of-`row_block` rows
                    // ever takes this path.
                    let (tot, _) =
                        panel_accum2(body, a0, a0, s, pairs, p_start, b_col, t, b_stride, p_len);
                    row[col0 + c] += tot;
                }
            }
            Some(spans) => {
                let sp0 = &spans[local * s..][..s];
                let mut c = 0;
                while c + 4 <= tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    let tots = panel_span_accum4(
                        body,
                        a0,
                        sp0,
                        s,
                        pairs,
                        b_col,
                        t,
                        b_stride,
                        b_col_stride,
                        p_start,
                        p_len,
                    );
                    for j in 0..4 {
                        row[col0 + c + j] += tots[j];
                    }
                    c += 4;
                }
                while c < tile_cols {
                    let b_col = &b_panel[c * b_col_stride..];
                    row[col0 + c] += panel_span_accum(
                        body, a0, sp0, s, pairs, b_col, t, b_stride, p_start, p_len,
                    );
                    c += 1;
                }
            }
        }
    }
}

/// Popcount of `a ∧ b` restricted to the non-zero spans of the full A lane,
/// clipped to the panel window `[p_start, p_start + p_len)`.  The clipped
/// pieces tile each span exactly, so summing over panels reproduces the
/// unclipped count bit for bit.
fn panel_popcount_spans(
    body: PopcountBody,
    a_full: &[u64],
    b_lane: &[u64],
    spans: &[Span],
    p_start: usize,
    p_len: usize,
) -> u64 {
    let p_end = p_start + p_len;
    let mut count = 0u64;
    for &(start, len) in spans {
        if start >= p_end {
            break;
        }
        let lo = start.max(p_start);
        let hi = (start + len).min(p_end);
        if lo < hi {
            count += panel_popcount1(body, &a_full[lo..hi], &b_lane[lo - p_start..hi - p_start]);
        }
    }
    count
}

/// Carry-save adder: one full-adder layer over three bit columns.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Exact popcount of eight words via a carry-save reduction: the CSA tree
/// compresses the eight bit columns into `ones + 2·twos + 4·(f0 + f1)`, so
/// only four `count_ones` expansions run instead of eight.
#[inline(always)]
fn csa8_count(w: &[u64; 8]) -> u64 {
    let (o1, t0) = csa(w[0], w[1], w[2]);
    let (o2, t1) = csa(o1, w[3], w[4]);
    let (o3, t2) = csa(o2, w[5], w[6]);
    let ones = o3 ^ w[7];
    let t3 = o3 & w[7];
    let (tw, f0) = csa(t0, t1, t2);
    let twos = tw ^ t3;
    let f1 = tw & t3;
    u64::from(ones.count_ones())
        + 2 * u64::from(twos.count_ones())
        + 4 * (u64::from(f0.count_ones()) + u64::from(f1.count_ones()))
}

/// Staged micro-kernel: popcount of `a ∧ b` over one panel segment.
#[inline]
fn panel_popcount1(body: PopcountBody, a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: availability was verified by the body-selecting entry points.
        PopcountBody::Avx512 => return unsafe { panel_popcount1_avx512(a, b) },
        PopcountBody::Avx2 => return unsafe { panel_popcount1_avx2(a, b) },
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    panel_popcount1_portable(a, b)
}

/// Fused staged micro-kernel, row-paired: the complete `s × t` plane-pair
/// contribution of one (row pair, tile column, K panel), shift-accumulated
/// into one integer per row.  `a0` / `a1` hold each row's `s` widened lanes
/// back to back (lane stride `pairs`, panel window
/// `[p_start, p_start + p_len)`); `b` holds the tile column's `t` staged
/// panel lanes at stride `b_stride`.  The vector bodies shift each popcount
/// by `plane_a + plane_b` *in the vector domain* and reduce horizontally only
/// once per row — integer shift-add is exact in any association order, so
/// every body is bitwise identical to the portable per-pair reference.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn panel_accum2(
    body: PopcountBody,
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: availability was verified by the body-selecting entry points.
        PopcountBody::Avx512 => {
            return unsafe { panel_accum2_avx512(a0, a1, s, pairs, p_start, b, t, b_stride, p_len) }
        }
        PopcountBody::Avx2 => {
            return unsafe { panel_accum2_avx2(a0, a1, s, pairs, p_start, b, t, b_stride, p_len) }
        }
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    panel_accum2_portable(a0, a1, s, pairs, p_start, b, t, b_stride, p_len)
}

/// Portable fused staged body: the per-pair reference every vector body must
/// reproduce bitwise.
#[allow(clippy::too_many_arguments)]
fn panel_accum2_portable(
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    let mut tot0 = 0i64;
    let mut tot1 = 0i64;
    for plane_b in 0..t {
        let b_lane = &b[plane_b * b_stride..][..p_len];
        for plane_a in 0..s {
            let seg = plane_a * pairs + p_start;
            let (c0, c1) =
                panel_popcount2_portable(&a0[seg..][..p_len], &a1[seg..][..p_len], b_lane);
            let shift = (plane_a + plane_b) as u32;
            tot0 += (c0 as i64) << shift;
            tot1 += (c1 as i64) << shift;
        }
    }
    (tot0, tot1)
}

/// Fused staged micro-kernel for the skip path: one row's complete `s × t`
/// plane-pair contribution over its non-zero spans clipped to the panel
/// window, shift-accumulated with at most one horizontal reduction per call.
/// `spans` is the row's per-A-plane full-lane span index.
#[allow(clippy::too_many_arguments)]
#[inline]
fn panel_span_accum(
    body: PopcountBody,
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_start: usize,
    p_len: usize,
) -> i64 {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: availability was verified by the body-selecting entry points.
        PopcountBody::Avx512 => {
            return unsafe {
                panel_span_accum_avx512(a, spans, s, pairs, b, t, b_stride, p_start, p_len)
            }
        }
        PopcountBody::Avx2 => {
            return unsafe {
                panel_span_accum_avx2(a, spans, s, pairs, b, t, b_stride, p_start, p_len)
            }
        }
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    panel_span_accum_portable(a, spans, s, pairs, b, t, b_stride, p_start, p_len)
}

/// [`panel_span_accum`] over four adjacent tile columns at once: one span
/// walk feeds four accumulators (the column lanes sit `col_stride` words
/// apart in the staged panel), mirroring the four-column amortisation of the
/// legacy span kernel while keeping the single-reduction plane-pair fusion.
#[allow(clippy::too_many_arguments)]
#[inline]
fn panel_span_accum4(
    body: PopcountBody,
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    col_stride: usize,
    p_start: usize,
    p_len: usize,
) -> [i64; 4] {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: availability was verified by the body-selecting entry points.
        PopcountBody::Avx512 => {
            return unsafe {
                panel_span_accum4_avx512(
                    a, spans, s, pairs, b, t, b_stride, col_stride, p_start, p_len,
                )
            }
        }
        PopcountBody::Avx2 => {
            return unsafe {
                panel_span_accum4_avx2(
                    a, spans, s, pairs, b, t, b_stride, col_stride, p_start, p_len,
                )
            }
        }
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    std::array::from_fn(|j| {
        panel_span_accum_portable(
            a,
            spans,
            s,
            pairs,
            &b[j * col_stride..],
            t,
            b_stride,
            p_start,
            p_len,
        )
    })
}

/// Portable fused skip body: the per-pair span-walking reference.
#[allow(clippy::too_many_arguments)]
fn panel_span_accum_portable(
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_start: usize,
    p_len: usize,
) -> i64 {
    let mut tot = 0i64;
    for plane_b in 0..t {
        let b_lane = &b[plane_b * b_stride..][..p_len];
        for plane_a in 0..s {
            let a_lane = &a[plane_a * pairs..][..pairs];
            let count = panel_popcount_spans(
                PopcountBody::Portable,
                a_lane,
                b_lane,
                &spans[plane_a],
                p_start,
                p_len,
            );
            tot += (count as i64) << (plane_a + plane_b);
        }
    }
    tot
}

/// Portable staged body: CSA-compressed popcount over eight-word chunks,
/// scalar `count_ones` tail.
fn panel_popcount1_portable(a: &[u64], b: &[u64]) -> u64 {
    let mut count = 0u64;
    let mut i = 0;
    while i + 8 <= a.len() {
        let mut w = [0u64; 8];
        for (j, slot) in w.iter_mut().enumerate() {
            *slot = a[i + j] & b[i + j];
        }
        count += csa8_count(&w);
        i += 8;
    }
    while i < a.len() {
        count += u64::from((a[i] & b[i]).count_ones());
        i += 1;
    }
    count
}

/// Portable staged body, row-paired.
fn panel_popcount2_portable(a0: &[u64], a1: &[u64], b: &[u64]) -> (u64, u64) {
    let mut count0 = 0u64;
    let mut count1 = 0u64;
    let mut i = 0;
    while i + 8 <= b.len() {
        let mut w0 = [0u64; 8];
        let mut w1 = [0u64; 8];
        for j in 0..8 {
            let bw = b[i + j];
            w0[j] = a0[i + j] & bw;
            w1[j] = a1[i + j] & bw;
        }
        count0 += csa8_count(&w0);
        count1 += csa8_count(&w1);
        i += 8;
    }
    while i < b.len() {
        let bw = b[i];
        count0 += u64::from((a0[i] & bw).count_ones());
        count1 += u64::from((a1[i] & bw).count_ones());
        i += 1;
    }
    (count0, count1)
}

/// Collect the maximal runs of non-zero words of one widened lane into `spans`
/// (reusing its allocation).  Returns the number of covered (non-zero) words.
#[inline]
fn nonzero_spans(lane: &[u64], spans: &mut Vec<Span>) -> usize {
    spans.clear();
    let mut covered = 0usize;
    let mut idx = 0usize;
    while idx < lane.len() {
        if lane[idx] == 0 {
            idx += 1;
            continue;
        }
        let start = idx;
        while idx < lane.len() && lane[idx] != 0 {
            idx += 1;
        }
        spans.push((start, idx - start));
        covered += idx - start;
    }
    covered
}

/// Check layouts and inner dimensions, matching the single-plane BMM contract.
fn validate_fused_operands(a: &StackedBitMatrix, b: &StackedBitMatrix) {
    assert_eq!(
        a.layout(),
        BitMatrixLayout::RowPacked,
        "left fused operand must be row-packed (column-wise compression)"
    );
    assert_eq!(
        b.layout(),
        BitMatrixLayout::ColPacked,
        "right fused operand must be column-packed (row-wise compression)"
    );
    assert_eq!(
        a.cols(),
        b.rows(),
        "fused GEMM inner dimensions differ: {} vs {}",
        a.cols(),
        b.rows()
    );
}

/// Widen a packed `u32` lane into `u64` values, one per `chunks_exact(2)` pair
/// (little-endian: the first word becomes the low half).
#[inline]
fn widen_lane(dst: &mut [u64], src: &[u32]) {
    for (wide, pair) in dst.iter_mut().zip(src.chunks_exact(2)) {
        *wide = pair[0] as u64 | ((pair[1] as u64) << 32);
    }
}

/// Compute one output row with no skip index: all plane pairs over the full
/// lanes, shift-accumulated in registers, stored exactly once per element.
/// `a_wide` holds the row's `s` widened A lanes back to back; `b_wide` holds
/// all `t · n` widened B lanes.  This is the dense hot path — it must stay
/// free of span indirection.
fn fused_row_full(
    a_wide: &[u64],
    s: usize,
    b_wide: &[u64],
    t: usize,
    pairs: usize,
    out_row: &mut [i64],
    body: PopcountBody,
) {
    let n = out_row.len();
    let mut col = 0;
    while col + COL_BLOCK <= n {
        let mut totals = [0i64; COL_BLOCK];
        for plane_b in 0..t {
            let base = (plane_b * n + col) * pairs;
            let b_block = &b_wide[base..base + COL_BLOCK * pairs];
            let (b0, rest) = b_block.split_at(pairs);
            let (b1, rest) = rest.split_at(pairs);
            let (b2, b3) = rest.split_at(pairs);
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let counts = popcount4(body, a_lane, b0, b1, b2, b3);
                let shift = (plane_a + plane_b) as u32;
                for (total, &count) in totals.iter_mut().zip(counts.iter()) {
                    *total += (count as i64) << shift;
                }
            }
        }
        out_row[col..col + COL_BLOCK].copy_from_slice(&totals);
        col += COL_BLOCK;
    }
    // Column remainder (n mod COL_BLOCK): scalar micro-kernel, same reduction.
    for (j_col, slot) in out_row.iter_mut().enumerate().skip(col) {
        let mut total = 0i64;
        for plane_b in 0..t {
            let base = (plane_b * n + j_col) * pairs;
            let b_lane = &b_wide[base..base + pairs];
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let count: u64 = a_lane
                    .iter()
                    .zip(b_lane.iter())
                    .map(|(&x, &y)| u64::from((x & y).count_ones()))
                    .sum();
                total += (count as i64) << (plane_a + plane_b);
            }
        }
        *slot = total;
    }
}

/// [`fused_row_full`] with a zero-word skip index: `spans` holds, per A plane,
/// the non-zero word runs the K loop must visit; everything outside a span is
/// all-zero A words and contributes nothing to any AND+popcount.
#[allow(clippy::too_many_arguments)]
fn fused_row_spans(
    a_wide: &[u64],
    s: usize,
    b_wide: &[u64],
    t: usize,
    pairs: usize,
    spans: &[Vec<Span>],
    out_row: &mut [i64],
    body: PopcountBody,
) {
    let n = out_row.len();
    let mut col = 0;
    while col + COL_BLOCK <= n {
        let mut totals = [0i64; COL_BLOCK];
        for plane_b in 0..t {
            let base = (plane_b * n + col) * pairs;
            let b_block = &b_wide[base..base + COL_BLOCK * pairs];
            let (b0, rest) = b_block.split_at(pairs);
            let (b1, rest) = rest.split_at(pairs);
            let (b2, b3) = rest.split_at(pairs);
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let mut counts = [0u64; COL_BLOCK];
                for &(start, len) in &spans[plane_a] {
                    let end = start + len;
                    let span_counts = popcount4(
                        body,
                        &a_lane[start..end],
                        &b0[start..end],
                        &b1[start..end],
                        &b2[start..end],
                        &b3[start..end],
                    );
                    for (count, span_count) in counts.iter_mut().zip(span_counts.iter()) {
                        *count += span_count;
                    }
                }
                let shift = (plane_a + plane_b) as u32;
                for (total, &count) in totals.iter_mut().zip(counts.iter()) {
                    *total += (count as i64) << shift;
                }
            }
        }
        out_row[col..col + COL_BLOCK].copy_from_slice(&totals);
        col += COL_BLOCK;
    }
    // Column remainder (n mod COL_BLOCK): scalar micro-kernel, same reduction.
    for (j_col, slot) in out_row.iter_mut().enumerate().skip(col) {
        let mut total = 0i64;
        for plane_b in 0..t {
            let base = (plane_b * n + j_col) * pairs;
            let b_lane = &b_wide[base..base + pairs];
            for plane_a in 0..s {
                let a_lane = &a_wide[plane_a * pairs..(plane_a + 1) * pairs];
                let mut count = 0u64;
                for &(start, len) in &spans[plane_a] {
                    count += a_lane[start..start + len]
                        .iter()
                        .zip(b_lane[start..start + len].iter())
                        .map(|(&x, &y)| u64::from((x & y).count_ones()))
                        .sum::<u64>();
                }
                total += (count as i64) << (plane_a + plane_b);
            }
        }
        *slot = total;
    }
}

/// AND + popcount of one widened A lane against four widened B lanes: four
/// independent accumulator chains, one A load per step.  Runs the selected
/// [`PopcountBody`]; callers must only pass an available body (the public
/// entry points guarantee this via `detect()` / `is_available()`).
#[inline]
fn popcount4(
    body: PopcountBody,
    a: &[u64],
    b0: &[u64],
    b1: &[u64],
    b2: &[u64],
    b3: &[u64],
) -> [u64; COL_BLOCK] {
    #[cfg(target_arch = "x86_64")]
    match body {
        // SAFETY: the required target features were verified at runtime by
        // the availability checks on every body-selecting entry point.
        PopcountBody::Avx512 => return unsafe { popcount4_avx512(a, b0, b1, b2, b3) },
        PopcountBody::Avx2 => return unsafe { popcount4_avx2(a, b0, b1, b2, b3) },
        PopcountBody::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = body;
    popcount4_portable(a, b0, b1, b2, b3)
}

/// Portable micro-kernel body (also the tail loop of the AVX-512 body).
#[inline]
fn popcount4_portable(a: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for ((((&aw, &w0), &w1), &w2), &w3) in a
        .iter()
        .zip(b0.iter())
        .zip(b1.iter())
        .zip(b2.iter())
        .zip(b3.iter())
    {
        counts[0] += u64::from((aw & w0).count_ones());
        counts[1] += u64::from((aw & w1).count_ones());
        counts[2] += u64::from((aw & w2).count_ones());
        counts[3] += u64::from((aw & w3).count_ones());
    }
    counts
}

/// One-time runtime probe for the AVX-512 vector-popcount micro-kernel.
#[cfg(target_arch = "x86_64")]
pub fn avx512_popcount_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    })
}

/// One-time runtime probe for the AVX-512 vector-popcount micro-kernel.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_popcount_available() -> bool {
    false
}

/// One-time runtime probe for the AVX2 nibble-LUT popcount micro-kernel.
#[cfg(target_arch = "x86_64")]
pub fn avx2_popcount_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// One-time runtime probe for the AVX2 nibble-LUT popcount micro-kernel.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_popcount_available() -> bool {
    false
}

/// AVX-512 micro-kernel body: 512 bits (eight widened words) of all four
/// columns per step via `VPOPCNTQ`, vector accumulators reduced once at the
/// end, portable tail for the last `pairs % 8` words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcount4_avx512(a: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u64; 4] {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512,
    };
    const LANES: usize = 8;
    let steps = a.len() / LANES;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let mut acc2 = _mm512_setzero_si512();
    let mut acc3 = _mm512_setzero_si512();
    for step in 0..steps {
        let offset = step * LANES;
        let av = _mm512_loadu_si512(a.as_ptr().add(offset).cast());
        let v0 = _mm512_loadu_si512(b0.as_ptr().add(offset).cast());
        let v1 = _mm512_loadu_si512(b1.as_ptr().add(offset).cast());
        let v2 = _mm512_loadu_si512(b2.as_ptr().add(offset).cast());
        let v3 = _mm512_loadu_si512(b3.as_ptr().add(offset).cast());
        acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(_mm512_and_si512(av, v0)));
        acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(_mm512_and_si512(av, v1)));
        acc2 = _mm512_add_epi64(acc2, _mm512_popcnt_epi64(_mm512_and_si512(av, v2)));
        acc3 = _mm512_add_epi64(acc3, _mm512_popcnt_epi64(_mm512_and_si512(av, v3)));
    }
    let done = steps * LANES;
    let tail = popcount4_portable(
        &a[done..],
        &b0[done..],
        &b1[done..],
        &b2[done..],
        &b3[done..],
    );
    [
        _mm512_reduce_add_epi64(acc0) as u64 + tail[0],
        _mm512_reduce_add_epi64(acc1) as u64 + tail[1],
        _mm512_reduce_add_epi64(acc2) as u64 + tail[2],
        _mm512_reduce_add_epi64(acc3) as u64 + tail[3],
    ]
}

/// Per-64-bit-lane popcount of a 256-bit vector: the Muła nibble-LUT kernel
/// (`PSHUFB` against a 16-entry table for each nibble half, byte sums folded
/// per lane with `PSADBW`).  Exact for every input.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn mula_popcount64x4(
    v: std::arch::x86_64::__m256i,
    lut: std::arch::x86_64::__m256i,
    low_mask: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::{
        _mm256_add_epi8, _mm256_and_si256, _mm256_sad_epu8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi32,
    };
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
    let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(counts, _mm256_setzero_si256())
}

/// The nibble-LUT table (popcount of 0..=15 in both 128-bit halves) and the
/// low-nibble mask the Muła kernel shuffles against.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn mula_constants() -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::{_mm256_set1_epi8, _mm256_setr_epi8};
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    (lut, _mm256_set1_epi8(0x0f))
}

/// Horizontal sum of the four `u64` lanes of a 256-bit accumulator.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hsum_epi64x4(v: std::arch::x86_64::__m256i) -> u64 {
    use std::arch::x86_64::_mm256_storeu_si256;
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
    lanes[0]
        .wrapping_add(lanes[1])
        .wrapping_add(lanes[2])
        .wrapping_add(lanes[3])
}

/// AVX2 legacy micro-kernel body: the Muła nibble popcount over four widened
/// words of all four columns per step, portable tail.  Bitwise identical to
/// [`popcount4_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn popcount4_avx2(a: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u64; 4] {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_loadu_si256, _mm256_setzero_si256,
    };
    const LANES: usize = 4;
    let (lut, low_mask) = mula_constants();
    let steps = a.len() / LANES;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut acc2 = _mm256_setzero_si256();
    let mut acc3 = _mm256_setzero_si256();
    for step in 0..steps {
        let offset = step * LANES;
        let av = _mm256_loadu_si256(a.as_ptr().add(offset).cast());
        let v0 = _mm256_loadu_si256(b0.as_ptr().add(offset).cast());
        let v1 = _mm256_loadu_si256(b1.as_ptr().add(offset).cast());
        let v2 = _mm256_loadu_si256(b2.as_ptr().add(offset).cast());
        let v3 = _mm256_loadu_si256(b3.as_ptr().add(offset).cast());
        acc0 = _mm256_add_epi64(
            acc0,
            mula_popcount64x4(_mm256_and_si256(av, v0), lut, low_mask),
        );
        acc1 = _mm256_add_epi64(
            acc1,
            mula_popcount64x4(_mm256_and_si256(av, v1), lut, low_mask),
        );
        acc2 = _mm256_add_epi64(
            acc2,
            mula_popcount64x4(_mm256_and_si256(av, v2), lut, low_mask),
        );
        acc3 = _mm256_add_epi64(
            acc3,
            mula_popcount64x4(_mm256_and_si256(av, v3), lut, low_mask),
        );
    }
    let done = steps * LANES;
    let tail = popcount4_portable(
        &a[done..],
        &b0[done..],
        &b1[done..],
        &b2[done..],
        &b3[done..],
    );
    [
        hsum_epi64x4(acc0) + tail[0],
        hsum_epi64x4(acc1) + tail[1],
        hsum_epi64x4(acc2) + tail[2],
        hsum_epi64x4(acc3) + tail[3],
    ]
}

/// AVX2 staged body: Muła nibble popcount over four-word steps of one panel
/// segment, portable tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_popcount1_avx2(a: &[u64], b: &[u64]) -> u64 {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_loadu_si256, _mm256_setzero_si256,
    };
    const LANES: usize = 4;
    let (lut, low_mask) = mula_constants();
    let steps = a.len() / LANES;
    let mut acc = _mm256_setzero_si256();
    for step in 0..steps {
        let offset = step * LANES;
        let av = _mm256_loadu_si256(a.as_ptr().add(offset).cast());
        let bv = _mm256_loadu_si256(b.as_ptr().add(offset).cast());
        acc = _mm256_add_epi64(
            acc,
            mula_popcount64x4(_mm256_and_si256(av, bv), lut, low_mask),
        );
    }
    let done = steps * LANES;
    let mut count = hsum_epi64x4(acc);
    for i in done..a.len() {
        count += u64::from((a[i] & b[i]).count_ones());
    }
    count
}

/// AVX2 fused staged body: the Muła per-lane popcounts of every plane pair
/// are shifted by `plane_a + plane_b` in the vector domain
/// (`_mm256_sll_epi64`) and gathered into one accumulator per row, so the
/// horizontal reduction runs once per (row, column) instead of once per
/// plane pair.  The last `p_len % 4` words run as one masked vector step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_accum2_avx2(
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_maskload_epi64, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_sll_epi64, _mm_cvtsi64_si128,
    };
    const LANES: usize = 4;
    let (lut, low_mask) = mula_constants();
    let steps = p_len / LANES;
    let done = steps * LANES;
    let rem = p_len - done;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    for plane_a in 0..s {
        let seg = plane_a * pairs + p_start;
        let a0_seg = &a0[seg..][..p_len];
        let a1_seg = &a1[seg..][..p_len];
        for step in 0..steps {
            let off = step * LANES;
            let av0 = _mm256_loadu_si256(a0_seg.as_ptr().add(off).cast());
            let av1 = _mm256_loadu_si256(a1_seg.as_ptr().add(off).cast());
            for plane_b in 0..t {
                let bv = _mm256_loadu_si256(b.as_ptr().add(plane_b * b_stride + off).cast());
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = mula_popcount64x4(_mm256_and_si256(av0, bv), lut, low_mask);
                let p1 = mula_popcount64x4(_mm256_and_si256(av1, bv), lut, low_mask);
                acc0 = _mm256_add_epi64(acc0, _mm256_sll_epi64(p0, shift));
                acc1 = _mm256_add_epi64(acc1, _mm256_sll_epi64(p1, shift));
            }
        }
        // Tail words (and whole sub-vector panels — e.g. narrow-K shapes
        // whose widened lanes are shorter than a vector): one masked step.
        // Masked-off lanes load as zero, so their popcount contribution is
        // exactly zero.
        if rem > 0 {
            let mask = _mm256_cmpgt_epi64(
                _mm256_set1_epi64x(rem as i64),
                _mm256_setr_epi64x(0, 1, 2, 3),
            );
            let av0 = _mm256_maskload_epi64(a0_seg.as_ptr().add(done).cast(), mask);
            let av1 = _mm256_maskload_epi64(a1_seg.as_ptr().add(done).cast(), mask);
            for plane_b in 0..t {
                let bv =
                    _mm256_maskload_epi64(b.as_ptr().add(plane_b * b_stride + done).cast(), mask);
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = mula_popcount64x4(_mm256_and_si256(av0, bv), lut, low_mask);
                let p1 = mula_popcount64x4(_mm256_and_si256(av1, bv), lut, low_mask);
                acc0 = _mm256_add_epi64(acc0, _mm256_sll_epi64(p0, shift));
                acc1 = _mm256_add_epi64(acc1, _mm256_sll_epi64(p1, shift));
            }
        }
    }
    (hsum_epi64x4(acc0) as i64, hsum_epi64x4(acc1) as i64)
}

/// AVX2 fused skip body over four adjacent tile columns: one span walk per
/// column quad, four vector accumulators, four horizontal reductions per
/// call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_span_accum4_avx2(
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    col_stride: usize,
    p_start: usize,
    p_len: usize,
) -> [i64; 4] {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_maskload_epi64, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_sll_epi64, _mm_cvtsi64_si128,
    };
    const LANES: usize = 4;
    let (lut, low_mask) = mula_constants();
    let p_end = p_start + p_len;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut acc2 = _mm256_setzero_si256();
    let mut acc3 = _mm256_setzero_si256();
    let mut used = false;
    let mut tot = [0i64; 4];
    for plane_a in 0..s {
        let a_lane = &a[plane_a * pairs..][..pairs];
        for &(start, len) in &spans[plane_a] {
            if start >= p_end {
                break;
            }
            let lo = start.max(p_start);
            let hi = (start + len).min(p_end);
            if lo >= hi {
                continue;
            }
            let a_seg = &a_lane[lo..hi];
            let b_off = lo - p_start;
            let seg_len = hi - lo;
            let steps = seg_len / LANES;
            let done = steps * LANES;
            used |= steps > 0;
            for step in 0..steps {
                let off = step * LANES;
                let av = _mm256_loadu_si256(a_seg.as_ptr().add(off).cast());
                for plane_b in 0..t {
                    let base = plane_b * b_stride + b_off + off;
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let bv0 = _mm256_loadu_si256(b.as_ptr().add(base).cast());
                    let bv1 = _mm256_loadu_si256(b.as_ptr().add(base + col_stride).cast());
                    let bv2 = _mm256_loadu_si256(b.as_ptr().add(base + 2 * col_stride).cast());
                    let bv3 = _mm256_loadu_si256(b.as_ptr().add(base + 3 * col_stride).cast());
                    let p0 = mula_popcount64x4(_mm256_and_si256(av, bv0), lut, low_mask);
                    let p1 = mula_popcount64x4(_mm256_and_si256(av, bv1), lut, low_mask);
                    let p2 = mula_popcount64x4(_mm256_and_si256(av, bv2), lut, low_mask);
                    let p3 = mula_popcount64x4(_mm256_and_si256(av, bv3), lut, low_mask);
                    acc0 = _mm256_add_epi64(acc0, _mm256_sll_epi64(p0, shift));
                    acc1 = _mm256_add_epi64(acc1, _mm256_sll_epi64(p1, shift));
                    acc2 = _mm256_add_epi64(acc2, _mm256_sll_epi64(p2, shift));
                    acc3 = _mm256_add_epi64(acc3, _mm256_sll_epi64(p3, shift));
                }
            }
            // Tail words (and whole sub-vector spans — the common case on
            // sparse adjacencies): one masked vector step.  `vpmaskmovq`
            // suppresses both the memory access and any fault on masked-off
            // lanes, which load as zero, so the popcount stays exact and the
            // reads stay in bounds.
            let rem = seg_len - done;
            if rem > 0 {
                let mask = _mm256_cmpgt_epi64(
                    _mm256_set1_epi64x(rem as i64),
                    _mm256_setr_epi64x(0, 1, 2, 3),
                );
                let av = _mm256_maskload_epi64(a_seg.as_ptr().add(done).cast(), mask);
                used = true;
                for plane_b in 0..t {
                    let base = plane_b * b_stride + b_off + done;
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let bv0 = _mm256_maskload_epi64(b.as_ptr().add(base).cast(), mask);
                    let bv1 = _mm256_maskload_epi64(b.as_ptr().add(base + col_stride).cast(), mask);
                    let bv2 =
                        _mm256_maskload_epi64(b.as_ptr().add(base + 2 * col_stride).cast(), mask);
                    let bv3 =
                        _mm256_maskload_epi64(b.as_ptr().add(base + 3 * col_stride).cast(), mask);
                    let p0 = mula_popcount64x4(_mm256_and_si256(av, bv0), lut, low_mask);
                    let p1 = mula_popcount64x4(_mm256_and_si256(av, bv1), lut, low_mask);
                    let p2 = mula_popcount64x4(_mm256_and_si256(av, bv2), lut, low_mask);
                    let p3 = mula_popcount64x4(_mm256_and_si256(av, bv3), lut, low_mask);
                    acc0 = _mm256_add_epi64(acc0, _mm256_sll_epi64(p0, shift));
                    acc1 = _mm256_add_epi64(acc1, _mm256_sll_epi64(p1, shift));
                    acc2 = _mm256_add_epi64(acc2, _mm256_sll_epi64(p2, shift));
                    acc3 = _mm256_add_epi64(acc3, _mm256_sll_epi64(p3, shift));
                }
            }
        }
    }
    if used {
        tot[0] += hsum_epi64x4(acc0) as i64;
        tot[1] += hsum_epi64x4(acc1) as i64;
        tot[2] += hsum_epi64x4(acc2) as i64;
        tot[3] += hsum_epi64x4(acc3) as i64;
    }
    tot
}

/// AVX2 fused skip body: span pieces of eight-plus words run through the Muła
/// vector path with in-vector shifts, shorter pieces through the scalar
/// fallback; one horizontal reduction per call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_span_accum_avx2(
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_start: usize,
    p_len: usize,
) -> i64 {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_maskload_epi64, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_setzero_si256,
        _mm256_sll_epi64, _mm_cvtsi64_si128,
    };
    const LANES: usize = 4;
    let (lut, low_mask) = mula_constants();
    let p_end = p_start + p_len;
    let mut acc = _mm256_setzero_si256();
    let mut used = false;
    let mut tot = 0i64;
    for plane_a in 0..s {
        let a_lane = &a[plane_a * pairs..][..pairs];
        for &(start, len) in &spans[plane_a] {
            if start >= p_end {
                break;
            }
            let lo = start.max(p_start);
            let hi = (start + len).min(p_end);
            if lo >= hi {
                continue;
            }
            let a_seg = &a_lane[lo..hi];
            let b_off = lo - p_start;
            let seg_len = hi - lo;
            let steps = seg_len / LANES;
            let done = steps * LANES;
            used |= steps > 0;
            for step in 0..steps {
                let off = step * LANES;
                let av = _mm256_loadu_si256(a_seg.as_ptr().add(off).cast());
                for plane_b in 0..t {
                    let bv =
                        _mm256_loadu_si256(b.as_ptr().add(plane_b * b_stride + b_off + off).cast());
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let p = mula_popcount64x4(_mm256_and_si256(av, bv), lut, low_mask);
                    acc = _mm256_add_epi64(acc, _mm256_sll_epi64(p, shift));
                }
            }
            let rem = seg_len - done;
            if rem > 0 {
                let mask = _mm256_cmpgt_epi64(
                    _mm256_set1_epi64x(rem as i64),
                    _mm256_setr_epi64x(0, 1, 2, 3),
                );
                let av = _mm256_maskload_epi64(a_seg.as_ptr().add(done).cast(), mask);
                used = true;
                for plane_b in 0..t {
                    let bv = _mm256_maskload_epi64(
                        b.as_ptr().add(plane_b * b_stride + b_off + done).cast(),
                        mask,
                    );
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let p = mula_popcount64x4(_mm256_and_si256(av, bv), lut, low_mask);
                    acc = _mm256_add_epi64(acc, _mm256_sll_epi64(p, shift));
                }
            }
        }
    }
    if used {
        tot += hsum_epi64x4(acc) as i64;
    }
    tot
}

/// AVX-512 staged body: `VPOPCNTQ` over eight-word steps of one panel
/// segment, portable tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn panel_popcount1_avx512(a: &[u64], b: &[u64]) -> u64 {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512,
    };
    const LANES: usize = 8;
    let steps = a.len() / LANES;
    let mut acc = _mm512_setzero_si512();
    for step in 0..steps {
        let offset = step * LANES;
        let av = _mm512_loadu_si512(a.as_ptr().add(offset).cast());
        let bv = _mm512_loadu_si512(b.as_ptr().add(offset).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(av, bv)));
    }
    let done = steps * LANES;
    let mut count = _mm512_reduce_add_epi64(acc) as u64;
    for i in done..a.len() {
        count += u64::from((a[i] & b[i]).count_ones());
    }
    count
}

/// AVX-512 fused staged body: `VPOPCNTQ` per plane pair, shifted by
/// `plane_a + plane_b` in the vector domain (`_mm512_sll_epi64`) and gathered
/// into one accumulator per row, so `_mm512_reduce_add_epi64` runs once per
/// (row, column) instead of once per plane pair — that horizontal reduction
/// is the latency chain that capped the per-pair staged kernel.  The last
/// `p_len % 8` words run as one masked vector step.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512vpopcntdq`.  `a0` and `a1`
/// must hold `s` lanes of `pairs` words with `p_start + p_len <= pairs`, and
/// `b` must hold `t` lanes of at least `p_len` words, `b_stride` apart.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_accum2_avx512(
    a0: &[u64],
    a1: &[u64],
    s: usize,
    pairs: usize,
    p_start: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_len: usize,
) -> (i64, i64) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
        _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm_cvtsi64_si128,
    };
    const LANES: usize = 8;
    let steps = p_len / LANES;
    let done = steps * LANES;
    let rem = p_len - done;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    for plane_a in 0..s {
        let seg = plane_a * pairs + p_start;
        let a0_seg = &a0[seg..][..p_len];
        let a1_seg = &a1[seg..][..p_len];
        for step in 0..steps {
            let off = step * LANES;
            let av0 = _mm512_loadu_si512(a0_seg.as_ptr().add(off).cast());
            let av1 = _mm512_loadu_si512(a1_seg.as_ptr().add(off).cast());
            for plane_b in 0..t {
                let bv = _mm512_loadu_si512(b.as_ptr().add(plane_b * b_stride + off).cast());
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av0, bv));
                let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av1, bv));
                acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
            }
        }
        // Tail words (and whole sub-vector panels, e.g. K panels of fewer
        // than eight words; narrow-K shapes take the narrow route instead):
        // one masked step.
        if rem > 0 {
            let mask = (1u8 << rem) - 1;
            debug_assert!(done + rem <= a0_seg.len() && done + rem <= a1_seg.len());
            // SAFETY: only the `rem` live lanes are read, and
            // `done + rem == p_len` is the length of both A segments.
            let av0 = _mm512_maskz_loadu_epi64(mask, a0_seg.as_ptr().add(done).cast());
            let av1 = _mm512_maskz_loadu_epi64(mask, a1_seg.as_ptr().add(done).cast());
            for plane_b in 0..t {
                debug_assert!(plane_b * b_stride + done + rem <= b.len());
                // SAFETY: lane `plane_b < t` of the panel holds `p_len`
                // words from `plane_b · b_stride`, so the `rem` live lanes
                // from `done` end at or before its end.
                let bv = _mm512_maskz_loadu_epi64(
                    mask,
                    b.as_ptr().add(plane_b * b_stride + done).cast(),
                );
                let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av0, bv));
                let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av1, bv));
                acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
            }
        }
    }
    (_mm512_reduce_add_epi64(acc0), _mm512_reduce_add_epi64(acc1))
}

/// AVX-512 fused skip body over four adjacent tile columns: one span walk
/// per column quad, four vector accumulators, four horizontal reductions per
/// call.
///
/// # Safety
///
/// As [`panel_span_accum_avx512`], for each of the four column lanes
/// `col_stride` apart.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_span_accum4_avx512(
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    col_stride: usize,
    p_start: usize,
    p_len: usize,
) -> [i64; 4] {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
        _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm_cvtsi64_si128,
    };
    const LANES: usize = 8;
    let p_end = p_start + p_len;
    let mut acc0 = _mm512_setzero_si512();
    let mut acc1 = _mm512_setzero_si512();
    let mut acc2 = _mm512_setzero_si512();
    let mut acc3 = _mm512_setzero_si512();
    let mut used = false;
    let mut tot = [0i64; 4];
    for plane_a in 0..s {
        let a_lane = &a[plane_a * pairs..][..pairs];
        for &(start, len) in &spans[plane_a] {
            if start >= p_end {
                break;
            }
            let lo = start.max(p_start);
            let hi = (start + len).min(p_end);
            if lo >= hi {
                continue;
            }
            let a_seg = &a_lane[lo..hi];
            let b_off = lo - p_start;
            let seg_len = hi - lo;
            let steps = seg_len / LANES;
            let done = steps * LANES;
            used |= steps > 0;
            for step in 0..steps {
                let off = step * LANES;
                let av = _mm512_loadu_si512(a_seg.as_ptr().add(off).cast());
                for plane_b in 0..t {
                    let base = plane_b * b_stride + b_off + off;
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let bv0 = _mm512_loadu_si512(b.as_ptr().add(base).cast());
                    let bv1 = _mm512_loadu_si512(b.as_ptr().add(base + col_stride).cast());
                    let bv2 = _mm512_loadu_si512(b.as_ptr().add(base + 2 * col_stride).cast());
                    let bv3 = _mm512_loadu_si512(b.as_ptr().add(base + 3 * col_stride).cast());
                    let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv0));
                    let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv1));
                    let p2 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv2));
                    let p3 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv3));
                    acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                    acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
                    acc2 = _mm512_add_epi64(acc2, _mm512_sll_epi64(p2, shift));
                    acc3 = _mm512_add_epi64(acc3, _mm512_sll_epi64(p3, shift));
                }
            }
            // Tail words (and whole sub-vector spans — the common case on
            // sparse adjacencies): one masked vector step.  Masked-off lanes
            // are never touched in memory and load as zero, so the popcount
            // stays exact and the reads stay in bounds.
            let rem = seg_len - done;
            if rem > 0 {
                let mask = (1u8 << rem) - 1;
                debug_assert!(done + rem <= a_seg.len());
                // SAFETY: only the `rem` live lanes are read, and
                // `done + rem == seg_len == a_seg.len()`.
                let av = _mm512_maskz_loadu_epi64(mask, a_seg.as_ptr().add(done).cast());
                used = true;
                for plane_b in 0..t {
                    let base = plane_b * b_stride + b_off + done;
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    debug_assert!(base + 3 * col_stride + rem <= b.len());
                    // SAFETY: the four column lanes of plane `plane_b < t`
                    // each cover the panel window `[0, p_len)` from
                    // `plane_b · b_stride + j · col_stride`, and
                    // `b_off + done + rem == hi - p_start <= p_len`, so every
                    // live lane of the four loads below is in bounds.
                    let bv0 = _mm512_maskz_loadu_epi64(mask, b.as_ptr().add(base).cast());
                    let bv1 =
                        _mm512_maskz_loadu_epi64(mask, b.as_ptr().add(base + col_stride).cast());
                    let bv2 = _mm512_maskz_loadu_epi64(
                        mask,
                        b.as_ptr().add(base + 2 * col_stride).cast(),
                    );
                    let bv3 = _mm512_maskz_loadu_epi64(
                        mask,
                        b.as_ptr().add(base + 3 * col_stride).cast(),
                    );
                    let p0 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv0));
                    let p1 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv1));
                    let p2 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv2));
                    let p3 = _mm512_popcnt_epi64(_mm512_and_si512(av, bv3));
                    acc0 = _mm512_add_epi64(acc0, _mm512_sll_epi64(p0, shift));
                    acc1 = _mm512_add_epi64(acc1, _mm512_sll_epi64(p1, shift));
                    acc2 = _mm512_add_epi64(acc2, _mm512_sll_epi64(p2, shift));
                    acc3 = _mm512_add_epi64(acc3, _mm512_sll_epi64(p3, shift));
                }
            }
        }
    }
    if used {
        tot[0] += _mm512_reduce_add_epi64(acc0);
        tot[1] += _mm512_reduce_add_epi64(acc1);
        tot[2] += _mm512_reduce_add_epi64(acc2);
        tot[3] += _mm512_reduce_add_epi64(acc3);
    }
    tot
}

/// AVX-512 fused skip body: span pieces of eight-plus words run through the
/// `VPOPCNTQ` vector path with in-vector shifts, shorter pieces through the
/// scalar fallback; one horizontal reduction per call.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512vpopcntdq`.  `a` must hold `s`
/// lanes of `pairs` words, `spans` the in-bounds non-zero spans of each, and
/// `b` `t` lanes of at least `p_len` words (the panel window
/// `[p_start, p_start + p_len)`), `b_stride` apart.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[allow(clippy::too_many_arguments)]
unsafe fn panel_span_accum_avx512(
    a: &[u64],
    spans: &[Vec<Span>],
    s: usize,
    pairs: usize,
    b: &[u64],
    t: usize,
    b_stride: usize,
    p_start: usize,
    p_len: usize,
) -> i64 {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi64,
        _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm_cvtsi64_si128,
    };
    const LANES: usize = 8;
    let p_end = p_start + p_len;
    let mut acc = _mm512_setzero_si512();
    let mut used = false;
    let mut tot = 0i64;
    for plane_a in 0..s {
        let a_lane = &a[plane_a * pairs..][..pairs];
        for &(start, len) in &spans[plane_a] {
            if start >= p_end {
                break;
            }
            let lo = start.max(p_start);
            let hi = (start + len).min(p_end);
            if lo >= hi {
                continue;
            }
            let a_seg = &a_lane[lo..hi];
            let b_off = lo - p_start;
            let seg_len = hi - lo;
            let steps = seg_len / LANES;
            let done = steps * LANES;
            used |= steps > 0;
            for step in 0..steps {
                let off = step * LANES;
                let av = _mm512_loadu_si512(a_seg.as_ptr().add(off).cast());
                for plane_b in 0..t {
                    let bv =
                        _mm512_loadu_si512(b.as_ptr().add(plane_b * b_stride + b_off + off).cast());
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let p = _mm512_popcnt_epi64(_mm512_and_si512(av, bv));
                    acc = _mm512_add_epi64(acc, _mm512_sll_epi64(p, shift));
                }
            }
            let rem = seg_len - done;
            if rem > 0 {
                let mask = (1u8 << rem) - 1;
                debug_assert!(done + rem <= a_seg.len());
                // SAFETY: only the `rem` live lanes are read, and
                // `done + rem == seg_len == a_seg.len()`.
                let av = _mm512_maskz_loadu_epi64(mask, a_seg.as_ptr().add(done).cast());
                used = true;
                for plane_b in 0..t {
                    debug_assert!(plane_b * b_stride + b_off + done + rem <= b.len());
                    // SAFETY: lane `plane_b < t` covers the panel window
                    // `[0, p_len)` from `plane_b · b_stride`, and
                    // `b_off + done + rem == hi - p_start <= p_len`.
                    let bv = _mm512_maskz_loadu_epi64(
                        mask,
                        b.as_ptr().add(plane_b * b_stride + b_off + done).cast(),
                    );
                    let shift = _mm_cvtsi64_si128((plane_a + plane_b) as i64);
                    let p = _mm512_popcnt_epi64(_mm512_and_si512(av, bv));
                    acc = _mm512_add_epi64(acc, _mm512_sll_epi64(p, shift));
                }
            }
        }
    }
    if used {
        tot += _mm512_reduce_add_epi64(acc);
    }
    tot
}

/// AVX-512 body of the narrow-K kernel: one output row.  `nonzero` lists the
/// row's non-zero widened A words; `b` is the narrow B image of
/// [`fused_gemm_narrow`], B planes `plane_stride` words apart.  Column
/// blocks of eight run four at a time (one broadcast of each A word feeds
/// four accumulators), then the remaining one to three blocks.
///
/// # Safety
///
/// The host must support `avx512f` and `avx512vpopcntdq`.  `b` must hold at
/// least `t · plane_stride` words, and for every entry of `nonzero`,
/// `b_offset + out_row.len().div_ceil(8) · 8 <= plane_stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn narrow_row_avx512(
    nonzero: &[NarrowWord],
    b: &[u64],
    t: usize,
    plane_stride: usize,
    out_row: &mut [i64],
) {
    let blocks = out_row.len().div_ceil(8);
    let mut block = 0;
    while block + 4 <= blocks {
        narrow_blocks_avx512::<4>(nonzero, b, t, plane_stride, block * 8, out_row);
        block += 4;
    }
    match blocks - block {
        0 => {}
        1 => narrow_blocks_avx512::<1>(nonzero, b, t, plane_stride, block * 8, out_row),
        2 => narrow_blocks_avx512::<2>(nonzero, b, t, plane_stride, block * 8, out_row),
        _ => narrow_blocks_avx512::<3>(nonzero, b, t, plane_stride, block * 8, out_row),
    }
}

/// `BLOCKS` adjacent eight-column blocks of one narrow-K output row, starting
/// at column `col`: each accumulator holds eight columns' shift-accumulated
/// counts and is stored once.  A block reaching past `out_row.len()` (the
/// zero-padded column tail) stores only its live columns.
///
/// # Safety
///
/// As [`narrow_row_avx512`], with `col` a multiple of eight and
/// `col + 8 · (BLOCKS - 1) < out_row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn narrow_blocks_avx512<const BLOCKS: usize>(
    nonzero: &[NarrowWord],
    b: &[u64],
    t: usize,
    plane_stride: usize,
    col: usize,
    out_row: &mut [i64],
) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_popcnt_epi64,
        _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64, _mm512_storeu_si512,
        _mm_cvtsi64_si128,
    };
    let mut acc = [_mm512_setzero_si512(); BLOCKS];
    for word in nonzero {
        let av = _mm512_set1_epi64(word.value as i64);
        for plane_b in 0..t {
            let base = plane_b * plane_stride + word.b_offset + col;
            let shift = _mm_cvtsi64_si128((word.plane_a + plane_b) as i64);
            for (j, acc) in acc.iter_mut().enumerate() {
                let at = base + 8 * j;
                debug_assert!(
                    word.b_offset + col + 8 * j + 8 <= plane_stride && at + 8 <= b.len(),
                    "narrow B load at {at} past plane {plane_b} (stride {plane_stride}, len {})",
                    b.len()
                );
                // SAFETY: `at + 8 <= b.len()`: the block's eight columns lie
                // inside the padded `n8` columns of K word `b_offset / n8`,
                // which lie inside B plane `plane_b < t` (the caller's
                // contract), and `b` holds `t · plane_stride` words.
                let bv = _mm512_loadu_si512(b.as_ptr().add(at).cast());
                let count = _mm512_popcnt_epi64(_mm512_and_si512(av, bv));
                *acc = _mm512_add_epi64(*acc, _mm512_sll_epi64(count, shift));
            }
        }
    }
    for (j, acc) in acc.iter().enumerate() {
        let start = col + 8 * j;
        if start + 8 <= out_row.len() {
            // SAFETY: `start + 8 <= out_row.len()`, checked just above.
            _mm512_storeu_si512(out_row.as_mut_ptr().add(start).cast(), *acc);
        } else {
            let mut lanes = [0i64; 8];
            // SAFETY: `lanes` is eight `i64`s, one 512-bit store.
            _mm512_storeu_si512(lanes.as_mut_ptr().cast(), *acc);
            let live = out_row.len() - start;
            out_row[start..].copy_from_slice(&lanes[..live]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{aggregate_adj_features, any_bit_gemm_serial};
    use qgtc_tensor::gemm::gemm_i64;
    use qgtc_tensor::rng::random_uniform_matrix;

    fn random_codes(rows: usize, cols: usize, bits: u32, seed: u64) -> Matrix<u32> {
        let max = (1u64 << bits) as f32;
        random_uniform_matrix(rows, cols, 0.0, max, seed)
            .map(|&v| (v as u32).min((1u32 << bits) - 1))
    }

    fn codes_to_i64(codes: &Matrix<u32>) -> Matrix<i64> {
        codes.map(|&v| v as i64)
    }

    #[test]
    fn fused_matches_integer_gemm_across_bit_widths() {
        for (s, t) in [(1u32, 1u32), (2, 3), (3, 2), (4, 4), (5, 2), (8, 8)] {
            let a_codes = random_codes(13, 150, s, 300 + s as u64);
            let b_codes = random_codes(150, 11, t, 400 + t as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, s, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, t, BitMatrixLayout::ColPacked);
            let fused = any_bit_gemm_fused(&a, &b);
            let reference = gemm_i64(&codes_to_i64(&a_codes), &codes_to_i64(&b_codes));
            assert_eq!(fused, reference, "bit widths ({s}, {t})");
        }
    }

    #[test]
    fn fused_matches_serial_oracle_on_awkward_shapes() {
        // Shapes chosen to hit every path: column remainders (n mod 4 != 0),
        // row-block remainders (m mod 8 != 0), odd K, exact PAD128 K, and a K
        // wide enough (> 512 bits) to engage the vectorised micro-kernel body.
        for (m, k, n) in [
            (1, 1, 1),
            (9, 127, 5),
            (16, 128, 3),
            (7, 129, 13),
            (8, 256, 4),
            (5, 700, 9),
        ] {
            let a_codes = random_codes(m, k, 3, m as u64 + 1);
            let b_codes = random_codes(k, n, 2, n as u64 + 50);
            let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
            assert_eq!(
                any_bit_gemm_fused(&a, &b),
                any_bit_gemm_serial(&a, &b),
                "shape ({m}, {k}, {n})"
            );
        }
    }

    #[test]
    fn portable_micro_kernel_matches_dispatch() {
        // On AVX-512 hosts this pins the vector body to the portable one; on
        // other hosts it is trivially true.
        let a: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bs: Vec<Vec<u64>> = (1..=4u64)
            .map(|s| a.iter().map(|&v| v.rotate_left(s as u32) ^ s).collect())
            .collect();
        assert_eq!(
            popcount4(PopcountBody::detect(), &a, &bs[0], &bs[1], &bs[2], &bs[3]),
            popcount4_portable(&a, &bs[0], &bs[1], &bs[2], &bs[3])
        );
    }

    #[test]
    fn explicit_portable_body_matches_detected_dispatch() {
        let a_codes = random_codes(11, 260, 3, 70);
        let b_codes = random_codes(260, 7, 2, 71);
        let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        for skip in [false, true] {
            let detected = any_bit_gemm_fused_with_stats(&a, &b, skip);
            let portable = any_bit_gemm_fused_with_body(&a, &b, skip, PopcountBody::Portable);
            assert_eq!(detected, portable, "skip={skip}");
        }
        assert!(PopcountBody::Portable.is_available());
        assert_eq!(
            PopcountBody::Avx512.is_available(),
            avx512_popcount_available()
        );
    }

    #[test]
    fn fused_aggregation_matches_plane_composition() {
        let adj_dense =
            random_uniform_matrix(33, 33, 0.0, 1.0, 7).map(|&v| (v > 0.6) as u32 as f32);
        let x_codes = random_codes(33, 10, 4, 8);
        let adj = StackedBitMatrix::from_binary_adjacency(&adj_dense, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 4, BitMatrixLayout::ColPacked);
        assert_eq!(
            aggregate_adj_features_fused(&adj, &x),
            aggregate_adj_features(&adj, &x)
        );
    }

    #[test]
    fn skip_path_is_bitwise_identical_and_counts_words() {
        // Block-diagonal adjacency: rows only touch their own 48-column block,
        // so most widened words are zero and must be skipped.
        let mut adj: Matrix<f32> = Matrix::zeros(192, 192);
        let dense_block =
            random_uniform_matrix(48, 48, 0.0, 1.0, 9).map(|&v| (v < 0.5) as u32 as f32);
        for &start in &[0usize, 96] {
            for i in 0..48 {
                for j in 0..48 {
                    if dense_block[(i, j)] != 0.0 {
                        adj[(start + i, start + j)] = 1.0;
                    }
                }
            }
        }
        let x_codes = random_codes(192, 20, 3, 10);
        let a = StackedBitMatrix::from_binary_adjacency(&adj, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 3, BitMatrixLayout::ColPacked);
        let (skipped, stats) = any_bit_gemm_fused_skip(&a, &x);
        assert_eq!(
            skipped,
            any_bit_gemm_fused(&a, &x),
            "skip must not change bits"
        );
        // 192 rows x PAD128(192)/64 = 4 widened words per row, one plane.
        assert_eq!(stats.total_words, 192 * 4);
        assert!(stats.skipped_words() > 0, "sparse rows must skip words");
        assert!(stats.skip_ratio() > 0.3, "ratio {}", stats.skip_ratio());
        let (agg, agg_stats) = aggregate_adj_features_fused_skip(&a, &x);
        assert_eq!(agg, skipped);
        assert_eq!(agg_stats, stats);
    }

    #[test]
    fn skip_stats_on_dense_input_visit_every_word() {
        let a_codes = random_codes(10, 200, 2, 30).map(|&v| v | 1);
        let b_codes = random_codes(200, 6, 3, 31);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        let (out, stats) = any_bit_gemm_fused_skip(&a, &b);
        assert_eq!(out, any_bit_gemm_serial(&a, &b));
        // Plane 0 is all-ones (codes |= 1), so only plane 1 and the PAD128
        // padding words can be skipped; every touched word is accounted for.
        assert_eq!(stats.total_words, 10 * 2 * 4); // 10 rows x 2 planes x 256/64
        assert_eq!(
            stats.visited_words + stats.skipped_words(),
            stats.total_words
        );
        assert!(stats.visited_words >= 10 * 4, "plane 0 is fully dense");
    }

    #[test]
    fn skip_of_all_zero_operand_skips_everything() {
        let a = StackedBitMatrix::from_binary_adjacency(
            &Matrix::zeros(16, 256),
            BitMatrixLayout::RowPacked,
        );
        let b_codes = random_codes(256, 8, 2, 33);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let (out, stats) = any_bit_gemm_fused_skip(&a, &b);
        assert!(out.data().iter().all(|&v| v == 0));
        assert_eq!(stats.visited_words, 0);
        assert!((stats.skip_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_operands_produce_empty_output() {
        let a_codes: Matrix<u32> = Matrix::zeros(0, 0);
        let b_codes: Matrix<u32> = Matrix::zeros(0, 0);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        assert_eq!(any_bit_gemm_fused(&a, &b).shape(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn fused_rejects_shape_mismatch() {
        let a =
            StackedBitMatrix::from_codes(&random_codes(4, 10, 2, 1), 2, BitMatrixLayout::RowPacked);
        let b =
            StackedBitMatrix::from_codes(&random_codes(11, 4, 2, 2), 2, BitMatrixLayout::ColPacked);
        let _ = any_bit_gemm_fused(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be row-packed")]
    fn fused_rejects_wrong_left_layout() {
        let codes = random_codes(8, 8, 1, 3);
        let a = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let b = StackedBitMatrix::from_codes(&codes, 1, BitMatrixLayout::ColPacked);
        let _ = any_bit_gemm_fused(&a, &b);
    }

    #[test]
    #[should_panic(expected = "adjacency stack must be 1-bit")]
    fn fused_aggregation_rejects_multi_bit_adjacency() {
        let a_codes = random_codes(8, 8, 2, 4);
        let x_codes = random_codes(8, 4, 2, 5);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let x = StackedBitMatrix::from_codes(&x_codes, 2, BitMatrixLayout::ColPacked);
        let _ = aggregate_adj_features_fused(&a, &x);
    }

    #[test]
    fn tiling_scheme_parses_round_trips_and_spots_the_baseline() {
        let s = TilingScheme::parse("16x8x8").expect("valid scheme");
        assert_eq!(
            s,
            TilingScheme {
                row_block: 16,
                col_block: 8,
                k_panel_words: 8
            }
        );
        assert_eq!(TilingScheme::parse(&s.to_string()), Ok(s));
        assert!(!s.is_baseline());
        let base = TilingScheme::default();
        assert_eq!(base, TilingScheme::baseline());
        assert!(base.is_baseline());
        assert_eq!(TilingScheme::parse(&base.to_string()), Ok(base));
    }

    #[test]
    fn tiling_scheme_parse_rejects_malformed_inputs_with_a_typed_error() {
        for bad in [
            "",
            "8",
            "8x4",
            "8x4x2x1",
            "ax4x2",
            "8xbx2",
            "8x4xc",
            "0x4x2",
            "8x0x2",
            "-1x4x2",
            "8 x 4 x 2",
        ] {
            let err = TilingScheme::parse(bad).expect_err(bad);
            assert_eq!(err.input, bad);
            let msg = err.to_string();
            assert!(msg.contains("invalid tiling scheme"), "{msg}");
            assert!(msg.contains("RxCxK"), "{msg}");
        }
    }

    #[test]
    fn staged_schemes_match_the_legacy_kernel_bitwise_with_identical_stats() {
        // Block-diagonal-ish A so the skip path has real spans to clip against
        // panel boundaries; shapes with row/col/K remainders.
        for (m, k, n) in [(13, 300, 11), (8, 128, 4), (3, 700, 17)] {
            let mut a_codes = random_codes(m, k, 3, 1000 + m as u64);
            for i in 0..m {
                for j in 0..k {
                    if (j / 64) % 2 == i % 2 {
                        a_codes[(i, j)] = 0;
                    }
                }
            }
            let b_codes = random_codes(k, n, 2, 2000 + n as u64);
            let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
            let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
            for skip in [false, true] {
                let legacy = any_bit_gemm_fused_with_stats(&a, &b, skip);
                for scheme in [
                    "1x1x1",
                    "2x3x2",
                    "4x8x4",
                    "16x8x8",
                    "32x4x1024", // K-panel wider than K: one panel
                    "5x7x3",
                ] {
                    let scheme = TilingScheme::parse(scheme).expect("valid");
                    let staged = any_bit_gemm_fused_tiled(&a, &b, skip, scheme);
                    assert_eq!(
                        staged, legacy,
                        "scheme {scheme} skip={skip} shape ({m}, {k}, {n})"
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_scheme_and_tiled_entry_agree_with_the_plain_entry_points() {
        let a_codes = random_codes(9, 260, 2, 55);
        let b_codes = random_codes(260, 6, 3, 56);
        let a = StackedBitMatrix::from_codes(&a_codes, 2, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 3, BitMatrixLayout::ColPacked);
        for skip in [false, true] {
            assert_eq!(
                any_bit_gemm_fused_tiled(&a, &b, skip, TilingScheme::baseline()),
                any_bit_gemm_fused_with_stats(&a, &b, skip)
            );
        }
    }

    #[test]
    fn every_available_body_matches_the_portable_oracle_under_staging() {
        let a_codes = random_codes(17, 520, 3, 60);
        let b_codes = random_codes(520, 9, 2, 61);
        let a = StackedBitMatrix::from_codes(&a_codes, 3, BitMatrixLayout::RowPacked);
        let b = StackedBitMatrix::from_codes(&b_codes, 2, BitMatrixLayout::ColPacked);
        let scheme = TilingScheme::parse("16x8x4").expect("valid");
        for skip in [false, true] {
            let oracle =
                any_bit_gemm_fused_with_scheme(&a, &b, skip, PopcountBody::Portable, scheme);
            for body in [PopcountBody::Avx2, PopcountBody::Avx512] {
                if body.is_available() {
                    let got = any_bit_gemm_fused_with_scheme(&a, &b, skip, body, scheme);
                    assert_eq!(got, oracle, "body {body:?} skip={skip}");
                }
            }
            // The auto-detected staged body must agree too.
            let auto = any_bit_gemm_fused_tiled(&a, &b, skip, scheme);
            assert_eq!(auto, oracle, "detected staged body, skip={skip}");
        }
    }

    #[test]
    fn body_detection_orders_are_consistent_with_availability() {
        assert!(PopcountBody::detect().is_available());
        assert!(PopcountBody::detect_staged().is_available());
        assert_eq!(
            PopcountBody::detect_for(TilingScheme::baseline()),
            PopcountBody::detect()
        );
        assert_eq!(
            PopcountBody::detect_for(TilingScheme::parse("16x8x8").unwrap()),
            PopcountBody::detect_staged()
        );
        // The legacy detection order never selects the AVX2 body: the unstaged
        // kernel is the frozen A/B baseline of the tiling benchmarks.
        assert_ne!(PopcountBody::detect(), PopcountBody::Avx2);
        assert_eq!(PopcountBody::Portable.name(), "portable");
        assert_eq!(PopcountBody::Avx2.name(), "avx2");
        assert_eq!(PopcountBody::Avx512.name(), "avx512");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_panel_bodies_match_the_portable_panel_bodies() {
        if !avx2_popcount_available() {
            return;
        }
        for len in [0usize, 1, 3, 4, 7, 8, 31, 64, 65] {
            let a0: Vec<u64> = (0..len)
                .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5555)
                .collect();
            let b: Vec<u64> = a0.iter().map(|&v| v.rotate_right(7) | 1).collect();
            assert_eq!(
                unsafe { panel_popcount1_avx2(&a0, &b) },
                panel_popcount1_portable(&a0, &b),
                "len {len}"
            );
            let b1: Vec<u64> = b.iter().map(|&v| v ^ 0xF0F0).collect();
            let b2: Vec<u64> = b.iter().map(|&v| v.rotate_left(3)).collect();
            let b3: Vec<u64> = b.iter().map(|&v| !v).collect();
            assert_eq!(
                unsafe { popcount4_avx2(&a0, &b, &b1, &b2, &b3) },
                popcount4_portable(&a0, &b, &b1, &b2, &b3),
                "len {len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fused_accum_bodies_match_the_portable_reference() {
        // Panel lengths chosen to hit the pure-vector path, the pure-scalar
        // tail, and mixes of both, across several (s, t) plane counts.
        for (s, t) in [(1usize, 1usize), (1, 2), (3, 2), (4, 4)] {
            for p_len in [0usize, 1, 3, 7, 8, 9, 16, 33] {
                let p_start = 1usize;
                let pairs = p_start + p_len + 1;
                let a0: Vec<u64> = (0..s * pairs)
                    .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A)
                    // A zero word here and there so the span index has gaps.
                    .map(|v| if v % 5 == 0 { 0 } else { v })
                    .collect();
                let a1: Vec<u64> = a0.iter().map(|&v| v.rotate_left(11) ^ 0x0FF0).collect();
                let b_stride = p_len;
                let b: Vec<u64> = (0..t * b_stride)
                    .map(|i| (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1)
                    .collect();
                let want =
                    panel_accum2_portable(&a0, &a1, s, pairs, p_start, &b, t, b_stride, p_len);
                let spans0: Vec<Vec<Span>> = (0..s)
                    .map(|p| {
                        let mut sp = Vec::new();
                        nonzero_spans(&a0[p * pairs..][..pairs], &mut sp);
                        sp
                    })
                    .collect();
                let want_spans = panel_span_accum_portable(
                    &a0, &spans0, s, pairs, &b, t, b_stride, p_start, p_len,
                );
                // Four-column panel: lanes `col_stride` apart inside each
                // plane, planes `quad_stride` apart.
                let col_stride = p_len;
                let quad_stride = 4 * p_len;
                let b4: Vec<u64> = (0..t * quad_stride)
                    .map(|i| (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1)
                    .collect();
                let want_quad: [i64; 4] = std::array::from_fn(|j| {
                    panel_span_accum_portable(
                        &a0,
                        &spans0,
                        s,
                        pairs,
                        &b4[j * col_stride..],
                        t,
                        quad_stride,
                        p_start,
                        p_len,
                    )
                });
                assert_eq!(
                    panel_span_accum4(
                        PopcountBody::Portable,
                        &a0,
                        &spans0,
                        s,
                        pairs,
                        &b4,
                        t,
                        quad_stride,
                        col_stride,
                        p_start,
                        p_len,
                    ),
                    want_quad,
                    "portable quad s={s} t={t} p_len={p_len}"
                );
                if avx2_popcount_available() {
                    assert_eq!(
                        unsafe {
                            panel_accum2_avx2(&a0, &a1, s, pairs, p_start, &b, t, b_stride, p_len)
                        },
                        want,
                        "avx2 s={s} t={t} p_len={p_len}"
                    );
                    assert_eq!(
                        unsafe {
                            panel_span_accum_avx2(
                                &a0, &spans0, s, pairs, &b, t, b_stride, p_start, p_len,
                            )
                        },
                        want_spans,
                        "avx2 spans s={s} t={t} p_len={p_len}"
                    );
                    assert_eq!(
                        unsafe {
                            panel_span_accum4_avx2(
                                &a0,
                                &spans0,
                                s,
                                pairs,
                                &b4,
                                t,
                                quad_stride,
                                col_stride,
                                p_start,
                                p_len,
                            )
                        },
                        want_quad,
                        "avx2 quad s={s} t={t} p_len={p_len}"
                    );
                }
                if avx512_popcount_available() {
                    assert_eq!(
                        unsafe {
                            panel_accum2_avx512(&a0, &a1, s, pairs, p_start, &b, t, b_stride, p_len)
                        },
                        want,
                        "avx512 s={s} t={t} p_len={p_len}"
                    );
                    assert_eq!(
                        unsafe {
                            panel_span_accum_avx512(
                                &a0, &spans0, s, pairs, &b, t, b_stride, p_start, p_len,
                            )
                        },
                        want_spans,
                        "avx512 spans s={s} t={t} p_len={p_len}"
                    );
                    assert_eq!(
                        unsafe {
                            panel_span_accum4_avx512(
                                &a0,
                                &spans0,
                                s,
                                pairs,
                                &b4,
                                t,
                                quad_stride,
                                col_stride,
                                p_start,
                                p_len,
                            )
                        },
                        want_quad,
                        "avx512 quad s={s} t={t} p_len={p_len}"
                    );
                }
            }
        }
    }
}
