//! ZFP's vector kernels: the AVX2 4-lane block decoder, and the AVX-512
//! stage pass of the block encoder ([`stage_groups_avx512`], below).
//!
//! ## Decode
//!
//! A v2 ZFP container (see [`crate::zfp`]) carries four independent block
//! sub-streams.  Bit-stream reads are inherently serial *within* a
//! sub-stream, but the four lanes' reads are independent chains the CPU
//! can overlap; the reconstruction math that follows — inverse Haar
//! lifting, exponent scaling, `f64 → f32` narrowing — is identical across
//! lanes and runs vectorized, one block per 64-bit lane:
//!
//! 1. Each lane scalar-reads one raw block (flag, exponent, widths,
//!    sign/magnitude coefficients) — four independent dependency chains.
//! 2. The 4×4 coefficient matrix is transposed so each ymm register holds
//!    one coefficient position across all four blocks, the inverse lifting
//!    runs in four vector add/sub/shift steps, and the integer
//!    coefficients convert to `f64` via the exponent-bias trick (exact for
//!    the ≤ 2^40 magnitudes valid streams produce).
//! 3. A per-block scale multiply, `f64 → f32` narrowing, and a 4×4 `f32`
//!    transpose put each block back in value order for one 16-byte store.
//!
//! Zero / verbatim blocks (rare: all-zero or non-finite data) drop that
//! round to the scalar finish.  Lanes near their payload end finish on the
//! checked scalar path, exactly like the portable decoder's last blocks.
//!
//! The kernel is bit-exact with the scalar path on every stream: the
//! integer lifting wraps identically, multiply + narrow use the same
//! round-to-nearest semantics as the scalar expressions, and the `i64 →
//! f64` conversion trick, exact below 2^51, only sees rounds whose
//! coefficients stay under 2^48 (`width + cut ≤ 48`), which the inverse
//! lifting grows by at most 4×.  A forged header past that sends its
//! round to the scalar path.
//!
//! ## Encode
//!
//! The encoder's per-block arithmetic has no dependence from one block to
//! the next, so the stage pass runs it across eight blocks, one per 64-bit
//! lane, and leaves a tile of [`Group`]s for `zfp::encode_blocks`'s
//! scalar emit pass.  Vectorizing *within* a block (four values) was
//! measured and bought nothing; across blocks every lane does useful work
//! and the `i64` steps (`vpsraq`, `vpabsq`, `vpsrlvq`, `vplzcntq`) exist
//! only from AVX-512 on, which is why there is no AVX2 arm.

#![cfg(target_arch = "x86_64")]

use crate::bitstream::BitReader;
use crate::traits::CompressError;
use crate::zfp::{
    decode_blocks_scalar, finish_block_scalar, pow2, read_block_raw_unchecked, reconstruct_coeff,
    CutTable, EMIN, MAX_BLOCK_BITS, PRECISION,
};

/// Decodes a v2 ZFP payload with four sub-streams into `out`.
/// `subs` are `(byte offset, byte length)` per sub-stream within
/// `payload`; `parts` are `(block offset, block count)` per sub-stream.
/// The caller guarantees AVX2 support and `subs.len() == 4`.
pub(crate) fn decode_v2_avx2(
    payload: &[u8],
    subs: &[(usize, usize)],
    parts: &[(usize, usize)],
    out: &mut [f32],
) -> Result<(), CompressError> {
    debug_assert_eq!(subs.len(), 4);
    debug_assert_eq!(parts.len(), 4);
    let _span = errflow_obs::trace::span("codec.zfp.decode.avx2");
    let n = out.len();
    // Carve `out` into the four lanes' contiguous value ranges.
    let mut rest: &mut [f32] = out;
    let mut consumed_vals = 0usize;
    let mut regions: [&mut [f32]; 4] = std::array::from_fn(|i| {
        let (block_off, block_len) = parts[i];
        let v0 = (block_off * 4).min(n);
        let v1 = ((block_off + block_len) * 4).min(n);
        debug_assert_eq!(v0, consumed_vals);
        consumed_vals = v1;
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(v1 - v0);
        rest = tail;
        head
    });
    let mut readers: [BitReader<'_>; 4] = std::array::from_fn(|i| {
        let (off, len) = subs[i];
        BitReader::new(&payload[off..off + len])
    });
    let mut done = [0usize; 4];
    // SAFETY: dispatched only behind a runtime `simd::has_avx2()` check in
    // `zfp::decompress_v2_into`, matching the kernel's target feature.
    unsafe { kernel(&mut readers, &mut regions, &mut done) };
    // Per-lane scalar tail: partial last blocks and blocks too close to
    // the payload end for the unchecked reader.
    for ((r, region), &d) in readers.iter_mut().zip(regions.iter_mut()).zip(&done) {
        decode_blocks_scalar(r, &mut region[d..])?;
    }
    Ok(())
}

/// Vector round loop: runs while every lane has a full 4-value block and a
/// worst-case block footprint left in its payload.
// SAFETY: callers must guarantee AVX2 is available (enforced by the
// runtime dispatch in `decode_v2_avx2`); slice accesses are guarded by the
// round-entry length checks.
#[target_feature(enable = "avx2")]
unsafe fn kernel(readers: &mut [BitReader<'_>], regions: &mut [&mut [f32]], done: &mut [usize; 4]) {
    use std::arch::x86_64::*;

    // Exponent-bias constants for exact i64 → f64 conversion of |x| < 2^51:
    // (x + 2^52·1.5) reinterpreted as f64, minus 2^52·1.5.
    let magic_i = _mm256_set1_epi64x(0x4338000000000000);
    let magic_f = _mm256_set1_pd(6755399441055744.0);
    let sign_bit = _mm256_set1_epi64x(i64::MIN);
    let one = _mm256_set1_epi64x(1);

    // Arithmetic shift right by one on packed i64 (absent from AVX2):
    // logical shift, then restore the sign bit.
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sra1(x: __m256i, sign_bit: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_srli_epi64::<1>(x), _mm256_and_si256(x, sign_bit))
    }
    // Exact-in-range i64 → f64 conversion (exponent-bias trick) followed
    // by the per-block scale multiply.
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scaled_f64(x: __m256i, sc: __m256d, magic_i: __m256i, magic_f: __m256d) -> __m256d {
        _mm256_mul_pd(
            _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(x, magic_i)), magic_f),
            sc,
        )
    }
    // Inverse reversible Haar pair, vectorized: a = l + ((h + 1) >> 1),
    // b = a − h (wrapping, identical to the scalar `haar_inv`).
    // SAFETY: register-only AVX2 ops; only called from the AVX2 kernel.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn haar_inv_v(
        l: __m256i,
        h: __m256i,
        one: __m256i,
        sign_bit: __m256i,
    ) -> (__m256i, __m256i) {
        let a = _mm256_add_epi64(l, sra1(_mm256_add_epi64(h, one), sign_bit));
        (a, _mm256_sub_epi64(a, h))
    }

    'outer: loop {
        for i in 0..4 {
            if regions[i].len() - done[i] < 4 || readers[i].remaining_bits() < MAX_BLOCK_BITS {
                break 'outer;
            }
        }
        // Stage 1: four independent scalar block reads (the serial part).
        // Peek every lane's header word first — four independent loads the
        // CPU overlaps — and pick the path from the flag + width fields
        // before advancing anything.
        let w: [u64; 4] = std::array::from_fn(|i| readers[i].peek_word());
        let mut widths = [0u32; 4];
        let mut fast = true;
        for i in 0..4 {
            widths[i] = ((w[i] >> 17) & 0x3F) as u32;
            let cut = ((w[i] >> 11) & 0x3F) as u32;
            // Zero/verbatim blocks or >27-bit coefficients (both rare on
            // real data) drop the round to the general path, and so do
            // coefficients that may reach 2^48 (only forged headers: honest
            // ones stay within PRECISION + 2 bits), whose inverse lifting
            // could leave the conversion's exact range.
            if w[i] & 1 == 1 || widths[i] > 27 || widths[i] + cut > 48 {
                fast = false;
            }
        }
        if !fast {
            for b in 0..4 {
                // SAFETY: (unchecked contract) the round-entry check above
                // proved every reader holds ≥ MAX_BLOCK_BITS, the worst-case
                // block size.  No cursor has advanced yet this round.
                let raw = read_block_raw_unchecked(&mut readers[b]);
                finish_block_scalar(&raw, &mut regions[b][done[b]..done[b] + 4]);
                done[b] += 4;
            }
            continue;
        }
        // Normal blocks with width ≤ 27: two sign+magnitude fields
        // (2 × 28 ≤ 56 bits) come out of each 57-bit window, so the whole
        // coefficient payload costs two loads instead of four dependent
        // per-coefficient reads.  Coefficients land directly in
        // coefficient-major order (`cols[j][b]` = coefficient j of lane b),
        // so stage 2 needs no transpose.
        let mut scales = [0f64; 4];
        let mut cols = [[0i64; 4]; 4];
        for b in 0..4 {
            let emax = ((w[b] >> 1) & 0x3FF) as i32 - 256;
            scales[b] = pow2(emax - (PRECISION - 2));
            let cut = ((w[b] >> 11) & 0x3F) as u32;
            let width = widths[b];
            let step = (1 + width) as usize;
            let mask = (1u64 << width) - 1;
            let r = &mut readers[b];
            // SAFETY: (unchecked contract) the round-entry check proved
            // ≥ MAX_BLOCK_BITS ≥ 23 + 4·(1 + 63) remain, and this path
            // consumes 23 + 4·(1 + width ≤ 27) bits — strictly fewer.
            r.advance_unchecked(23);
            let cw0 = r.peek_word();
            // SAFETY: (unchecked contract) as above — 2·step ≤ 56 of the
            // block's guaranteed remaining bits.
            r.advance_unchecked(2 * step);
            let cw1 = r.peek_word();
            // SAFETY: (unchecked contract) as above.
            r.advance_unchecked(2 * step);
            for j in 0..2 {
                let f0 = cw0 >> (j * step);
                cols[j][b] = reconstruct_coeff((f0 >> 1) & mask, cut, f0 & 1 == 1);
                let f1 = cw1 >> (j * step);
                cols[j + 2][b] = reconstruct_coeff((f1 >> 1) & mask, cut, f1 & 1 == 1);
            }
        }
        // Stage 2: inverse lifting + scale, one coefficient position per
        // ymm register (already coefficient-major).
        // SAFETY: each `cols[j]` is a 4×i64 array, a full 32-byte load.
        let ll = _mm256_loadu_si256(cols[0].as_ptr() as *const __m256i);
        let lh = _mm256_loadu_si256(cols[1].as_ptr() as *const __m256i);
        let h0 = _mm256_loadu_si256(cols[2].as_ptr() as *const __m256i);
        let h1 = _mm256_loadu_si256(cols[3].as_ptr() as *const __m256i);
        let (l0, l1) = haar_inv_v(ll, lh, one, sign_bit);
        let (va, vb) = haar_inv_v(l0, h0, one, sign_bit);
        let (vc, vd) = haar_inv_v(l1, h1, one, sign_bit);
        let sc = _mm256_loadu_pd(scales.as_ptr());
        let fa = _mm256_cvtpd_ps(scaled_f64(va, sc, magic_i, magic_f));
        let fb = _mm256_cvtpd_ps(scaled_f64(vb, sc, magic_i, magic_f));
        let fc = _mm256_cvtpd_ps(scaled_f64(vc, sc, magic_i, magic_f));
        let fd = _mm256_cvtpd_ps(scaled_f64(vd, sc, magic_i, magic_f));
        // Stage 3: 4×4 f32 transpose back to value-major, one 16-byte
        // store per block.
        let u0 = _mm_unpacklo_ps(fa, fb);
        let u1 = _mm_unpacklo_ps(fc, fd);
        let u2 = _mm_unpackhi_ps(fa, fb);
        let u3 = _mm_unpackhi_ps(fc, fd);
        let blocks = [
            _mm_movelh_ps(u0, u1),
            _mm_movehl_ps(u1, u0),
            _mm_movelh_ps(u2, u3),
            _mm_movehl_ps(u3, u2),
        ];
        for (b, blk) in blocks.iter().enumerate() {
            // SAFETY: the round-entry check guarantees ≥ 4 values remain
            // in lane b's region at offset `done[b]`.
            _mm_storeu_ps(regions[b][done[b]..].as_mut_ptr(), *blk);
            done[b] += 4;
        }
    }
}

/// Values in one eight-block group of the encoder's stage pass.
pub(crate) const GROUP_VALUES: usize = 32;

/// Groups in one tile: 64 blocks, staged, then emitted, while the tile is
/// in L1.
pub(crate) const TILE_GROUPS: usize = 8;

/// Eight blocks after the encoder's stage pass, in the order `put_normal`
/// takes them: block `b`'s header word, field step and four fields are
/// `head[b]`, `step[b]`, `fields[0..4][b]`.
#[derive(Clone, Copy, Default)]
pub(crate) struct Group {
    /// `flag(1) = 0, emax + 256 (10), cut (6), width (6)`.
    pub(crate) head: [u32; 8],
    /// `1 + width`: the bits of one `magnitude << 1 | sign` field.
    pub(crate) step: [u32; 8],
    /// `magnitude << 1 | sign` of each Haar coefficient.
    pub(crate) fields: [[u64; 8]; 4],
    /// Bit `b` set: block `b` is a zero or a verbatim block, whose head
    /// and fields are meaningless — the scalar `encode_block` writes it.
    pub(crate) scalar: u8,
}

/// The ZFP encoder's AVX-512 stage pass: one [`Group`] per 32 values of
/// `values`, each step of `zfp::encode_block` up to the bit store done for
/// eight blocks at once, one block per 64-bit lane.
///
/// * Two 512-bit loads and two `vpermt2d` put value `j` of the eight blocks
///   in lanes `8·(j mod 2) …` of one register per value pair.
/// * The block max of the sign-cleared bits gives the kind (0: zero block,
///   `≥ 0x7F80_0000`: verbatim) and the biased exponent: the field, or
///   `9 − lzcnt` for a subnormal max.
/// * `quantize` in `u64` lanes: `(((m << 37) >> r) + 1) >> 1`, a variable
///   shift, then a masked negate for the sign.
/// * The two Haar levels with arithmetic shifts (`vpsraq`).
/// * `cut` gathered from the [`CutTable`]; a lane that reads
///   [`CutTable::UNSET`] fills its entry through the scalar `cut_for` on a
///   cold path and the gather runs again, so a stream pays for the
///   exponents it holds.
/// * `|c| >> cut` (`vpabsq`, `vpsrlvq`) and the width off `vplzcntq` of the
///   OR of the four.
///
/// The lanes of zero and verbatim blocks compute garbage (every operation
/// is defined for any input) and are flagged in [`Group::scalar`]; their
/// cut gather is masked off.
///
/// # Safety
/// Callers must have verified [`errflow_tensor::simd::Level::Avx512`]
/// (the x86-64-v4 set this function enables).  `values` must hold one
/// group per entry of `groups` (asserted).
#[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512bw,avx512dq")]
pub(crate) unsafe fn stage_groups_avx512(
    values: &[f32],
    cuts: &mut CutTable,
    groups: &mut [Group],
) {
    use std::arch::x86_64::*;
    assert_eq!(
        values.len(),
        GROUP_VALUES * groups.len(),
        "one group per 32 values"
    );
    // Value j of block b sits at 4b + j of the two loads taken as one
    // 32-entry table: these indices gather j = 0, 1 and j = 2, 3.
    let idx01 = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5, 9, 13, 17, 21, 25, 29);
    let idx23 = _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15, 19, 23, 27, 31);
    let abs = _mm512_set1_epi32(0x7FFF_FFFF);
    let frac = _mm512_set1_epi32(0x7F_FFFF);
    let implicit = _mm512_set1_epi32(1 << 23);
    let zero = _mm512_setzero_si512();
    let one = _mm512_set1_epi64(1);

    for (group, g) in values.chunks_exact(GROUP_VALUES).zip(groups.iter_mut()) {
        // SAFETY: `chunks_exact` makes `group` 32 floats; the loads read
        // [0, 16) and [16, 32).
        let (lo, hi) = unsafe {
            (
                _mm512_loadu_si512(group.as_ptr().cast()),
                _mm512_loadu_si512(group.as_ptr().add(16).cast()),
            )
        };
        let x01 = _mm512_permutex2var_epi32(lo, idx01, hi);
        let x23 = _mm512_permutex2var_epi32(lo, idx23, hi);

        // Block max, kind and biased exponent (8 × u32).
        let max16 = _mm512_max_epu32(_mm512_and_si512(x01, abs), _mm512_and_si512(x23, abs));
        let max = _mm256_max_epu32(
            _mm512_castsi512_si256(max16),
            _mm512_extracti64x4_epi64::<1>(max16),
        );
        let zero_blk = _mm256_cmpeq_epu32_mask(max, _mm256_setzero_si256());
        let verbatim = _mm256_cmpge_epu32_mask(max, _mm256_set1_epi32(0x7F80_0000));
        let normal: __mmask8 = !(zero_blk | verbatim);
        let biased = _mm256_mask_blend_epi32(
            _mm256_cmplt_epu32_mask(max, _mm256_set1_epi32(1 << 23)),
            _mm256_srli_epi32::<23>(max),
            _mm256_sub_epi32(_mm256_set1_epi32(9), _mm256_lzcnt_epi32(max)),
        );

        // Quantize: significand m, shift r = min(biased − max(e, 1) + 23, 63).
        let biased16 = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(biased), biased);
        let quantize = |x: __m512i| -> [__m512i; 2] {
            let field = _mm512_srli_epi32::<23>(_mm512_and_si512(x, abs));
            let f = _mm512_and_si512(x, frac);
            let m = _mm512_mask_or_epi32(f, _mm512_cmpneq_epi32_mask(field, zero), f, implicit);
            let r = _mm512_min_epi32(
                _mm512_add_epi32(
                    _mm512_sub_epi32(biased16, _mm512_max_epi32(field, _mm512_set1_epi32(1))),
                    _mm512_set1_epi32(23),
                ),
                _mm512_set1_epi32(63),
            );
            let neg = _mm512_movepi32_mask(x);
            let half = |m: __m256i, r: __m256i, neg: __mmask8| {
                let shifted = _mm512_srlv_epi64(
                    _mm512_slli_epi64::<37>(_mm512_cvtepu32_epi64(m)),
                    _mm512_cvtepu32_epi64(r),
                );
                let mag = _mm512_srli_epi64::<1>(_mm512_add_epi64(shifted, one));
                _mm512_mask_sub_epi64(mag, neg, zero, mag)
            };
            [
                half(
                    _mm512_castsi512_si256(m),
                    _mm512_castsi512_si256(r),
                    neg as __mmask8,
                ),
                half(
                    _mm512_extracti64x4_epi64::<1>(m),
                    _mm512_extracti64x4_epi64::<1>(r),
                    (neg >> 8) as __mmask8,
                ),
            ]
        };
        let [q0, q1] = quantize(x01);
        let [q2, q3] = quantize(x23);

        // Two Haar levels: (ll, lh, h0, h1).
        let l0 = _mm512_srai_epi64::<1>(_mm512_add_epi64(q0, q1));
        let l1 = _mm512_srai_epi64::<1>(_mm512_add_epi64(q2, q3));
        let coeffs = [
            _mm512_srai_epi64::<1>(_mm512_add_epi64(l0, l1)),
            _mm512_sub_epi64(l0, l1),
            _mm512_sub_epi64(q0, q1),
            _mm512_sub_epi64(q2, q3),
        ];

        // cut = table[emax − EMIN] = table[biased − 127 + 149].
        // A normal block's max is finite and non-zero, so its biased
        // exponent is in -22..=254 and its slot in 0..N_EXPONENTS.
        let slot = _mm256_add_epi32(biased, _mm256_set1_epi32(-127 - EMIN));
        // SAFETY: the gather reads the lanes of `normal` only, whose slots
        // are in the table (above).
        let mut cut = unsafe { gather_cuts(cuts, slot, normal) };
        let unset =
            _mm256_mask_cmpeq_epi32_mask(normal, cut, _mm256_set1_epi32(CutTable::UNSET as i32));
        if unset != 0 {
            let mut lanes = [0i32; 8];
            // SAFETY: `lanes` is 8 × i32, one 32-byte store.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), biased) };
            fill_cuts(cuts, &lanes, unset);
            // SAFETY: as the first gather.
            cut = unsafe { gather_cuts(cuts, slot, normal) };
        }
        let cut64 = _mm512_cvtepu32_epi64(cut);

        // Kept magnitudes, width, fields.
        let mut or = zero;
        let mut fields = [zero; 4];
        for (f, &c) in fields.iter_mut().zip(&coeffs) {
            let mag = _mm512_srlv_epi64(_mm512_abs_epi64(c), cut64);
            or = _mm512_or_si512(or, mag);
            let sign = _mm512_mask_cmpneq_epi64_mask(_mm512_cmplt_epi64_mask(c, zero), mag, zero);
            let shifted = _mm512_slli_epi64::<1>(mag);
            *f = _mm512_mask_or_epi64(shifted, sign, shifted, one);
        }
        let width = _mm256_sub_epi32(
            _mm256_set1_epi32(64),
            _mm512_cvtepi64_epi32(_mm512_lzcnt_epi64(or)),
        );
        let head = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_slli_epi32::<1>(_mm256_add_epi32(biased, _mm256_set1_epi32(129))),
                _mm256_slli_epi32::<11>(cut),
            ),
            _mm256_slli_epi32::<17>(width),
        );
        // SAFETY: `head` and `step` are 8 × u32 (one 32-byte store each),
        // every `fields[j]` 8 × u64 (one 64-byte store).
        unsafe {
            _mm256_storeu_si256(g.head.as_mut_ptr().cast(), head);
            _mm256_storeu_si256(
                g.step.as_mut_ptr().cast(),
                _mm256_add_epi32(width, _mm256_set1_epi32(1)),
            );
            for (dst, f) in g.fields.iter_mut().zip(fields) {
                _mm512_storeu_si512(dst.as_mut_ptr().cast(), f);
            }
        }
        g.scalar = !normal;
    }
}

/// `cuts.entries()[slot]` in the lanes of `normal`, 0 elsewhere.
///
/// # Safety
/// As [`stage_groups_avx512`]; every lane of `normal` must hold a slot
/// below `N_EXPONENTS`, as a finite non-zero block's `emax − EMIN` does.
#[inline]
#[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512bw,avx512dq")]
unsafe fn gather_cuts(
    cuts: &CutTable,
    slot: std::arch::x86_64::__m256i,
    normal: u8,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let table = cuts.entries();
    // SAFETY: the gather reads only the lanes of `normal`, whose slots are
    // the `emax − EMIN` of finite non-zero blocks, in `0..N_EXPONENTS` —
    // inside `table`.
    unsafe {
        _mm256_mmask_i32gather_epi32::<4>(
            _mm256_setzero_si256(),
            normal,
            slot,
            table.as_ptr().cast(),
        )
    }
}

/// The cold side of the cut gather: the scalar `cut_for` fills the entry of
/// each lane of `unset`, from its biased exponent.
#[cold]
#[inline(never)]
fn fill_cuts(cuts: &mut CutTable, biased: &[i32; 8], unset: u8) {
    for (lane, &b) in biased.iter().enumerate() {
        if unset >> lane & 1 == 1 {
            cuts.get(b - 127);
        }
    }
}
