//! The x86-64 SHA-NI compress backend (`sha256rnds2`, `sha256msg1`,
//! `sha256msg2`).
//!
//! The kernel is a safe `#[target_feature]` function: it touches memory
//! only through ordinary slices and moves words in and out of vector
//! registers with value intrinsics (`_mm_set_epi32`, `_mm_extract_epi32`),
//! never pointer loads or stores. What makes calling it sound is that the
//! CPU really has those features, and [`ShaNi`] is the proof of that: it
//! can only be obtained from [`ShaNi::detect`], so [`ShaNi::compress`]
//! holds the crate's one `unsafe` call.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

use crate::K;

/// Evidence that this CPU executes SHA-NI, SSSE3 and SSE4.1.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` iff the running CPU has every feature the kernel enables.
    /// The standard library caches the CPUID probe, so this is a few
    /// relaxed loads per call.
    pub(crate) fn detect() -> Option<ShaNi> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
    #[allow(unsafe_code)]
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `compress_blocks` is safe apart from its target
        // features, and a `ShaNi` value exists only once `detect` has
        // seen `sha`, `ssse3` and `sse4.1` on this CPU (`sse2` is part
        // of the x86-64 baseline).
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Four rounds: add the round constants to four schedule words and run
/// two `sha256rnds2`, each doing two rounds.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let k = _mm_set_epi32(
        K[4 * i + 3] as i32,
        K[4 * i + 2] as i32,
        K[4 * i + 1] as i32,
        K[4 * i] as i32,
    );
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four message-schedule words from the previous sixteen.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// Four big-endian message words as one vector, word 0 in lane 0.
#[inline]
#[target_feature(enable = "sse2")]
fn load_words(bytes: &[u8]) -> __m128i {
    let mut w = [0i32; 4];
    for (slot, word) in w.iter_mut().zip(bytes.chunks_exact(4)) {
        *slot = i32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    _mm_set_epi32(w[3], w[2], w[1], w[0])
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    let s = state.map(|v| v as i32);
    // sha256rnds2 keeps the state as the vector pair (ABEF, CDGH).
    let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w0 = load_words(&block[0..16]);
        let mut w1 = load_words(&block[16..32]);
        let mut w2 = load_words(&block[32..48]);
        let mut w3 = load_words(&block[48..64]);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        // Rounds 16..64: each step overwrites the oldest schedule vector.
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let out = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ];
    *state = out.map(|v| v as u32);
}
