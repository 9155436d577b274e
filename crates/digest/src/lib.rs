//! # zr-digest — content digesting for the whole workspace
//!
//! One SHA-256 (FIPS 180-4) plus the injectivity layer the cache keys
//! rely on. ch-image gets content addressing for free from git's object
//! store; here this crate plays the same role — deterministic,
//! collision-resistant, and dependency-free (the workspace builds
//! offline).
//!
//! The hash has two compress backends behind one API. On x86-64 CPUs
//! with SHA-NI (checked at run time with `is_x86_feature_detected!`,
//! together with SSSE3 and SSE4.1) full blocks go through
//! `sha256rnds2`/`sha256msg1`/`sha256msg2`; every other CPU and
//! architecture runs the portable compress. Detection is the only
//! switch — no feature flag, no environment variable — and both
//! backends yield the same bytes, which the differential tests below
//! pin. The SHA-NI kernel is itself safe code (value intrinsics only,
//! no pointer loads); the crate's one `unsafe` is the call into it once
//! detection has succeeded (`ni.rs`).
//!
//! This is the *bottom* of the dependency tree on purpose: `zr-vfs`
//! memoizes per-blob digests inside its copy-on-write file blobs, and
//! everything above (the image digest, the layer-cache keys, the
//! build-context digests, the CAS and wire verification) reuses this
//! crate instead of carrying its own hash.
//!
//! [`FieldDigest`] is the injectivity layer on top: every field is
//! length-prefixed before it reaches the hash, so `("ab", "c")` and
//! `("a", "bc")` can never collide by concatenation, which the
//! cross-crate property tests pin.

#![deny(unsafe_code)] // ni.rs opts back in for its one detected call
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod ni;

/// Round constants: fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash values: fractional parts of the square roots of the
/// first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// An incremental SHA-256 hasher (FIPS 180-4). Full blocks go to the
/// SHA-NI backend when the CPU has it, to the portable one otherwise;
/// both produce the same digest.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            h: H0,
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Pad, compress the tail, and return the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress)
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// [`update`](Self::update) over an explicit compress backend.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return; // block still partial; nothing else to absorb
            }
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, then buffer the tail.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.h, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`finalize`](Self::finalize) over an explicit compress backend:
    /// `0x80`, zero fill and the 64-bit bit length, written into the
    /// block buffer at once (one extra block when the tail leaves no
    /// room for the length).
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.h, &self.buf);
            self.buf[..56].fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.buf);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress a whole number of 64-byte blocks into `state` on the best
/// backend this CPU runs. Detection is the only switch.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::ShaNi::detect() {
        return ni.compress(state, blocks);
    }
    compress_portable(state, blocks);
}

/// The portable compress backend (FIPS 180-4 §6.2.2), used on every CPU
/// without SHA-NI.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (t, chunk) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (slot, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// Lowercase hex rendering of a digest.
pub fn hex(bytes: &[u8]) -> String {
    let mut s = Vec::with_capacity(bytes.len() * 2);
    push_hex(&mut s, bytes);
    String::from_utf8(s).expect("hex digits are ASCII")
}

/// Append the lowercase hex rendering of `bytes` to `out` — [`hex`]
/// for encoders that write digests into a larger buffer.
pub fn push_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    // Branch-free nibble → ASCII, so the loop vectorizes: content
    // addresses are rendered once per blob, record entry and cache key.
    fn digit(nibble: u8) -> u8 {
        nibble + if nibble < 10 { b'0' } else { b'a' - 10 }
    }
    let start = out.len();
    out.resize(start + bytes.len() * 2, 0);
    for (pair, &b) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair[0] = digit(b >> 4);
        pair[1] = digit(b & 0x0f);
    }
}

/// A digest over a *sequence of fields*: each field is written as an
/// 8-byte little-endian length followed by its bytes, so field
/// boundaries are part of the hashed message. Two field sequences
/// produce the same digest only if they are equal field-for-field —
/// the property the layer-cache key relies on.
#[derive(Debug, Clone)]
pub struct FieldDigest {
    inner: Sha256,
}

impl FieldDigest {
    /// A digest writer, domain-separated by `domain` (itself the first
    /// field, so different consumers can never collide).
    pub fn new(domain: &str) -> FieldDigest {
        let mut d = FieldDigest {
            inner: Sha256::new(),
        };
        d.field(domain.as_bytes());
        d
    }

    /// Append one length-prefixed field.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.inner.update(&(bytes.len() as u64).to_le_bytes());
        self.inner.update(bytes);
        self
    }

    /// Finish and render the digest as 64 hex characters.
    pub fn finish(self) -> String {
        hex(&self.inner.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST example vectors.
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input_crosses_block_boundaries() {
        // One million 'a' bytes, absorbed in awkward chunk sizes.
        let mut h = Sha256::new();
        let chunk = [b'a'; 997];
        let mut fed = 0usize;
        while fed < 1_000_000 {
            let take = chunk.len().min(1_000_000 - fed);
            h.update(&chunk[..take]);
            fed += take;
        }
        assert_eq!(hex(&h.finalize()), MILLION_A);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(data), "split at {split}");
        }
    }

    /// NIST's one-million-`a` vector.
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    /// Digest of `parts` fed in order through one backend.
    fn digest_parts(parts: &[&[u8]], compress: impl Fn(&mut [u32; 8], &[u8]) + Copy) -> [u8; 32] {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, compress);
        }
        h.finish(compress)
    }

    /// Deterministic test bytes (xorshift64).
    fn pseudo_random(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn portable_backend_matches_vectors() {
        assert_eq!(
            hex(&digest_parts(&[b"abc"], compress_portable)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest_parts(&[&million], compress_portable)),
            MILLION_A
        );
    }

    #[cfg(target_arch = "x86_64")]
    mod sha_ni {
        use super::super::ni::ShaNi;
        use super::*;

        /// The SHA-NI backend, or `None` (with a note) on a CPU without
        /// it — the portable tests above still cover the fallback.
        fn ni() -> Option<ShaNi> {
            let ni = ShaNi::detect();
            if ni.is_none() {
                eprintln!("note: this CPU lacks SHA-NI; skipping the SHA-NI side");
            }
            ni
        }

        #[test]
        fn backends_agree_on_every_length() {
            let Some(ni) = ni() else { return };
            let data = pseudo_random(1024, 0x5eed);
            for len in 0..=data.len() {
                let msg = &data[..len];
                assert_eq!(
                    digest_parts(&[msg], compress_portable),
                    digest_parts(&[msg], |s, b| ni.compress(s, b)),
                    "length {len}"
                );
            }
        }

        #[test]
        fn backends_agree_on_random_splits() {
            let Some(ni) = ni() else { return };
            let data = pseudo_random(4096, 7);
            let mut seed = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..200 {
                // Up to four cut points anywhere in the message.
                let mut cuts: Vec<usize> = (0..4)
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        (seed % (data.len() as u64 + 1)) as usize
                    })
                    .collect();
                cuts.sort_unstable();
                let mut parts = Vec::new();
                let mut at = 0;
                for cut in cuts {
                    parts.push(&data[at..cut]);
                    at = cut;
                }
                parts.push(&data[at..]);
                let want = digest_parts(&[&data], compress_portable);
                assert_eq!(digest_parts(&parts, compress_portable), want);
                assert_eq!(digest_parts(&parts, |s, b| ni.compress(s, b)), want);
            }
        }

        #[test]
        fn backends_agree_on_million_a() {
            let Some(ni) = ni() else { return };
            let million = vec![b'a'; 1_000_000];
            assert_eq!(
                hex(&digest_parts(&[&million], |s, b| ni.compress(s, b))),
                MILLION_A
            );
        }
    }

    #[test]
    fn hex_renders_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), want);
        assert_eq!(hex(&[]), "");
        let mut out = b"sha256:".to_vec();
        push_hex(&mut out, &[0x0f, 0xa0]);
        assert_eq!(out, b"sha256:0fa0");
    }

    #[test]
    fn field_boundaries_are_injective() {
        let mut a = FieldDigest::new("t");
        a.field(b"ab").field(b"c");
        let mut b = FieldDigest::new("t");
        b.field(b"a").field(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domains_separate() {
        let a = FieldDigest::new("one").finish();
        let b = FieldDigest::new("two").finish();
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
    }
}
