//! FIPS-180 SHA-1, implemented from scratch.
//!
//! UTS derives its splittable deterministic random stream from SHA-1
//! ("the tree is constructed using a random stream generated using the
//! SHA-1 secure hash algorithm", paper §5.2.2). SHA-1 is long broken for
//! security, but UTS only needs a well-mixed deterministic function —
//! and using the same primitive keeps our trees statistically faithful
//! to the original benchmark. Implemented here rather than pulled in as
//! a dependency (see DESIGN.md's dependency policy); verified against
//! the FIPS-180 / RFC 3174 test vectors below.
//!
//! Three kernels hash a block, and the CPU picks among them at run
//! time; all are bit-identical, so every tree, count and virtual time is
//! the same on any of them.
//!
//! - [`spawn_child`] and [`sha1`] hash one block at a time through
//!   `compress`. On an x86-64 CPU that reports the SHA extensions (and
//!   SSE4.1), it runs `compress_sha`, the eighty rounds as twenty
//!   `sha1rnds4`s; everywhere else the portable `compress_portable`.
//!   The UTS handlers derive every child this way.
//! - [`spawn_children`] derives many children, [`LANES`] a call. On an
//!   x86-64 CPU that reports `avx512f` it runs `spawn_children_avx512`,
//!   one child per 32-bit lane (`vprold` rotates, `vpternlogd` mixes);
//!   everywhere else each child goes through [`spawn_child`]. Only the
//!   sequential oracle (`UtsParams::sequential_count`) calls it, so on
//!   an AVX-512 host every checked run compares two independent kernels.
//!
//! The hardware kernels are safe `#[target_feature]` functions; calling
//! one is `unsafe` only because the caller must vouch that the CPU has
//! its features, and each of the two calls sits behind the check that
//! does.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_extracti32x4_epi32, _mm512_rol_epi32,
    _mm512_set1_epi32, _mm512_set_epi32, _mm512_ternarylogic_epi32, _mm512_xor_si512,
    _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
    _mm_sha1rnds4_epu32, _mm_xor_si128,
};

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 20;

/// The initial chaining state.
const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// The twenty rounds `from..from + 20` of one round group (mixing
/// function `f`, constant `k`). Schedule words past the sixteenth are
/// computed in place over the word sixteen rounds back — the block's
/// 80-word expansion never exists. The working variables rotate by index,
/// not by moves: after `j` rounds `(a, b, c, d, e)` are `s[(0..5) - j]`,
/// and with five rounds per turn the inner loop unrolls to constants.
#[inline(always)]
fn rounds(
    s: &mut [u32; 5],
    w: &mut [u32; 16],
    from: usize,
    f: impl Fn(u32, u32, u32) -> u32,
    k: u32,
) {
    for turn in (from..from + 20).step_by(5) {
        for j in 0..5 {
            let i = turn + j;
            if i >= 16 {
                w[i % 16] = (w[(i + 13) % 16] ^ w[(i + 8) % 16] ^ w[(i + 2) % 16] ^ w[i % 16])
                    .rotate_left(1);
            }
            let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|v| (v + 5 - j) % 5);
            s[e] = s[e]
                .wrapping_add(s[a].rotate_left(5))
                .wrapping_add(f(s[b], s[c], s[d]))
                .wrapping_add(k)
                .wrapping_add(w[i % 16]);
            s[b] = s[b].rotate_left(30);
        }
    }
}

/// The portable compression function: fold one 64-byte `block` into the
/// chaining state `h`. Every CPU without the SHA extensions runs it.
#[inline(always)]
fn compress_portable(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, &bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(bytes);
    }
    let mut s = *h;
    rounds(&mut s, &mut w, 0, |b, c, d| (b & c) | (!b & d), 0x5A827999);
    rounds(&mut s, &mut w, 20, |b, c, d| b ^ c ^ d, 0x6ED9EBA1);
    rounds(
        &mut s,
        &mut w,
        40,
        |b, c, d| (b & c) | (b & d) | (c & d),
        0x8F1BBCDC,
    );
    rounds(&mut s, &mut w, 60, |b, c, d| b ^ c ^ d, 0xCA62C1D6);
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

/// The twenty rounds `20 * FUNC..20 * FUNC + 20`, five groups of four.
/// `sha1nexte` adds the group's `e` (the `a` of `back`, rotated) to its
/// first schedule word, and `sha1rnds4` runs its rounds with the mixing
/// function and constant `FUNC`. The window `w` holds the schedule words
/// of this group and the next three; `sha1msg1`/`sha1msg2` extend it by
/// the group after those (the last four extensions are never read, and
/// compile away).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1")]
#[inline]
fn sha_rounds<const FUNC: i32>(abcd: &mut __m128i, back: &mut __m128i, w: &mut [__m128i; 4]) {
    for _ in 0..5 {
        let e = _mm_sha1nexte_epu32(*back, w[0]);
        *back = *abcd;
        *abcd = _mm_sha1rnds4_epu32::<FUNC>(*abcd, e);
        let next = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32(w[0], w[1]), w[2]), w[3]);
        *w = [w[1], w[2], w[3], next];
    }
}

/// The compression function on the x86-64 SHA extensions. A vector
/// holds four words, the first in the top lane: the state `abcd`, and
/// the four schedule words of each group of four rounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1")]
fn compress_sha(h: &mut [u32; 5], block: &[u8; 64]) {
    let words = block.as_chunks::<4>().0;
    let word = |i: usize| u32::from_be_bytes(words[i]) as i32;
    let mut w: [__m128i; 4] = core::array::from_fn(|g| {
        _mm_set_epi32(
            word(4 * g),
            word(4 * g + 1),
            word(4 * g + 2),
            word(4 * g + 3),
        )
    });
    let mut abcd = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
    // The state four rounds back. Seeded with `e` rotated back, so that
    // the first group derives its `e` like every other.
    let mut back = _mm_set_epi32(h[4].rotate_right(30) as i32, 0, 0, 0);
    sha_rounds::<0>(&mut abcd, &mut back, &mut w);
    sha_rounds::<1>(&mut abcd, &mut back, &mut w);
    sha_rounds::<2>(&mut abcd, &mut back, &mut w);
    sha_rounds::<3>(&mut abcd, &mut back, &mut w);
    let s = [
        _mm_extract_epi32::<3>(abcd),
        _mm_extract_epi32::<2>(abcd),
        _mm_extract_epi32::<1>(abcd),
        _mm_extract_epi32::<0>(abcd),
        (_mm_extract_epi32::<3>(back) as u32).rotate_left(30) as i32,
    ];
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si as u32);
    }
}

/// Whether the CPU reports every feature `compress_sha` enables.
#[cfg(target_arch = "x86_64")]
fn has_sha_extensions() -> bool {
    is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
}

/// The SHA-1 compression function: fold one 64-byte `block` into the
/// chaining state `h`, on the SHA extensions when the CPU has them.
#[inline(always)]
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if has_sha_extensions() {
        // SAFETY: the CPU reports `sha` and `sse4.1`, every feature
        // `compress_sha` enables.
        return unsafe { compress_sha(h, block) };
    }
    compress_portable(h, block)
}

/// The chaining state as the big-endian digest.
fn digest(h: [u32; 5]) -> [u8; DIGEST_BYTES] {
    let mut out = [0u8; DIGEST_BYTES];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(h) {
        *bytes = word.to_be_bytes();
    }
    out
}

/// Compute the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
    sha1_with(compress, data)
}

/// [`sha1`] on the compression kernel `compress`.
#[inline(always)]
fn sha1_with(compress: impl Fn(&mut [u32; 5], &[u8; 64]), data: &[u8]) -> [u8; DIGEST_BYTES] {
    let (blocks, rest) = data.as_chunks::<64>();
    // Message padding: 0x80, zeros, 64-bit big-endian bit length — one
    // more block when the remainder leaves room for the nine bytes, else
    // two.
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    let mut h = H0;
    for block in blocks.iter().chain(tail[..end].as_chunks::<64>().0) {
        compress(&mut h, block);
    }
    digest(h)
}

/// UTS child derivation: digest of `parent || child_index` (index as
/// 4-byte big-endian), matching the original benchmark's brg_sha1 rng
/// spawn operation. The 24-byte message and its padding are one block.
pub fn spawn_child(parent: &[u8; DIGEST_BYTES], child_index: u32) -> [u8; DIGEST_BYTES] {
    spawn_child_with(compress, parent, child_index)
}

/// [`spawn_child`] on the compression kernel `compress`.
#[inline(always)]
fn spawn_child_with(
    compress: impl Fn(&mut [u32; 5], &[u8; 64]),
    parent: &[u8; DIGEST_BYTES],
    child_index: u32,
) -> [u8; DIGEST_BYTES] {
    const MSG_BYTES: usize = DIGEST_BYTES + 4;
    let mut block = [0u8; 64];
    block[..DIGEST_BYTES].copy_from_slice(parent);
    block[DIGEST_BYTES..MSG_BYTES].copy_from_slice(&child_index.to_be_bytes());
    block[MSG_BYTES] = 0x80;
    block[56..].copy_from_slice(&(MSG_BYTES as u64 * 8).to_be_bytes());
    let mut h = H0;
    compress(&mut h, &block);
    digest(h)
}

/// Children [`spawn_children`] derives per kernel call: one per 32-bit
/// lane of an AVX-512 register.
pub const LANES: usize = 16;

/// [`spawn_child`] of every `(parent, index)` in `jobs`: `out[i]` becomes
/// `spawn_child(&jobs[i].0, jobs[i].1)`, and `out` past `jobs.len()` is
/// left as it was (it panics if `out` is shorter). On a CPU that reports
/// `avx512f` the children are hashed [`LANES`] at a time in one AVX-512
/// kernel, a lane each; elsewhere one at a time by [`spawn_child`].
pub fn spawn_children(jobs: &[([u8; DIGEST_BYTES], u32)], out: &mut [[u8; DIGEST_BYTES]]) {
    let out = &mut out[..jobs.len()];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU reports `avx512f`, the one feature
        // `spawn_children_avx512` enables.
        return unsafe { spawn_children_avx512(jobs, out) };
    }
    spawn_children_each(jobs, out)
}

/// [`spawn_children`] one child at a time: what every CPU without
/// AVX-512 runs.
pub(crate) fn spawn_children_each(
    jobs: &[([u8; DIGEST_BYTES], u32)],
    out: &mut [[u8; DIGEST_BYTES]],
) {
    for (child, (parent, index)) in out.iter_mut().zip(jobs) {
        *child = spawn_child(parent, *index);
    }
}

/// A vector whose lane `l` is `word(l)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn gather(word: impl Fn(usize) -> u32) -> __m512i {
    let w = |l: usize| word(l) as i32;
    _mm512_set_epi32(
        w(15),
        w(14),
        w(13),
        w(12),
        w(11),
        w(10),
        w(9),
        w(8),
        w(7),
        w(6),
        w(5),
        w(4),
        w(3),
        w(2),
        w(1),
        w(0),
    )
}

/// The lanes of `v`, lane 0 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn scatter(v: __m512i) -> [u32; LANES] {
    let quarters = [
        _mm512_extracti32x4_epi32::<0>(v),
        _mm512_extracti32x4_epi32::<1>(v),
        _mm512_extracti32x4_epi32::<2>(v),
        _mm512_extracti32x4_epi32::<3>(v),
    ];
    let mut lanes = [0; LANES];
    for (four, q) in lanes.as_chunks_mut::<4>().0.iter_mut().zip(quarters) {
        *four = [
            _mm_extract_epi32::<0>(q),
            _mm_extract_epi32::<1>(q),
            _mm_extract_epi32::<2>(q),
            _mm_extract_epi32::<3>(q),
        ]
        .map(|word| word as u32);
    }
    lanes
}

/// [`rounds`] on sixteen lanes, from round `FROM`: the mixing function
/// is the `vpternlogd` truth table `FUNC` of `(b, c, d)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn lane_rounds<const FUNC: i32, const FROM: usize>(
    s: &mut [__m512i; 5],
    w: &mut [__m512i; 16],
    k: u32,
) {
    let k = _mm512_set1_epi32(k as i32);
    for turn in (FROM..FROM + 20).step_by(5) {
        for j in 0..5 {
            let i = turn + j;
            if i >= 16 {
                let x = _mm512_xor_si512(
                    _mm512_xor_si512(w[(i + 13) % 16], w[(i + 8) % 16]),
                    w[(i + 2) % 16],
                );
                w[i % 16] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[i % 16]));
            }
            let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(|v| (v + 5 - j) % 5);
            let f = _mm512_ternarylogic_epi32::<FUNC>(s[b], s[c], s[d]);
            let t = _mm512_add_epi32(_mm512_add_epi32(k, w[i % 16]), f);
            s[e] = _mm512_add_epi32(_mm512_add_epi32(s[e], _mm512_rol_epi32::<5>(s[a])), t);
            s[b] = _mm512_rol_epi32::<30>(s[b]);
        }
    }
}

/// [`spawn_children`] on AVX-512, [`LANES`] children a call of the
/// compression function: lane `l` of every vector is job `l`'s block.
/// Only a block's first six words (the parent's five and the index)
/// differ between lanes; the rest is padding. A short last chunk fills
/// its spare lanes with its last job and keeps none of them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn spawn_children_avx512(jobs: &[([u8; DIGEST_BYTES], u32)], out: &mut [[u8; DIGEST_BYTES]]) {
    for (jobs, out) in jobs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        let job = |l: usize| &jobs[l.min(jobs.len() - 1)];
        let mut w = [_mm512_set1_epi32(0); 16];
        for (i, wi) in w[..5].iter_mut().enumerate() {
            *wi = gather(|l| u32::from_be_bytes(job(l).0.as_chunks::<4>().0[i]));
        }
        w[5] = gather(|l| job(l).1);
        w[6] = _mm512_set1_epi32(0x8000_0000u32 as i32);
        w[15] = _mm512_set1_epi32((DIGEST_BYTES as i32 + 4) * 8);
        let mut s = H0.map(|h| _mm512_set1_epi32(h as i32));
        lane_rounds::<0xCA, 0>(&mut s, &mut w, 0x5A827999);
        lane_rounds::<0x96, 20>(&mut s, &mut w, 0x6ED9EBA1);
        lane_rounds::<0xE8, 40>(&mut s, &mut w, 0x8F1BBCDC);
        lane_rounds::<0x96, 60>(&mut s, &mut w, 0xCA62C1D6);
        for (j, (&h, si)) in H0.iter().zip(s).enumerate() {
            let words = scatter(_mm512_add_epi32(_mm512_set1_epi32(h as i32), si));
            for (child, word) in out.iter_mut().zip(words) {
                child.as_chunks_mut::<4>().0[j] = word.to_be_bytes();
            }
        }
    }
}

/// UTS root derivation from a scalar seed.
pub fn root_state(seed: u32) -> [u8; DIGEST_BYTES] {
    sha1(&seed.to_be_bytes())
}

/// Largest value of [`rand_bits`].
pub const RAND_MAX: u32 = 0x7FFF_FFFF;

/// A digest's random draw: its leading 31 bits as a non-negative integer
/// (UTS's `rng_rand(state)`).
pub fn rand_bits(state: &[u8; DIGEST_BYTES]) -> u32 {
    let [a, b, c, d, ..] = *state;
    u32::from_be_bytes([a, b, c, d]) & RAND_MAX
}

/// Map a digest to a uniform value in [0, 1): [`rand_bits`] over 2³¹,
/// matching UTS's `rng_toProb(rng_rand(state))`.
pub fn to_prob(state: &[u8; DIGEST_BYTES]) -> f64 {
    rand_bits(state) as f64 / (1u64 << 31) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The straightforward FIPS-180 transcription (padded copy of the
    /// message, full 80-word schedule) the block-wise code replaced —
    /// its reference.
    fn reference_sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut h = H0;
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut w = [0u32; 80];
        for block in msg.chunks_exact(64) {
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(word.try_into().unwrap());
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                (a, b, c, d, e) = (tmp, a, b.rotate_left(30), c, d);
            }
            for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
                *hi = hi.wrapping_add(v);
            }
        }
        digest(h)
    }

    type Kernel = fn(&mut [u32; 5], &[u8; 64]);

    /// The compression kernels under test, by name: the portable one on
    /// every host, and the SHA-extensions one only when the CPU reports
    /// its features (through `compress`, which picks it there: the
    /// kernel itself is no safe `fn` pointer).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if has_sha_extensions() {
            kernels.push(("sha extensions", compress));
        }
        kernels
    }

    /// The reference's digest of `parent || child_index`.
    fn reference_child(parent: &[u8; DIGEST_BYTES], child_index: u32) -> [u8; DIGEST_BYTES] {
        let mut msg = [0u8; DIGEST_BYTES + 4];
        msg[..DIGEST_BYTES].copy_from_slice(parent);
        msg[DIGEST_BYTES..].copy_from_slice(&child_index.to_be_bytes());
        reference_sha1(&msg)
    }

    /// Each of [`kernels`] against the reference; on a CPU without the SHA
    /// extensions, only the portable half runs.
    #[test]
    fn matches_reference_across_every_padding_shape() {
        let data: Vec<u8> = (0..130u32).map(|i| (i * 89 + 3) as u8).collect();
        for (name, kernel) in kernels() {
            for len in 0..=data.len() {
                let digest = sha1_with(kernel, &data[..len]);
                assert_eq!(digest, reference_sha1(&data[..len]), "{name}, len {len}");
            }
        }
    }

    /// Each of [`kernels`] against the reference; on a CPU without the SHA
    /// extensions, only the portable half runs.
    #[test]
    fn spawn_child_matches_reference_over_a_chain() {
        for (name, kernel) in kernels() {
            let mut state = root_state(5);
            for i in 0..10_000u32 {
                let child = spawn_child_with(kernel, &state, i % 7);
                assert_eq!(child, reference_child(&state, i % 7), "{name}, link {i}");
                state = child;
            }
        }
    }

    /// Each of [`kernels`] against the reference, under the root and two
    /// other parents; on a CPU without the SHA extensions, only the
    /// portable half runs.
    #[test]
    fn spawn_child_matches_reference_at_every_child_index() {
        let root = root_state(5);
        let parents = [root, spawn_child(&root, 0), spawn_child(&root, 200)];
        for (name, kernel) in kernels() {
            for (p, parent) in parents.iter().enumerate() {
                // 200 is UTS's clamp on the child count.
                for i in 0..=200u32 {
                    let child = spawn_child_with(kernel, parent, i);
                    assert_eq!(
                        child,
                        reference_child(parent, i),
                        "{name}, parent {p}, index {i}"
                    );
                }
            }
        }
    }

    type BatchKernel = fn(&[([u8; DIGEST_BYTES], u32)], &mut [[u8; DIGEST_BYTES]]);

    /// The batch kernels under test, by name: one child at a time on every
    /// host, and the AVX-512 one only when the CPU reports `avx512f`
    /// (through `spawn_children`, which picks it there).
    fn batch_kernels() -> Vec<(&'static str, BatchKernel)> {
        #[allow(unused_mut)]
        let mut kernels: Vec<(&'static str, BatchKernel)> = vec![("each", spawn_children_each)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            kernels.push(("avx512f", spawn_children));
        }
        kernels
    }

    /// Each of [`batch_kernels`] against the reference at every child
    /// index of three parents, [`LANES`] children a call.
    #[test]
    fn spawn_children_matches_reference_at_every_child_index() {
        let root = root_state(5);
        let parents = [root, spawn_child(&root, 0), spawn_child(&root, 200)];
        for (name, kernel) in batch_kernels() {
            for (p, parent) in parents.iter().enumerate() {
                let jobs: Vec<_> = (0..=200u32).map(|i| (*parent, i)).collect();
                for batch in jobs.chunks(LANES) {
                    let mut out = [[0; DIGEST_BYTES]; LANES];
                    kernel(batch, &mut out);
                    for (&(parent, i), child) in batch.iter().zip(&out) {
                        assert_eq!(
                            *child,
                            reference_child(&parent, i),
                            "{name}, parent {p}, index {i}"
                        );
                    }
                }
            }
        }
    }

    /// Sixteen parents in one call: each lane reads its own parent.
    #[test]
    fn spawn_children_keeps_sixteen_parents_apart() {
        let mut state = root_state(7);
        let jobs: [([u8; DIGEST_BYTES], u32); LANES] = core::array::from_fn(|l| {
            state = spawn_child(&state, l as u32);
            (state, (l * 13 % 7) as u32)
        });
        for (name, kernel) in batch_kernels() {
            let mut out = [[0; DIGEST_BYTES]; LANES];
            kernel(&jobs, &mut out);
            for (l, (&(parent, i), child)) in jobs.iter().zip(&out).enumerate() {
                assert_eq!(*child, reference_child(&parent, i), "{name}, lane {l}");
            }
        }
    }

    /// A call with `n < LANES` jobs, right after a full one, writes the
    /// first `n` children and nothing past them, whatever the kernel's
    /// spare lanes hold.
    #[test]
    fn spawn_children_writes_only_the_jobs_of_a_partial_call() {
        let root = root_state(11);
        let full: Vec<_> = (0..LANES as u32)
            .map(|i| (spawn_child(&root, i), 100 + i))
            .collect();
        let jobs: Vec<_> = (0..LANES as u32).map(|i| (root, i)).collect();
        const UNTOUCHED: [u8; DIGEST_BYTES] = [0xA5; DIGEST_BYTES];
        for (name, kernel) in batch_kernels() {
            for n in 1..LANES {
                kernel(&full, &mut [[0; DIGEST_BYTES]; LANES]);
                let mut out = [UNTOUCHED; LANES];
                kernel(&jobs[..n], &mut out);
                for (l, child) in out.iter().enumerate() {
                    let want = if l < n {
                        reference_child(&root, l as u32)
                    } else {
                        UNTOUCHED
                    };
                    assert_eq!(*child, want, "{name}, {n} jobs, lane {l}");
                }
            }
        }
    }

    /// More than [`LANES`] jobs in one call are hashed a chunk at a time.
    #[test]
    fn spawn_children_takes_any_number_of_jobs() {
        let root = root_state(3);
        let jobs: Vec<_> = (0..37u32).map(|i| (root, i)).collect();
        let mut out = vec![[0; DIGEST_BYTES]; jobs.len()];
        spawn_children(&jobs, &mut out);
        for (&(parent, i), child) in jobs.iter().zip(&out) {
            assert_eq!(*child, reference_child(&parent, i), "index {i}");
        }
    }

    #[test]
    fn spawn_child_is_pinned() {
        assert_eq!(
            hex(&spawn_child(&root_state(5), 3)),
            "97df2befffb3e8a9e35d038e84b16f66e2499205"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding edges must all
        // produce distinct, stable digests.
        let mut digests = std::collections::HashSet::new();
        for len in 54..=66 {
            let data = vec![0x5Au8; len];
            assert!(digests.insert(sha1(&data)), "collision at len {len}");
        }
    }

    #[test]
    fn child_spawning_is_deterministic_and_splittable() {
        let root = root_state(19);
        let c0 = spawn_child(&root, 0);
        let c1 = spawn_child(&root, 1);
        assert_ne!(c0, c1, "children differ");
        assert_eq!(c0, spawn_child(&root, 0), "deterministic");
        // Grandchildren from different parents differ.
        assert_ne!(spawn_child(&c0, 0), spawn_child(&c1, 0));
    }

    #[test]
    fn to_prob_in_unit_interval_and_spread() {
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        let mut s = root_state(7);
        for i in 0..1000 {
            let p = to_prob(&s);
            assert!((0.0..1.0).contains(&p));
            lo = lo.min(p);
            hi = hi.max(p);
            s = spawn_child(&s, i);
        }
        // A healthy mix should span most of the interval.
        assert!(lo < 0.05 && hi > 0.95, "lo {lo}, hi {hi}");
    }
}
