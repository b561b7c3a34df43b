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
//! The compression function has two kernels, and the CPU picks one at
//! run time. On an x86-64 CPU that reports the SHA extensions (and
//! SSE4.1), `compress_sha` runs the eighty rounds as twenty
//! `sha1rnds4`s; everywhere else the portable `compress_portable` runs.
//! The two are bit-identical, so every tree, count and virtual time is
//! the same on either. The hardware kernel is a safe
//! `#[target_feature]` function; calling it is `unsafe` only because
//! the caller must vouch that the CPU has those features, and the one
//! call sits behind the check that does.

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32,
    _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
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
    rounds(&mut s, &mut w, 40, |b, c, d| (b & c) | (b & d) | (c & d), 0x8F1BBCDC);
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
                    assert_eq!(child, reference_child(parent, i), "{name}, parent {p}, index {i}");
                }
            }
        }
    }

    #[test]
    fn spawn_child_is_pinned() {
        assert_eq!(hex(&spawn_child(&root_state(5), 3)), "97df2befffb3e8a9e35d038e84b16f66e2499205");
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
        assert_eq!(
            hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
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
