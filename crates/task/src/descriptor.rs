//! Fixed-size, position-independent task records.

/// Maximum bytes a task record may occupy in a queue (header + payload).
/// The paper's workloads use 24–192-byte tasks (Table 2, Fig. 6); 256
/// leaves headroom while keeping descriptors `Copy`.
pub const MAX_TASK_BYTES: usize = 256;

/// Header bytes: function id (2) + payload length (2) + reserved (4).
const HEADER_BYTES: usize = 8;

/// Maximum payload bytes in one task.
pub const MAX_PAYLOAD: usize = MAX_TASK_BYTES - HEADER_BYTES;

/// One task: a function id plus an opaque payload.
///
/// A descriptor encodes to `record_words` 64-bit heap words (the queue's
/// fixed task size) and back. Word 0 holds `fn_id | len << 16`; payload
/// bytes follow little-endian. Records are self-contained: any PE holding
/// the registry can execute a stolen record.
#[derive(Clone, Copy)]
pub struct TaskDescriptor {
    fn_id: u16,
    len: u16,
    payload: [u8; MAX_PAYLOAD],
}

impl TaskDescriptor {
    /// Build a task for handler `fn_id` with `payload` bytes.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_PAYLOAD`] bytes.
    pub fn new(fn_id: u16, payload: &[u8]) -> TaskDescriptor {
        assert!(
            payload.len() <= MAX_PAYLOAD,
            "task payload of {} bytes exceeds the {MAX_PAYLOAD}-byte limit",
            payload.len()
        );
        let mut buf = [0u8; MAX_PAYLOAD];
        buf[..payload.len()].copy_from_slice(payload);
        TaskDescriptor {
            fn_id,
            len: payload.len() as u16,
            payload: buf,
        }
    }

    /// The handler id this task names.
    #[inline]
    pub fn fn_id(&self) -> u16 {
        self.fn_id
    }

    /// The payload bytes.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.payload[..self.len as usize]
    }

    /// Number of heap words needed for a record of `task_bytes` bytes.
    #[inline]
    pub fn words_for(task_bytes: usize) -> usize {
        task_bytes.div_ceil(8)
    }

    /// Smallest record size (bytes) able to carry this task.
    #[inline]
    pub fn bytes_needed(&self) -> usize {
        HEADER_BYTES + self.len as usize
    }

    /// Encode into a fixed-size record of `words.len()` heap words
    /// ([`encode_record`] on this task's parts; panics as it does).
    pub fn encode(&self, words: &mut [u64]) {
        encode_record(self.fn_id, self.payload(), words);
    }

    /// Decode from a record previously produced by [`Self::encode`]
    /// ([`decode_record`] into a fresh descriptor; panics as it does).
    pub fn decode(words: &[u64]) -> TaskDescriptor {
        let mut payload = [0u8; MAX_PAYLOAD];
        let (fn_id, len) = decode_record(words, &mut payload);
        TaskDescriptor {
            fn_id,
            len: len as u16,
            payload,
        }
    }
}

/// Encode a task — handler `fn_id` plus `payload` — into the fixed-size
/// record `words`, a word at a time; words past the payload are zeroed,
/// so a record is a function of the task alone.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`] or the record is too
/// small for it.
pub fn encode_record(fn_id: u16, payload: &[u8], words: &mut [u64]) {
    let len = payload.len();
    assert!(
        len <= MAX_PAYLOAD,
        "task payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
    );
    let need = TaskDescriptor::words_for(HEADER_BYTES + len);
    assert!(
        need <= words.len(),
        "task fn_id {fn_id} with a {len}-byte payload needs {need} words, record holds {} ({} bytes)",
        words.len(),
        words.len() * 8
    );
    words[0] = (fn_id as u64) | ((len as u64) << 16);
    let (whole, tail) = payload.as_chunks::<8>();
    let (body, slack) = words[1..].split_at_mut(whole.len());
    for (w, chunk) in body.iter_mut().zip(whole) {
        *w = u64::from_le_bytes(*chunk);
    }
    slack.fill(0);
    if !tail.is_empty() {
        let mut b = [0u8; 8];
        b[..tail.len()].copy_from_slice(tail);
        slack[0] = u64::from_le_bytes(b);
    }
}

/// Decode the record `words` into the caller's `payload` buffer and
/// return `(fn_id, len)`: the task's payload is `payload[..len]`, bytes
/// past `len` are left as they were.
///
/// # Panics
/// Panics if the record's stated length exceeds the record or the
/// payload limit (a corrupt record — surfacing early beats silently
/// executing garbage).
pub fn decode_record(words: &[u64], payload: &mut [u8; MAX_PAYLOAD]) -> (u16, usize) {
    assert!(!words.is_empty(), "empty task record");
    let header = words[0];
    let fn_id = (header & 0xFFFF) as u16;
    let len = ((header >> 16) & 0xFFFF) as usize;
    assert!(
        len <= MAX_PAYLOAD && TaskDescriptor::words_for(HEADER_BYTES + len) <= words.len(),
        "corrupt task record: payload length {len} exceeds record"
    );
    let (whole, tail) = payload[..len].as_chunks_mut::<8>();
    for (chunk, w) in whole.iter_mut().zip(&words[1..]) {
        *chunk = w.to_le_bytes();
    }
    if !tail.is_empty() {
        let last = words[1 + whole.len()].to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
    (fn_id, len)
}

impl std::fmt::Debug for TaskDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskDescriptor")
            .field("fn_id", &self.fn_id)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl PartialEq for TaskDescriptor {
    fn eq(&self, other: &Self) -> bool {
        self.fn_id == other.fn_id && self.payload() == other.payload()
    }
}
impl Eq for TaskDescriptor {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 7, 8, 9, 16, 24, 40, 184, MAX_PAYLOAD] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let t = TaskDescriptor::new(42, &payload);
            let words = TaskDescriptor::words_for(t.bytes_needed());
            let mut rec = vec![0u64; words];
            t.encode(&mut rec);
            let back = TaskDescriptor::decode(&rec);
            assert_eq!(back, t, "len {len}");
            assert_eq!(back.fn_id(), 42);
            assert_eq!(back.payload(), &payload[..]);
        }
    }

    #[test]
    fn encode_into_larger_record_is_fine() {
        let t = TaskDescriptor::new(7, &[1, 2, 3]);
        let mut rec = vec![0u64; 24]; // a 192-byte record
        t.encode(&mut rec);
        assert_eq!(TaskDescriptor::decode(&rec), t);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_rejected() {
        let _ = TaskDescriptor::new(0, &[0u8; MAX_PAYLOAD + 1]);
    }

    #[test]
    #[should_panic(expected = "record holds")]
    fn encode_into_too_small_record_panics() {
        let t = TaskDescriptor::new(0, &[0u8; 32]);
        let mut rec = vec![0u64; 2];
        t.encode(&mut rec);
    }

    #[test]
    #[should_panic(expected = "corrupt task record")]
    fn corrupt_length_detected() {
        // Header claims 100-byte payload in a 2-word record.
        let rec = [(100u64) << 16, 0];
        let _ = TaskDescriptor::decode(&rec);
    }

    #[test]
    fn words_for_matches_paper_sizes() {
        assert_eq!(TaskDescriptor::words_for(24), 3);
        assert_eq!(TaskDescriptor::words_for(32), 4);
        assert_eq!(TaskDescriptor::words_for(48), 6);
        assert_eq!(TaskDescriptor::words_for(192), 24);
    }

    /// The byte-at-a-time encoder the word-level codec replaced, kept as
    /// its reference.
    fn reference_encode(fn_id: u16, payload: &[u8], words: &mut [u64]) {
        words.fill(0);
        words[0] = (fn_id as u64) | ((payload.len() as u64) << 16);
        for (i, &b) in payload.iter().enumerate() {
            words[1 + i / 8] |= (b as u64) << (8 * (i % 8));
        }
    }

    #[test]
    fn codec_matches_reference_for_every_length_and_record_size() {
        for len in 0..=MAX_PAYLOAD {
            let payload: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8 | 1).collect();
            let task = TaskDescriptor::new(0xBEEF, &payload);
            let need = TaskDescriptor::words_for(task.bytes_needed());
            for record_words in need..=MAX_TASK_BYTES / 8 {
                let mut want = vec![0u64; record_words];
                reference_encode(0xBEEF, &payload, &mut want);
                // Stale record contents must not survive an encode.
                let mut parts = vec![u64::MAX; record_words];
                encode_record(0xBEEF, &payload, &mut parts);
                assert_eq!(parts, want, "len {len}, {record_words} words");
                let mut whole = vec![u64::MAX; record_words];
                task.encode(&mut whole);
                assert_eq!(whole, want, "len {len}, {record_words} words");

                let mut buf = [0xFFu8; MAX_PAYLOAD];
                assert_eq!(decode_record(&want, &mut buf), (0xBEEF, len));
                assert_eq!(&buf[..len], &payload[..]);
                assert!(
                    buf[len..].iter().all(|&b| b == 0xFF),
                    "decode wrote past len {len}"
                );

                // Junk above the payload's last byte stays out of the
                // descriptor.
                let mut junk = want.clone();
                if len % 8 != 0 {
                    junk[need - 1] |= u64::MAX << (8 * (len % 8));
                }
                let back = TaskDescriptor::decode(&junk);
                assert_eq!(back, task);
                assert!(back.payload[len..].iter().all(|&b| b == 0), "len {len}");
            }
        }
    }

    #[test]
    fn equality_ignores_slack_bytes() {
        let a = TaskDescriptor::new(1, &[9, 9]);
        let mut rec = vec![0u64; 4];
        a.encode(&mut rec);
        rec[3] = 0xDEAD_BEEF; // slack beyond the payload
        let b = TaskDescriptor::decode(&rec);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use sws_shmem::rng::SplitMix64;

    #[test]
    fn any_payload_roundtrips() {
        let mut rng = SplitMix64::new(0xDE5C_0001);
        for _ in 0..256 {
            let fn_id = rng.next_u64() as u16;
            let len = rng.below(MAX_PAYLOAD as u64 + 1) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let t = TaskDescriptor::new(fn_id, &payload);
            let words = TaskDescriptor::words_for(t.bytes_needed());
            let mut rec = vec![0u64; words];
            t.encode(&mut rec);
            let back = TaskDescriptor::decode(&rec);
            assert_eq!(back.fn_id(), fn_id);
            assert_eq!(back.payload(), &payload[..]);
        }
    }

    #[test]
    fn encode_is_stable_across_record_sizes() {
        let mut rng = SplitMix64::new(0xDE5C_0002);
        for _ in 0..256 {
            let len = rng.below(64) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let extra = rng.below(8) as usize;
            let t = TaskDescriptor::new(1, &payload);
            let min_words = TaskDescriptor::words_for(t.bytes_needed());
            let mut rec = vec![0u64; min_words + extra];
            t.encode(&mut rec);
            assert_eq!(TaskDescriptor::decode(&rec), t);
        }
    }
}
