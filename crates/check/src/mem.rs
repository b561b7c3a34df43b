//! The model-checked memory: a release/acquire operational semantics over
//! 64-bit words, driven by vector clocks.
//!
//! This is the `sws-check` replacement for real CPU atomics. Each word
//! keeps its full **modification order** (the list of stores ever made to
//! it); loads may legally read *any* store not superseded by one that
//! happens-before the reader — the explorer branches over every legal
//! choice, which is how stale RDMA/NIC reads are enumerated. Synchronizes-
//! with edges are modeled with vector clocks: a releasing store captures
//! the author's clock as the store's *message*, an acquiring load joins
//! the message into the reader's clock. RMWs always read the latest store
//! in modification order (atomicity) and continue the C++20 release
//! sequence: their store carries the message of the store they read,
//! joined with their own clock if they release.
//!
//! Two extra facilities catch protocol bugs an interleaving-only model
//! would miss:
//!
//! * [`Memory::read_fresh`] — for payload reads that the protocol claims
//!   are safe to treat as up-to-date (a thief copying its claimed block).
//!   If any *differing* stale value is legally readable, that is a
//!   [`Violation::StaleRead`] rather than a branch: the protocol's
//!   publication chain was too weak.
//! * **Read marks** — `read_fresh` records a (reader, timestamp) mark on
//!   the word; a later [`Memory::store_payload`] by another thread that
//!   does not happen-after the mark is a [`Violation::Race`] (the owner
//!   overwrote a ring slot a thief might still be copying).

use sws_core::protocol::Word as Place;
use sws_core::{AtomicSite, MemOrder, Weakening};
use sws_shmem::{OrderingOverrides, ProtoOp};

/// A vector clock over the model's threads.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// The zero clock for `n` threads.
    pub fn new(n: usize) -> VClock {
        VClock(vec![0; n])
    }

    /// Pointwise maximum.
    pub fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Does this clock cover event `seq` of thread `author`?
    /// The initial state (author [`INIT`]) is covered by every clock.
    pub fn covers(&self, author: usize, seq: u32) -> bool {
        author == INIT || self.0[author] >= seq
    }
}

/// Pseudo-thread id of the initial state: happens-before everything.
pub const INIT: usize = usize::MAX;

/// One store in a word's modification order.
#[derive(Clone, Debug, Hash)]
struct Store {
    val: u64,
    author: usize,
    seq: u32,
    /// Release-sequence message: the clock an acquiring reader joins.
    /// `None` for relaxed stores (which also *end* any prior sequence).
    msg: Option<VClock>,
}

/// A fresh-read mark left on a payload word (see module docs).
#[derive(Clone, Debug, Hash)]
struct Mark {
    reader: usize,
    seq: u32,
}

/// A word's modification order, whose first store is the initial value,
/// and its read marks. A word no op has touched holds no store yet: most
/// of the completion block is such words, and they cost a cloned state
/// nothing.
#[derive(Clone, Debug, Hash)]
struct Word {
    stores: Vec<Store>,
    marks: Vec<Mark>,
}

/// A property violation found by the checker. `Protocol` carries the
/// invariant-family rule name used in the audit table.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A read the protocol relies on being fresh could legally observe a
    /// stale, differing value.
    StaleRead {
        /// Word index.
        word: usize,
        /// Site issuing the read.
        site: AtomicSite,
        /// The stale value that was legally readable.
        stale: u64,
        /// The up-to-date value.
        latest: u64,
    },
    /// A store raced with a fresh-read of the same word: the writer does
    /// not happen-after the reader's access.
    Race {
        /// Word index.
        word: usize,
        /// Site issuing the store.
        site: AtomicSite,
        /// Thread that read the word.
        reader: usize,
        /// Thread that overwrote it.
        writer: usize,
    },
    /// A protocol invariant failed (monitor or end-state check).
    Protocol {
        /// Invariant family: "conservation", "decode", "reconciliation",
        /// "overflow", "uninit-steal", "lock", "local-read".
        rule: &'static str,
        /// Human-readable detail.
        what: String,
    },
    /// Exploration finished without reaching a single end state.
    NoEndState,
    /// The state space exceeded the configured bound.
    StateSpaceExceeded {
        /// States visited when the bound tripped.
        states: u64,
    },
}

impl Violation {
    /// Short kind tag used in the `ORDERINGS.md` audit table.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::StaleRead { .. } => "stale-read",
            Violation::Race { .. } => "race",
            Violation::Protocol { rule, .. } => rule,
            Violation::NoEndState => "no-end-state",
            Violation::StateSpaceExceeded { .. } => "state-space",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::StaleRead {
                word,
                site,
                stale,
                latest,
            } => write!(
                f,
                "stale read at {} (word {word}): could read {stale} where latest is {latest}",
                site.name()
            ),
            Violation::Race {
                word,
                site,
                reader,
                writer,
            } => write!(
                f,
                "race at {} (word {word}): thread {writer} overwrites a slot thread {reader} \
                 may still be reading",
                site.name()
            ),
            Violation::Protocol { rule, what } => write!(f, "{rule} violation: {what}"),
            Violation::NoEndState => write!(f, "no interleaving reached an end state"),
            Violation::StateSpaceExceeded { states } => {
                write!(f, "state space exceeded bound after {states} states")
            }
        }
    }
}

/// The per-site ordering assignment a run explores under: the one
/// table ([`AtomicSite::production_table`], with a [`Weakening`] applied
/// for a necessity mutant) a live world resolves its ops from, read by
/// catalog site.
#[derive(Clone, Debug)]
pub struct OrdTable(OrderingOverrides);

impl OrdTable {
    /// The orderings the production substrate uses.
    pub fn production() -> OrdTable {
        OrdTable(AtomicSite::production_table())
    }

    /// The production table with `w` applied at `site`: the model's
    /// table for that necessity mutant, and the live world's.
    pub fn mutant(site: AtomicSite, w: Weakening) -> OrdTable {
        OrdTable(w.apply(site, AtomicSite::production_table()))
    }

    /// Ordering at `site`.
    pub fn get(&self, site: AtomicSite) -> MemOrder {
        self.0.entry(site.id()).0
    }

    /// Override the ordering at `site`.
    pub fn set(&mut self, site: AtomicSite, ord: MemOrder) {
        self.0 = self.0.clone().with(site.id(), ord);
    }

    /// CAS failure-path ordering at `site`.
    pub fn cas_fail(&self, site: AtomicSite) -> MemOrder {
        self.0.entry(site.id()).1
    }
}

/// Word-granular model-checked memory, keyed by catalog site: every op
/// names the [`AtomicSite`] it is issued at and an index `i`, and the
/// memory reads the rest from the site's row — the ordering from its
/// [`OrdTable`], the word from the row's [`Place`] (`Ctl(k)` is control
/// word `k + i`; `Comp` and `Payload` are word `i` of the completion and
/// payload block) and whether the row admits the op's shape at all. See
/// the module docs for the semantics.
#[derive(Clone, Debug)]
pub struct Memory {
    ords: OrdTable,
    /// First word of the control, completion and payload block, then the
    /// total word count.
    base: [usize; 4],
    /// Bit [`AtomicSite::id`] is set once an op was issued at that site.
    issued: u32,
    words: Vec<Word>,
    clocks: Vec<VClock>,
    seqs: Vec<u32>,
    /// Per-thread, per-word coherence floor: index of the earliest store
    /// this thread may still legally read (reads may not go backwards).
    floors: Vec<Vec<u32>>,
}

/// The ordering table and the block map are fixed and the issued-site
/// set only records the path: none of them is explored state. Neither is
/// a word still at its initial value with no read mark, touched or not:
/// only the other words go in, each with its index.
impl std::hash::Hash for Memory {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for (w, word) in self.words.iter().enumerate() {
            if word.stores.len() > 1 || !word.marks.is_empty() {
                (w, word).hash(state);
            }
        }
        self.clocks.hash(state);
        self.seqs.hash(state);
        self.floors.hash(state);
    }
}

impl Memory {
    /// Zeroed memory shared by `n_threads` threads under `ords`, with a
    /// control, a completion and a payload block of `blocks` words. The
    /// initial value of every word happens-before everything.
    pub fn new(n_threads: usize, ords: OrdTable, blocks: [usize; 3]) -> Memory {
        let mut base = [0; 4];
        for (b, len) in blocks.iter().enumerate() {
            base[b + 1] = base[b] + len;
        }
        let n_words = base[3];
        Memory {
            ords,
            base,
            issued: 0,
            words: (0..n_words)
                .map(|_| Word {
                    stores: Vec::new(),
                    marks: Vec::new(),
                })
                .collect(),
            clocks: vec![VClock::new(n_threads); n_threads],
            seqs: vec![0; n_threads],
            floors: vec![vec![0; n_words]; n_threads],
        }
    }

    /// The sites ops were issued at so far, as a bit set over
    /// [`AtomicSite::id`].
    pub fn issued(&self) -> u32 {
        self.issued
    }

    /// Address of word `i` of `place`. An index outside the block the
    /// scenario sized is a bug in the machine, not a protocol outcome.
    fn index(&self, place: Place, i: usize) -> usize {
        let (block, i) = match place {
            Place::Ctl(k) => (0, k + i),
            Place::Comp => (1, i),
            Place::Payload => (2, i),
        };
        let w = self.base[block] + i;
        assert!(
            w < self.base[block + 1],
            "{place:?} word {i} is outside its block"
        );
        w
    }

    /// [`Memory::index`], giving the word its initial store on first use.
    fn word(&mut self, place: Place, i: usize) -> usize {
        let w = self.index(place, i);
        if self.words[w].stores.is_empty() {
            self.words[w].stores.push(Store {
                val: 0,
                author: INIT,
                seq: 0,
                msg: None,
            });
        }
        w
    }

    /// Resolve an op of one of `shapes` at `site` to its word and
    /// ordering. The row must admit the shape; no shapes stands for the
    /// owner-local payload store, whose rows admit none.
    fn at(&mut self, site: AtomicSite, i: usize, shapes: &[ProtoOp]) -> (usize, MemOrder) {
        let row = site.row();
        let admitted = match shapes {
            [] => row.ops.is_empty(),
            _ => row.ops.iter().any(|op| shapes.contains(op)),
        };
        assert!(
            admitted,
            "{} admits {:?}, not {shapes:?}",
            row.name, row.ops
        );
        self.issued |= 1 << site.id();
        (self.word(row.word, i), self.ords.get(site))
    }

    /// Overwrite a word's initial value (setup phase, before any thread
    /// runs; the value happens-before everything, like `new`'s zeros).
    pub fn set_init(&mut self, place: Place, i: usize, val: u64) {
        let w = self.word(place, i);
        let word = &mut self.words[w];
        assert_eq!(word.stores.len(), 1, "set_init after execution started");
        word.stores[0].val = val;
    }

    fn tick(&mut self, t: usize) -> u32 {
        self.seqs[t] += 1;
        let s = self.seqs[t];
        self.clocks[t].0[t] = s;
        s
    }

    /// Index of the latest store that happens-before thread `t` — the
    /// coherence floor below which reads are no longer legal.
    fn hb_floor(&self, t: usize, w: usize) -> usize {
        let stores = &self.words[w].stores;
        let mut floor = 0;
        for (i, s) in stores.iter().enumerate().rev() {
            if self.clocks[t].covers(s.author, s.seq) {
                floor = i;
                break;
            }
        }
        floor.max(self.floors[t][w] as usize)
    }

    /// Thread `t` reads store `idx` of word `w` at `ord`: reads may not
    /// go backwards from here, and an acquiring read joins the store's
    /// release-sequence message.
    fn observe(&mut self, t: usize, w: usize, idx: usize, ord: MemOrder) -> u64 {
        self.floors[t][w] = idx as u32;
        let s = &self.words[w].stores[idx];
        if let (true, Some(m)) = (ord.acquires(), &s.msg) {
            self.clocks[t].join(m);
        }
        s.val
    }

    /// Append thread `t`'s store of `val`. A releasing store's message is
    /// the author's clock, joined into the message the store continues
    /// (C++20 release sequence: an RMW carries on the message of the store
    /// it read); a relaxed plain store carries none.
    fn push_store(&mut self, t: usize, w: usize, val: u64, ord: MemOrder, mut msg: Option<VClock>) {
        let seq = self.tick(t);
        if ord.releases() {
            match &mut msg {
                Some(m) => m.join(&self.clocks[t]),
                None => msg = Some(self.clocks[t].clone()),
            }
        }
        self.words[w].stores.push(Store {
            val,
            author: t,
            seq,
            msg,
        });
    }

    /// Plain (metadata) store.
    pub fn store(&mut self, t: usize, site: AtomicSite, i: usize, val: u64) {
        let (w, ord) = self.at(site, i, &[ProtoOp::Set, ProtoOp::SetNbi, ProtoOp::Put]);
        self.push_store(t, w, val, ord, None);
    }

    /// The owner-local payload store: additionally checks the word's
    /// fresh-read marks — overwriting a slot some thread may still be
    /// reading is a race.
    pub fn store_payload(
        &mut self,
        t: usize,
        site: AtomicSite,
        i: usize,
        val: u64,
    ) -> Result<(), Violation> {
        let (w, ord) = self.at(site, i, &[]);
        for m in &self.words[w].marks {
            if m.reader != t && !self.clocks[t].covers(m.reader, m.seq) {
                return Err(Violation::Race {
                    word: w,
                    site,
                    reader: m.reader,
                    writer: t,
                });
            }
        }
        self.push_store(t, w, val, ord, None);
        Ok(())
    }

    /// Atomic load. Branches (via `choose`) over every store the thread
    /// may legally read; an acquiring load joins the chosen store's
    /// release-sequence message.
    pub fn load(
        &mut self,
        t: usize,
        site: AtomicSite,
        i: usize,
        mut choose: impl FnMut(usize) -> usize,
    ) -> u64 {
        let (w, ord) = self.at(site, i, &[ProtoOp::Fetch, ProtoOp::Get]);
        let lo = self.hb_floor(t, w);
        let n = self.words[w].stores.len() - lo;
        self.observe(t, w, lo + choose(n), ord)
    }

    /// A read the protocol requires to be fresh (payload copy). If a
    /// differing stale value is legally readable this is a violation, not
    /// a branch. Leaves a read mark for the race check.
    pub fn read_fresh(&mut self, t: usize, site: AtomicSite, i: usize) -> Result<u64, Violation> {
        let (w, ord) = self.at(site, i, &[ProtoOp::Get]);
        let lo = self.hb_floor(t, w);
        let latest = self.words[w].stores.len() - 1;
        let latest_val = self.words[w].stores[latest].val;
        for s in &self.words[w].stores[lo..latest] {
            if s.val != latest_val {
                return Err(Violation::StaleRead {
                    word: w,
                    site,
                    stale: s.val,
                    latest: latest_val,
                });
            }
        }
        let seq = self.tick(t);
        self.words[w].marks.push(Mark { reader: t, seq });
        Ok(self.observe(t, w, latest, ord))
    }

    /// A local read of payload word `i`, which the calling thread
    /// believes it exclusively owns (owner popping its local portion).
    /// The latest store must happen-before the reader — anything else is
    /// a protocol bug, not a legal weak-memory outcome.
    pub fn read_local(&mut self, t: usize, i: usize) -> Result<u64, Violation> {
        let w = self.word(Place::Payload, i);
        let latest = self.words[w].stores.len() - 1;
        let s = &self.words[w].stores[latest];
        if !self.clocks[t].covers(s.author, s.seq) {
            return Err(Violation::Protocol {
                rule: "local-read",
                what: format!(
                    "thread {t} pops word {w} whose latest store (by thread {}) it cannot see",
                    s.author
                ),
            });
        }
        Ok(self.observe(t, w, latest, MemOrder::Relaxed))
    }

    /// An RMW of shape `shape` at `site`: reads the latest store of the
    /// word (atomicity) and stores what `new` makes of its value. `None`
    /// is a compare-swap that fails: it still performs the read, but at
    /// the site's failure ordering (C++: specified separately, and it may
    /// be weaker) and leaves no store. Returns the value read.
    fn rmw(
        &mut self,
        t: usize,
        site: AtomicSite,
        i: usize,
        shape: ProtoOp,
        new: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        let (w, ord) = self.at(site, i, &[shape]);
        let idx = self.words[w].stores.len() - 1;
        let Some(val) = new(self.words[w].stores[idx].val) else {
            return self.observe(t, w, idx, self.ords.cas_fail(site));
        };
        let old = self.observe(t, w, idx, ord);
        let msg = self.words[w].stores[idx].msg.clone();
        self.push_store(t, w, val, ord, msg);
        old
    }

    /// Atomic fetch-add; returns the previous value.
    pub fn fetch_add(&mut self, t: usize, site: AtomicSite, i: usize, delta: u64) -> u64 {
        self.rmw(t, site, i, ProtoOp::FetchAdd, |old| {
            Some(old.wrapping_add(delta))
        })
    }

    /// Atomic swap; returns the previous value.
    pub fn swap(&mut self, t: usize, site: AtomicSite, i: usize, val: u64) -> u64 {
        self.rmw(t, site, i, ProtoOp::Swap, |_| Some(val))
    }

    /// Atomic compare-and-swap; returns the previous value.
    pub fn cas(&mut self, t: usize, site: AtomicSite, i: usize, expected: u64, new: u64) -> u64 {
        self.rmw(t, site, i, ProtoOp::CompareSwap, |old| {
            (old == expected).then_some(new)
        })
    }

    /// The latest value in a word's modification order (end-state checks
    /// only — not a thread-visible read).
    pub fn latest(&self, place: Place, i: usize) -> u64 {
        self.words[self.index(place, i)]
            .stores
            .last()
            .map_or(0, |s| s.val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::AtomicSite::*;

    /// A chooser that always picks the given branch index (clamped).
    fn pick(which: usize) -> impl FnMut(usize) -> usize {
        move |n| which.min(n - 1)
    }

    /// One control word (the flag: `SwsOwnerAdvertise` release-stores it,
    /// `SwsThiefProbe` acquire-loads it, `SwsOwnerSvRead` loads it
    /// relaxed), one completion word and one payload word, with the
    /// payload store and the claim fetch-add relaxed so that only the
    /// flag's edge synchronizes.
    fn mem(n_threads: usize) -> Memory {
        let mut ords = OrdTable::production();
        ords.set(SwsOwnerPayloadWrite, MemOrder::Relaxed);
        ords.set(SwsThiefClaim, MemOrder::Relaxed);
        Memory::new(n_threads, ords, [1, 1, 1])
    }

    #[test]
    fn relaxed_load_may_read_stale_release_acquire_may_not() {
        // t0: store 1 (payload), release-store 2 (flag).
        // t1: acquire-load flag == 2 ⇒ fresh-read payload must be 1.
        let mut m = mem(2);
        m.store_payload(0, SwsOwnerPayloadWrite, 0, 1).unwrap();
        m.store(0, SwsOwnerAdvertise, 0, 2);
        // Without acquiring the flag, the payload read is allowed stale.
        let mut m2 = m.clone();
        assert_eq!(m2.load(1, SwsOwnerSvRead, 0, pick(1)), 2);
        assert!(matches!(
            m2.read_fresh(1, SwsThiefPayloadRead, 0),
            Err(Violation::StaleRead { .. })
        ));
        // Acquiring the flag's release message makes the payload fresh.
        assert_eq!(m.load(1, SwsThiefProbe, 0, pick(1)), 2);
        assert_eq!(m.read_fresh(1, SwsThiefPayloadRead, 0).unwrap(), 1);
    }

    #[test]
    fn loads_branch_over_all_unsuperseded_stores() {
        let mut m = mem(2);
        m.store(0, SwsOwnerAdvertise, 0, 7);
        m.store(0, SwsOwnerAdvertise, 0, 9);
        // Thread 1 has synchronized with nothing: 0, 7 and 9 all legal.
        let mut seen = Vec::new();
        for which in 0..3 {
            let mut m2 = m.clone();
            seen.push(m2.load(1, SwsThiefProbe, 0, pick(which)));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 7, 9]);
        // The author itself must read its own latest store.
        assert_eq!(m.load(0, SwsOwnerSvRead, 0, pick(0)), 9);
    }

    #[test]
    fn coherence_forbids_reading_backwards() {
        let mut m = mem(2);
        m.store(0, SwsOwnerAdvertise, 0, 7);
        m.store(0, SwsOwnerAdvertise, 0, 9);
        // Once t1 observed 9, re-reads may not return 7 or 0.
        assert_eq!(m.load(1, SwsOwnerSvRead, 0, pick(2)), 9);
        assert_eq!(m.load(1, SwsOwnerSvRead, 0, pick(0)), 9);
    }

    #[test]
    fn rmw_reads_latest_and_continues_release_sequence() {
        let mut m = mem(3);
        m.store_payload(0, SwsOwnerPayloadWrite, 0, 5).unwrap();
        m.store(0, SwsOwnerAdvertise, 0, 1); // flag, heads the sequence
                                             // t1 bumps the flag with a *relaxed* RMW: atomicity still sees 1,
                                             // and the sequence headed by t0's release continues.
        assert_eq!(m.fetch_add(1, SwsThiefClaim, 0, 10), 1);
        // t2 acquire-loads the RMW's store: synchronizes with t0.
        assert_eq!(m.load(2, SwsThiefProbe, 0, pick(2)), 11);
        assert_eq!(m.read_fresh(2, SwsThiefPayloadRead, 0).unwrap(), 5);
    }

    #[test]
    fn unsynchronized_overwrite_of_marked_word_is_a_race() {
        let mut m = mem(2);
        m.store_payload(0, SwsOwnerPayloadWrite, 0, 3).unwrap();
        m.store(0, SwsOwnerAdvertise, 0, 1); // publication flag
                                             // t1 acquires the flag (so the fresh-read is legal), reads the
                                             // payload (leaves a mark) — but t0 never hears back.
        assert_eq!(m.load(1, SwsThiefProbe, 0, pick(1)), 1);
        m.read_fresh(1, SwsThiefPayloadRead, 0).unwrap();
        let err = m.store_payload(0, SwsOwnerPayloadWrite, 0, 4).unwrap_err();
        assert!(matches!(
            err,
            Violation::Race {
                reader: 1,
                writer: 0,
                ..
            }
        ));
    }

    #[test]
    fn synchronized_overwrite_after_readback_is_clean() {
        let mut m = mem(2);
        m.store_payload(0, SwsOwnerPayloadWrite, 0, 3).unwrap();
        m.store(0, SwsOwnerAdvertise, 0, 1); // publication flag
        assert_eq!(m.load(1, SwsThiefProbe, 0, pick(1)), 1);
        m.read_fresh(1, SwsThiefPayloadRead, 0).unwrap();
        // t1 release-stores a completion; t0 acquire-loads it, covering
        // the read mark; the overwrite is now ordered.
        m.store(1, SwsThiefComplete, 0, 1);
        assert_eq!(m.load(0, SwsOwnerReclaimRead, 0, pick(1)), 1);
        m.store_payload(0, SwsOwnerPayloadWrite, 0, 4).unwrap();
    }

    #[test]
    fn failed_cas_leaves_no_store() {
        let mut m = mem(2);
        m.store(0, SdcUnlock, 0, 1);
        assert_eq!(m.cas(1, SdcLockCas, 0, 0, 9), 1);
        assert_eq!(m.latest(Place::Ctl(0), 0), 1);
        assert_eq!(m.cas(1, SdcLockCas, 0, 1, 9), 1);
        assert_eq!(m.latest(Place::Ctl(0), 0), 9);
    }

    /// The catalog row is the structural damping check: `SwsThiefProbe`
    /// admits only a fetch, so a probe that bumps the counter is refused.
    #[test]
    #[should_panic(expected = "SwsThiefProbe admits [Fetch]")]
    fn an_op_shape_the_row_does_not_admit_is_refused() {
        mem(2).fetch_add(1, SwsThiefProbe, 0, 1);
    }
}
