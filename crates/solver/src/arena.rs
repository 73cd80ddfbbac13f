//! Flat clause storage for the CDCL hot path.
//!
//! The arena holds every learnt clause and every problem clause of three
//! or more literals; two-literal problem clauses are implicit watcher
//! pairs in the solver and never reach it. Every clause lives
//! contiguously inside one `Vec<u32>` as
//!
//! ```text
//! [ len | meta | act_lo | act_hi | lit_0 … lit_{len-1} ]
//! ```
//!
//! and is identified by a [`ClauseRef`] — the word offset of its header.
//! Compared to one heap `Vec<Lit>` per clause this removes a pointer chase
//! (and a cache miss) from every watcher visit in unit propagation, and it
//! makes deletion reclaimable: [`ClauseArena::compact`] rewrites the buffer
//! with the live clauses only and leaves forwarding pointers in the old
//! buffer so the solver can remap watcher lists, `reason` slots and the
//! learnt index.
//!
//! Word layout:
//!
//! * `len` — number of literals.
//! * `meta` — flag bits ([`ClauseArena::is_learnt`] / deleted / forwarded),
//!   the two-bit retention [`Tier`], and the clause's saturated LBD in the
//!   high bits.
//! * `act_lo`/`act_hi` — the clause activity as the two halves of an `f64`
//!   bit pattern. Keeping full `f64` precision (rather than a quantized
//!   float) is what keeps the activity-sorted reduction order — and thus
//!   the whole search — bit-identical to the previous per-`Vec` store.
//! * `lit_k` — literal codes ([`Lit::code`]).

use satroute_cnf::Lit;

/// Word offset of a clause header inside a [`ClauseArena`].
pub type ClauseRef = u32;

/// Header words preceding the literals of every clause.
const HEADER_WORDS: usize = 4;

/// Most words the arena can hold: every [`ClauseRef`] stays below `2^31`,
/// because the solver tags implicit binaries in a reason word with the
/// top bit.
pub(crate) const MAX_WORDS: usize = 1 << 31;

const LEARNT_BIT: u32 = 1 << 0;
const DELETED_BIT: u32 = 1 << 1;
/// Set in the *old* buffer by [`ClauseArena::compact`]: the clause moved
/// and its header word 0 now holds the new offset.
const FORWARDED_BIT: u32 = 1 << 2;
const TIER_SHIFT: u32 = 3;
const TIER_MASK: u32 = 0b11 << TIER_SHIFT;
const LBD_SHIFT: u32 = 8;
/// LBD values saturate at this (24 bits are far more than any real LBD).
const LBD_SAT: u32 = (1 << (32 - LBD_SHIFT)) - 1;

/// Retention tier of a learnt clause, assigned from its LBD at learn time.
///
/// * [`Tier::Core`] (LBD ≤ 3): glue clauses, kept forever under the tiered
///   reduction policy.
/// * [`Tier::Mid`] (LBD ≤ 6): useful clauses, reduced by activity.
/// * [`Tier::Local`]: everything else, reduced aggressively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Tier {
    /// Kept forever (LBD ≤ [`Tier::CORE_MAX_LBD`]).
    Core = 0,
    /// Kept while active (LBD ≤ [`Tier::MID_MAX_LBD`]).
    Mid = 1,
    /// First to go.
    Local = 2,
}

impl Tier {
    /// Highest LBD classified as [`Tier::Core`].
    pub const CORE_MAX_LBD: u32 = 3;
    /// Highest LBD classified as [`Tier::Mid`].
    pub const MID_MAX_LBD: u32 = 6;

    /// Classifies a learnt clause by its LBD.
    pub fn for_lbd(lbd: u32) -> Tier {
        if lbd <= Tier::CORE_MAX_LBD {
            Tier::Core
        } else if lbd <= Tier::MID_MAX_LBD {
            Tier::Mid
        } else {
            Tier::Local
        }
    }

    fn from_bits(bits: u32) -> Tier {
        match bits {
            0 => Tier::Core,
            1 => Tier::Mid,
            _ => Tier::Local,
        }
    }
}

/// The flat clause store. See the module docs for the word layout.
#[derive(Clone, Debug, Default)]
pub struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses (headers included).
    dead_words: usize,
}

impl ClauseArena {
    /// An empty arena.
    pub fn new() -> Self {
        ClauseArena::default()
    }

    /// Bytes occupied by live clauses.
    pub fn live_bytes(&self) -> u64 {
        ((self.data.len() - self.dead_words) * 4) as u64
    }

    /// Bytes occupied by deleted clauses awaiting compaction.
    pub fn dead_bytes(&self) -> u64 {
        (self.dead_words * 4) as u64
    }

    /// Approximate bytes a clause of `len` literals occupies in the arena.
    pub fn clause_bytes(len: usize) -> u64 {
        ((HEADER_WORDS + len) * 4) as u64
    }

    /// `true` once the dead fraction of the buffer reaches `dead_frac`
    /// (and there is anything dead at all).
    pub fn wants_gc(&self, dead_frac: f64) -> bool {
        self.dead_words > 0 && (self.dead_words as f64) >= dead_frac * (self.data.len() as f64)
    }

    /// Appends a clause and returns its reference. Flags, LBD and activity
    /// start zeroed; the caller sets them as needed.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit clauses live on the trail");
        let cref = self.data.len();
        assert!(
            cref + HEADER_WORDS + lits.len() <= MAX_WORDS,
            "clause arena full"
        );
        self.data.reserve(HEADER_WORDS + lits.len());
        self.data.push(lits.len() as u32);
        self.data.push(if learnt { LEARNT_BIT } else { 0 });
        self.data.push(0); // act_lo
        self.data.push(0); // act_hi
        self.data.extend(lits.iter().map(|l| l.code()));
        cref as ClauseRef
    }

    /// Number of literals of the clause at `cref`.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.data[cref as usize] as usize
    }

    /// `true` when no clause has ever been allocated.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Literal `k` of the clause at `cref`.
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.data[cref as usize + HEADER_WORDS + k])
    }

    /// Swaps literals `a` and `b` of the clause at `cref`.
    #[inline]
    pub fn swap_lits(&mut self, cref: ClauseRef, a: usize, b: usize) {
        let base = cref as usize + HEADER_WORDS;
        self.data.swap(base + a, base + b);
    }

    /// The literals of the clause at `cref`, in clause order.
    pub fn lits(&self, cref: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let base = cref as usize + HEADER_WORDS;
        self.data[base..base + self.len(cref)]
            .iter()
            .map(|&code| Lit::from_code(code))
    }

    #[inline]
    fn meta(&self, cref: ClauseRef) -> u32 {
        self.data[cref as usize + 1]
    }

    /// `true` for learnt clauses.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.meta(cref) & LEARNT_BIT != 0
    }

    /// `true` once [`ClauseArena::delete`] ran for `cref`.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.meta(cref) & DELETED_BIT != 0
    }

    /// Clears the learnt flag, promoting the clause to irredundant.
    ///
    /// Used by subsumption when a learnt clause subsumes an original
    /// one: the subsumed original may only be dropped if its subsumer
    /// becomes permanent, otherwise a later learnt-database reduction
    /// could leave the formula weaker than the input.
    pub fn clear_learnt(&mut self, cref: ClauseRef) {
        self.data[cref as usize + 1] &= !LEARNT_BIT;
    }

    /// The references of all clauses still live in the arena, in
    /// allocation order. Deterministic: drives inprocessing passes.
    pub fn refs(&self) -> ClauseRefs<'_> {
        ClauseRefs { arena: self, at: 0 }
    }

    /// Marks the clause deleted; its words are reclaimed by the next
    /// [`ClauseArena::compact`].
    pub fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        self.data[cref as usize + 1] |= DELETED_BIT;
        self.dead_words += HEADER_WORDS + self.len(cref);
    }

    /// The clause's saturated LBD recorded at learn time.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.meta(cref) >> LBD_SHIFT
    }

    /// Records the clause's LBD (saturating at 24 bits).
    pub fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let meta = &mut self.data[cref as usize + 1];
        *meta = (*meta & ((1 << LBD_SHIFT) - 1)) | (lbd.min(LBD_SAT) << LBD_SHIFT);
    }

    /// The clause's retention tier.
    #[inline]
    pub fn tier(&self, cref: ClauseRef) -> Tier {
        Tier::from_bits((self.meta(cref) & TIER_MASK) >> TIER_SHIFT)
    }

    /// Sets the clause's retention tier.
    pub fn set_tier(&mut self, cref: ClauseRef, tier: Tier) {
        let meta = &mut self.data[cref as usize + 1];
        *meta = (*meta & !TIER_MASK) | ((tier as u32) << TIER_SHIFT);
    }

    /// The clause's activity (full `f64`, stored as two words).
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        let base = cref as usize;
        f64::from_bits(u64::from(self.data[base + 2]) | (u64::from(self.data[base + 3]) << 32))
    }

    /// Sets the clause's activity.
    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let bits = activity.to_bits();
        let base = cref as usize;
        self.data[base + 2] = bits as u32;
        self.data[base + 3] = (bits >> 32) as u32;
    }

    /// Compacts the arena: live clauses are copied, in offset order, to the
    /// front of a fresh buffer; deleted clauses are dropped. Returns a
    /// [`Forwarding`] table built from the old buffer that maps every old
    /// [`ClauseRef`] to its new offset (or to `None` if the clause died).
    ///
    /// Offset order is preserved, so relative clause age survives
    /// compaction — anything that iterates clauses by ascending `cref`
    /// sees the same order before and after.
    pub fn compact(&mut self) -> Forwarding {
        let live_words = self.data.len() - self.dead_words;
        let mut old = std::mem::replace(&mut self.data, Vec::with_capacity(live_words));
        let mut read = 0;
        while read < old.len() {
            let len = old[read] as usize;
            let meta = old[read + 1];
            let size = HEADER_WORDS + len;
            if meta & DELETED_BIT == 0 {
                let new_off = self.data.len() as u32;
                self.data.extend_from_slice(&old[read..read + size]);
                // Leave a forwarding pointer in the old header.
                old[read] = new_off;
                old[read + 1] = meta | FORWARDED_BIT;
            }
            read += size;
        }
        self.dead_words = 0;
        Forwarding { old }
    }
}

/// Iterator over the live clause references of a [`ClauseArena`], in
/// allocation (offset) order. Created by [`ClauseArena::refs`].
#[derive(Debug)]
pub struct ClauseRefs<'a> {
    arena: &'a ClauseArena,
    at: usize,
}

impl Iterator for ClauseRefs<'_> {
    type Item = ClauseRef;

    fn next(&mut self) -> Option<ClauseRef> {
        while self.at < self.arena.data.len() {
            let cref = self.at as ClauseRef;
            let len = self.arena.data[self.at] as usize;
            let meta = self.arena.data[self.at + 1];
            self.at += HEADER_WORDS + len;
            if meta & DELETED_BIT == 0 {
                return Some(cref);
            }
        }
        None
    }
}

/// The forwarding table produced by [`ClauseArena::compact`]: the old
/// buffer with each live clause's header rewritten to point at its new
/// offset.
#[derive(Debug)]
pub struct Forwarding {
    old: Vec<u32>,
}

impl Forwarding {
    /// The post-compaction offset of the clause that lived at `old_cref`,
    /// or `None` if that clause was deleted.
    pub fn resolve(&self, old_cref: ClauseRef) -> Option<ClauseRef> {
        let base = old_cref as usize;
        if self.old[base + 1] & FORWARDED_BIT != 0 {
            Some(self.old[base])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_roundtrips_literals_and_flags() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 3, 5]), false);
        let c1 = a.alloc(&lits(&[2, 7]), true);
        assert_eq!(a.len(c0), 3);
        assert_eq!(a.len(c1), 2);
        assert_eq!(a.lit(c0, 1), Lit::from_code(3));
        assert_eq!(a.lit(c1, 0), Lit::from_code(2));
        assert!(!a.is_learnt(c0));
        assert!(a.is_learnt(c1));
        assert!(!a.is_deleted(c0));
        assert_eq!(a.lits(c1).map(|l| l.code()).collect::<Vec<_>>(), [2, 7]);
    }

    #[test]
    fn activity_keeps_full_f64_precision() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2]), true);
        assert_eq!(a.activity(c), 0.0);
        let v = 1.234_567_890_123_456_7e19;
        a.set_activity(c, v);
        assert_eq!(a.activity(c).to_bits(), v.to_bits());
    }

    #[test]
    fn lbd_and_tier_pack_into_meta_without_clobbering_flags() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2]), true);
        a.set_lbd(c, 7);
        a.set_tier(c, Tier::Local);
        assert_eq!(a.lbd(c), 7);
        assert_eq!(a.tier(c), Tier::Local);
        assert!(a.is_learnt(c));
        a.set_lbd(c, u32::MAX); // saturates
        assert_eq!(a.lbd(c), (1 << 24) - 1);
        assert_eq!(a.tier(c), Tier::Local);
        a.set_tier(c, Tier::Core);
        assert_eq!(a.lbd(c), (1 << 24) - 1);
        assert_eq!(a.tier(c), Tier::Core);
    }

    #[test]
    fn tier_classification_by_lbd() {
        assert_eq!(Tier::for_lbd(1), Tier::Core);
        assert_eq!(Tier::for_lbd(3), Tier::Core);
        assert_eq!(Tier::for_lbd(4), Tier::Mid);
        assert_eq!(Tier::for_lbd(6), Tier::Mid);
        assert_eq!(Tier::for_lbd(7), Tier::Local);
    }

    #[test]
    fn delete_accounts_dead_bytes_and_triggers_gc_want() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2, 4]), true);
        let _c1 = a.alloc(&lits(&[1, 3]), true);
        assert_eq!(a.dead_bytes(), 0);
        assert!(!a.wants_gc(0.25));
        a.delete(c0);
        assert!(a.is_deleted(c0));
        assert_eq!(a.dead_bytes(), ClauseArena::clause_bytes(3));
        assert!(a.wants_gc(0.25));
        assert!(!a.wants_gc(0.99));
    }

    #[test]
    fn compact_drops_dead_clauses_and_forwards_live_ones() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2, 4]), false);
        let c1 = a.alloc(&lits(&[1, 3]), true);
        let c2 = a.alloc(&lits(&[5, 7, 9, 11]), true);
        a.set_activity(c2, 42.5);
        a.set_lbd(c2, 5);
        a.set_tier(c2, Tier::Mid);
        a.delete(c1);

        let before_live = a.live_bytes();
        let fwd = a.compact();
        assert_eq!(a.dead_bytes(), 0);
        assert_eq!(a.live_bytes(), before_live);

        let n0 = fwd.resolve(c0).expect("c0 survives");
        assert_eq!(fwd.resolve(c1), None, "deleted clause has no forward");
        let n2 = fwd.resolve(c2).expect("c2 survives");
        assert_eq!(n0, 0, "first live clause moves to the front");
        assert!(n0 < n2, "offset order is preserved");

        assert_eq!(a.lits(n0).map(|l| l.code()).collect::<Vec<_>>(), [0, 2, 4]);
        assert_eq!(
            a.lits(n2).map(|l| l.code()).collect::<Vec<_>>(),
            [5, 7, 9, 11]
        );
        assert_eq!(a.activity(n2), 42.5);
        assert_eq!(a.lbd(n2), 5);
        assert_eq!(a.tier(n2), Tier::Mid);
        assert!(a.is_learnt(n2));
        assert!(!a.is_learnt(n0));
    }

    #[test]
    fn compact_with_nothing_dead_is_an_identity_remap() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2]), false);
        let c1 = a.alloc(&lits(&[1, 3, 5]), true);
        let fwd = a.compact();
        assert_eq!(fwd.resolve(c0), Some(c0));
        assert_eq!(fwd.resolve(c1), Some(c1));
        assert_eq!(a.lit(c1, 2), Lit::from_code(5));
    }

    #[test]
    fn compact_on_empty_arena_is_a_no_op() {
        let mut a = ClauseArena::new();
        let _fwd = a.compact();
        assert!(a.is_empty());
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn refs_walks_live_clauses_in_allocation_order() {
        let mut a = ClauseArena::new();
        let c0 = a.alloc(&lits(&[0, 2]), false);
        let c1 = a.alloc(&lits(&[1, 3, 5]), true);
        let c2 = a.alloc(&lits(&[4, 6]), false);
        assert_eq!(a.refs().collect::<Vec<_>>(), vec![c0, c1, c2]);
        a.delete(c1);
        assert_eq!(a.refs().collect::<Vec<_>>(), vec![c0, c2]);
        let fwd = a.compact();
        let n0 = fwd.resolve(c0).unwrap();
        let n2 = fwd.resolve(c2).unwrap();
        assert_eq!(a.refs().collect::<Vec<_>>(), vec![n0, n2]);
    }

    #[test]
    fn clear_learnt_promotes_without_clobbering_lbd_or_tier() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2, 4]), true);
        a.set_lbd(c, 5);
        a.set_tier(c, Tier::Mid);
        assert!(a.is_learnt(c));
        a.clear_learnt(c);
        assert!(!a.is_learnt(c));
        assert_eq!(a.lbd(c), 5);
        assert_eq!(a.tier(c), Tier::Mid);
        assert!(!a.is_deleted(c));
    }
}
