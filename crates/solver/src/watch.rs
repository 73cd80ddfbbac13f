//! Packed watch lists.
//!
//! Each literal's watch list is one `Vec<u32>` of watchers in the order
//! they were attached, in two sizes:
//!
//! * an implicit problem binary `a ∨ b` is one word in `a`'s list,
//!   `BINARY | b`, and one in `b`'s, `BINARY | a` — the same word a
//!   binary reason holds;
//! * a watcher of an arena clause is two words, `cref, blocker`: the
//!   clause's offset and a literal of it other than the watched one.
//!
//! The [`BINARY`] tag bit tells them apart: arena offsets and literal
//! codes both stay below it, so a list's tagged words are exactly its
//! binaries. Every reader — propagation, the GC remap, inprocessing and
//! the debug checks — goes through this module, and every rewrite keeps
//! the survivors in list order, so the search visits watchers exactly as
//! a list of fixed-size watchers would.

use satroute_cnf::{Lit, Var};

use crate::arena::{ClauseRef, MAX_WORDS};

/// Tag bit of a word that names an implicit problem binary by its other
/// literal: a binary watcher, or the trail reason of a literal a binary
/// implied.
pub(crate) const BINARY: u32 = 1 << 31;

// Arena offsets and literal codes never carry the tag.
const _: () = assert!(MAX_WORDS <= BINARY as usize);
const _: () = assert!(2 * Var::LIMIT - 1 < BINARY);

/// Words one watcher of a problem clause takes: one for an implicit
/// binary, two for an arena clause.
pub(crate) const fn watcher_words(binary: bool) -> u32 {
    if binary {
        1
    } else {
        2
    }
}

/// One watcher, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Watch {
    /// An implicit problem binary, by its other literal.
    Binary(Lit),
    /// An arena clause and its blocker literal.
    Clause(ClauseRef, Lit),
}

/// What [`WatchList::scan`] does with the watcher it just visited.
pub(crate) enum Visit {
    /// Keep this watcher in its place and go on.
    Keep(Watch),
    /// Remove the watcher and go on.
    Drop,
    /// Keep this watcher and every unvisited one, and stop.
    Stop(Watch),
}

/// One literal's watchers, packed (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct WatchList(Vec<u32>);

impl WatchList {
    /// Appends one half of the implicit binary with literal `other`.
    #[inline]
    pub(crate) fn push_binary(&mut self, other: Lit) {
        self.0.push(BINARY | other.code());
    }

    /// Appends a watcher of arena clause `cref` with `blocker`.
    #[inline]
    pub(crate) fn push_clause(&mut self, cref: ClauseRef, blocker: Lit) {
        self.0.extend_from_slice(&[cref, blocker.code()]);
    }

    /// Reserves room for exactly `words` more words.
    pub(crate) fn reserve_exact(&mut self, words: usize) {
        self.0.reserve_exact(words);
    }

    /// Words in use.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Words allocated.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Bytes allocated to the list's words.
    pub(crate) fn allocated_bytes(&self) -> u64 {
        (self.0.capacity() * std::mem::size_of::<u32>()) as u64
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The watchers in list order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Watch> + '_ {
        let mut words = self.0.iter();
        std::iter::from_fn(move || {
            let &word = words.next()?;
            Some(if word & BINARY != 0 {
                Watch::Binary(Lit::from_code(word & !BINARY))
            } else {
                let &blocker = words.next().expect("a clause watcher is two words");
                Watch::Clause(word, Lit::from_code(blocker))
            })
        })
    }

    /// Visits the watchers in list order, rewriting the list in place as
    /// `visit` directs: kept watchers close up over dropped ones, in
    /// their order. A kept watcher may carry a new reference or blocker,
    /// but keeps its kind. Returns `true` if `visit` stopped the scan.
    #[inline]
    pub(crate) fn scan(&mut self, mut visit: impl FnMut(Watch) -> Visit) -> bool {
        let words = &mut self.0;
        let (mut read, mut kept) = (0, 0);
        while read < words.len() {
            let word = words[read];
            let watch = if word & BINARY != 0 {
                read += 1;
                Watch::Binary(Lit::from_code(word & !BINARY))
            } else {
                read += 2;
                Watch::Clause(word, Lit::from_code(words[read - 1]))
            };
            match visit(watch) {
                Visit::Keep(watch) => kept = put(words, kept, watch),
                Visit::Drop => {}
                Visit::Stop(watch) => {
                    kept = put(words, kept, watch);
                    let unvisited = words.len() - read;
                    words.copy_within(read.., kept);
                    words.truncate(kept + unvisited);
                    return true;
                }
            }
            debug_assert!(kept <= read, "a kept watcher changed its kind");
        }
        words.truncate(kept);
        false
    }

    /// Maps every clause watcher's reference through `remap`, dropping
    /// the watchers it maps to `None`; binaries stay. Survivors keep
    /// their order.
    pub(crate) fn retain_clauses(&mut self, mut remap: impl FnMut(ClauseRef) -> Option<ClauseRef>) {
        self.scan(|watch| match watch {
            Watch::Binary(_) => Visit::Keep(watch),
            Watch::Clause(cref, blocker) => match remap(cref) {
                Some(cref) => Visit::Keep(Watch::Clause(cref, blocker)),
                None => Visit::Drop,
            },
        });
    }

    /// Removes the first half of an implicit binary with literal `other`,
    /// keeping the order of the rest. Returns whether there was one.
    pub(crate) fn remove_binary(&mut self, other: Lit) -> bool {
        // Only binary words carry the tag, so a flat search is exact.
        let word = BINARY | other.code();
        match self.0.iter().position(|&w| w == word) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }
}

/// Writes `watch` at word `at`, which must not pass the words already
/// read; returns the word after it.
#[inline]
fn put(words: &mut [u32], at: usize, watch: Watch) -> usize {
    match watch {
        Watch::Binary(other) => {
            words[at] = BINARY | other.code();
            at + 1
        }
        Watch::Clause(cref, blocker) => {
            words[at] = cref;
            words[at + 1] = blocker.code();
            at + 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    fn mixed() -> WatchList {
        let mut list = WatchList::default();
        list.push_binary(lit(2));
        list.push_clause(7, lit(3));
        list.push_binary(lit(-5));
        list.push_clause(0, lit(6));
        list
    }

    #[test]
    fn binaries_take_one_word_and_clauses_two() {
        let list = mixed();
        assert_eq!(list.len(), 6);
        assert_eq!(
            list.iter().collect::<Vec<_>>(),
            [
                Watch::Binary(lit(2)),
                Watch::Clause(7, lit(3)),
                Watch::Binary(lit(-5)),
                Watch::Clause(0, lit(6)),
            ]
        );
        assert_eq!(watcher_words(true), 1);
        assert_eq!(watcher_words(false), 2);
    }

    #[test]
    fn scan_closes_up_and_stop_keeps_the_unvisited() {
        let mut list = mixed();
        let stopped = list.scan(|watch| match watch {
            Watch::Clause(7, _) => Visit::Drop,
            Watch::Binary(other) if other == lit(-5) => Visit::Stop(watch),
            _ => Visit::Keep(watch),
        });
        assert!(stopped);
        assert_eq!(
            list.iter().collect::<Vec<_>>(),
            [
                Watch::Binary(lit(2)),
                Watch::Binary(lit(-5)),
                Watch::Clause(0, lit(6)),
            ]
        );
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn remap_and_binary_removal_keep_the_order() {
        let mut list = mixed();
        list.retain_clauses(|cref| (cref != 7).then_some(cref + 40));
        assert_eq!(
            list.iter().collect::<Vec<_>>(),
            [
                Watch::Binary(lit(2)),
                Watch::Binary(lit(-5)),
                Watch::Clause(40, lit(6)),
            ]
        );
        // A clause watcher whose words equal the binary's code is not a
        // binary: the tag tells them apart.
        list.push_clause(lit(2).code(), lit(2));
        assert!(list.remove_binary(lit(2)));
        assert!(!list.remove_binary(lit(2)));
        assert_eq!(
            list.iter().collect::<Vec<_>>(),
            [
                Watch::Binary(lit(-5)),
                Watch::Clause(40, lit(6)),
                Watch::Clause(lit(2).code(), lit(2)),
            ]
        );
    }
}
