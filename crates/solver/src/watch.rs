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
//!
//! The binaries of a graph coloring's conflict graph need no words at
//! all: [`VirtualBinaries`] holds the graph instead, and propagation
//! visits the binaries it stands for before a literal's list (see
//! [`ConflictBinaries`]).

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

/// The conflict binaries of a graph coloring, given by its conflict
/// graph: vertex `v` takes color `c` when variable `v·colors + c` is true
/// (x_{v,c}), and every edge `(u, v)` and color `c` stands for the binary
/// ¬x_{u,c} ∨ ¬x_{v,c}.
///
/// The rows are a graph's compressed sparse rows: vertex `v` below
/// `offsets.len() - 1` has the neighbors
/// `neighbors[offsets[v]..offsets[v + 1]]`, ascending; every other vertex
/// has none.
#[derive(Clone, Copy, Debug)]
pub struct ConflictBinaries<'a> {
    /// Colors per vertex.
    pub colors: u32,
    /// Vertices of the layout; its variables end at `vertices·colors`.
    pub vertices: u32,
    /// Row offsets of the conflict graph.
    pub offsets: &'a [u32],
    /// Neighbor ids of the conflict graph, ascending within each row.
    pub neighbors: &'a [u32],
}

impl ConflictBinaries<'_> {
    /// The binaries the graph stands for.
    pub fn num_binaries(&self) -> usize {
        self.neighbors.len() / 2 * self.colors as usize
    }
}

/// A solver's own copy of a [`ConflictBinaries`] graph: the binaries a
/// coloring's conflict graph stands for, held as the graph, with no
/// watcher in any list.
///
/// When x_{u,c} becomes true, [`VirtualBinaries::row`] names the
/// neighbors `v`, ascending, whose ¬x_{v,c} its binaries imply. An
/// encoder that attaches these binaries itself — one clause per edge and
/// color, edges in ascending `(min, max)` order, before any other clause
/// with a literal ¬x_{u,c} — puts exactly these watchers in this order
/// at the front of ¬x_{u,c}'s list, ahead of everything attached later.
/// Visiting them first, then the list, visits the same watchers in the
/// same order.
#[derive(Clone, Debug, Default)]
pub(crate) struct VirtualBinaries {
    colors: u32,
    /// Variables of the layout, `vertices·colors`; 0 without a graph, so
    /// no literal falls in it.
    span: u32,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl VirtualBinaries {
    /// Copies `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the layout's variables pass [`Var::LIMIT`], or if the
    /// rows are not compressed sparse rows of a graph on the layout's
    /// vertices: offsets that start at 0, never fall, end at the number
    /// of neighbors and name no more rows than vertices, and rows whose
    /// neighbors are strictly ascending and below `vertices`. Debug
    /// builds also check that the graph has no self-loop and is
    /// symmetric: `v` is in `u`'s row exactly when `u` is in `v`'s.
    pub(crate) fn new(graph: &ConflictBinaries<'_>) -> Self {
        let ConflictBinaries {
            colors,
            vertices,
            offsets,
            neighbors,
        } = *graph;
        let span = u64::from(vertices) * u64::from(colors);
        assert!(
            span <= u64::from(Var::LIMIT),
            "the conflict graph's variables pass the solver's limit"
        );
        assert!(
            offsets.len() <= vertices as usize + 1
                && offsets.first().map_or(0, |&first| first) == 0
                && offsets.windows(2).all(|pair| pair[0] <= pair[1])
                && offsets.last().map_or(0, |&last| last as usize) == neighbors.len(),
            "the conflict graph's row offsets must rise from 0 to its neighbor count, \
             one row per vertex at most"
        );
        let rows = VirtualBinaries {
            colors,
            span: span as u32,
            offsets: offsets.to_vec(),
            neighbors: neighbors.to_vec(),
        };
        for u in 0..offsets.len().saturating_sub(1) as u32 {
            let row = rows.row(u);
            assert!(
                row.windows(2).all(|pair| pair[0] < pair[1])
                    && row.last().is_none_or(|&v| v < vertices),
                "the conflict graph's row {u} must be strictly ascending and below {vertices}"
            );
            debug_assert!(
                row.iter()
                    .all(|&v| v != u && rows.row(v).binary_search(&u).is_ok()),
                "the conflict graph's row {u} must name no self-loop and be mirrored"
            );
        }
        rows
    }

    /// Whether a graph is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.span == 0
    }

    /// The literal codes of the layout's variables, both polarities: a
    /// literal whose code is below it is some x_{u,c} or its negation. 0
    /// without a graph.
    #[inline]
    pub(crate) fn lit_codes(&self) -> u32 {
        2 * self.span
    }

    /// The vertex and color of x_{u,c}.
    #[inline]
    pub(crate) fn vertex_color(&self, x: Lit) -> (u32, u32) {
        let at = x.var().index();
        debug_assert!(x.is_positive() && at < self.span, "{x:?} is no x_{{u,c}}");
        (at / self.colors, at % self.colors)
    }

    /// The neighbors of `vertex`, ascending: x_{`vertex`,c} implies
    /// ¬x_{v,c} for each of them (see the type's docs).
    #[inline]
    pub(crate) fn row(&self, vertex: u32) -> &[u32] {
        match self.offsets.get(vertex as usize..vertex as usize + 2) {
            Some(&[start, end]) => &self.neighbors[start as usize..end as usize],
            _ => &[],
        }
    }

    /// ¬x_{`vertex`,`color`}.
    #[inline]
    pub(crate) fn not_x(&self, vertex: u32, color: u32) -> Lit {
        Lit::negative(Var::new(vertex * self.colors + color))
    }

    /// Bytes allocated to the graph.
    pub(crate) fn allocated_bytes(&self) -> u64 {
        ((self.offsets.capacity() + self.neighbors.capacity()) * std::mem::size_of::<u32>()) as u64
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
