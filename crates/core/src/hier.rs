//! Hierarchical 2-level encodings (paper §4).
//!
//! A hierarchical encoding first uses a *top* scheme to partition a CSP
//! variable's domain into subdomains, then a *bottom* scheme — **sharing one
//! set of Boolean variables across all subdomains** — to select a value
//! inside each subdomain. A domain value is selected when both its
//! subdomain is selected at the top and its in-subdomain index is selected
//! at the bottom, so its indexing pattern is simply the concatenation of the
//! two level patterns.
//!
//! Ragged subdomains (the paper: "if at a given level in the hierarchy,
//! some of the subdomains have fewer domain values than the rest … we impose
//! constraints … to prevent the selection of non-existent values") are
//! handled in the two ways the paper describes:
//!
//! * for direct/muldirect/log bottoms, *conditional exclusion clauses*
//!   `¬top_pattern(s) ∨ ¬bottom_pattern(j)` forbid in-subdomain indices `j`
//!   beyond the subdomain's size;
//! * for ITE bottoms, *smaller versions of the ITE trees* are used for the
//!   smaller subdomains (over a prefix of the shared variables), which makes
//!   exclusion clauses unnecessary.
//!
//! Subdomain sizing follows the paper's constructions:
//!
//! * `ITE-log-i` tops partition by recursive ceiling-halving, `i` levels
//!   deep — exactly the Fig. 1c/1d layout (13 values → `[7, 6]` for one
//!   level, `[4, 3, 3, 3]` for two);
//! * `direct-n` / `muldirect-n` tops use `n` subdomains of capacity
//!   `⌈K/n⌉` ("the number of Boolean variables used for the second-level …
//!   will be ⌈K/n⌉"), the last one ragged;
//! * `ITE-linear-n` tops have `n` indexing variables and hence `n + 1`
//!   subdomains, also chunked at capacity `⌈K/(n+1)⌉`.

use std::fmt;

use satroute_cnf::Lit;

use crate::ite::IteTree;
use crate::pattern::{Pattern, SchemeCnf};
use crate::scheme::SimpleScheme;

/// The top level of a hierarchical encoding: how the domain is partitioned
/// into subdomains and how a subdomain is selected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopScheme {
    /// `levels` levels of the balanced ITE tree: up to `2^levels`
    /// subdomains obtained by recursive ceiling-halving (paper's
    /// `ITE-log-i`).
    IteLog {
        /// Number of ITE-log levels (= indexing variables).
        levels: u32,
    },
    /// A chain of `vars` ITEs selecting one of `vars + 1` subdomains
    /// (paper's `ITE-linear-i`).
    IteLinear {
        /// Number of indexing variables in the chain.
        vars: u32,
    },
    /// One variable per subdomain with at-least-one and at-most-one
    /// clauses (paper's `direct-n`).
    Direct {
        /// Number of subdomains (= top-level variables).
        vars: u32,
    },
    /// One variable per subdomain with only an at-least-one clause
    /// (paper's `muldirect-n`); several subdomains may be selected and the
    /// decoder takes any valid one.
    Muldirect {
        /// Number of subdomains (= top-level variables).
        vars: u32,
    },
}

impl TopScheme {
    /// The paper's name of this top scheme, e.g. `ITE-linear-2`.
    pub fn name(self) -> String {
        match self {
            TopScheme::IteLog { levels } => format!("ITE-log-{levels}"),
            TopScheme::IteLinear { vars } => format!("ITE-linear-{vars}"),
            TopScheme::Direct { vars } => format!("direct-{vars}"),
            TopScheme::Muldirect { vars } => format!("muldirect-{vars}"),
        }
    }

    /// The number of subdomains this top scheme partitions a `k`-value
    /// domain into (without emitting the scheme) — recorded by encode
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn num_subdomains(self, k: u32) -> u32 {
        assert!(k >= 1, "domain must have at least one value");
        match self {
            TopScheme::IteLog { levels } => halving_sizes(k, levels).len() as u32,
            TopScheme::IteLinear { vars } => (vars + 1).min(k),
            TopScheme::Direct { vars } | TopScheme::Muldirect { vars } => vars.min(k),
        }
    }

    /// Emits the subdomain-selection layer for a domain of `k` values:
    /// the scheme over the subdomains plus the subdomain sizes (in value
    /// order, summing to `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or if the top scheme has no variables/levels.
    pub fn emit(self, k: u32) -> (SchemeCnf, Vec<u32>) {
        assert!(k >= 1, "domain must have at least one value");
        match self {
            TopScheme::IteLog { levels } => {
                assert!(levels >= 1, "ITE-log top needs at least one level");
                let sizes = halving_sizes(k, levels);
                let tree = truncated_balanced_tree(sizes.len() as u32, k, levels);
                (tree.to_scheme(), sizes)
            }
            TopScheme::IteLinear { vars } => {
                assert!(vars >= 1, "ITE-linear top needs at least one variable");
                let sizes = chunked_sizes(k, (vars + 1).min(k));
                (IteTree::linear(sizes.len() as u32).to_scheme(), sizes)
            }
            TopScheme::Direct { vars } => {
                assert!(vars >= 1, "direct top needs at least one variable");
                let sizes = chunked_sizes(k, vars.min(k));
                (SimpleScheme::Direct.emit(sizes.len() as u32), sizes)
            }
            TopScheme::Muldirect { vars } => {
                assert!(vars >= 1, "muldirect top needs at least one variable");
                let sizes = chunked_sizes(k, vars.min(k));
                (SimpleScheme::Muldirect.emit(sizes.len() as u32), sizes)
            }
        }
    }
}

impl fmt::Display for TopScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Subdomain sizes from `levels` rounds of recursive ceiling-halving.
fn halving_sizes(k: u32, levels: u32) -> Vec<u32> {
    fn split(size: u32, depth: u32, out: &mut Vec<u32>) {
        if depth == 0 || size == 1 {
            out.push(size);
        } else {
            let first = size.div_ceil(2);
            split(first, depth - 1, out);
            split(size - first, depth - 1, out);
        }
    }
    let mut out = Vec::new();
    split(k, levels, &mut out);
    out
}

/// The balanced ITE tree over subdomains matching [`halving_sizes`]: the
/// shape of `IteTree::balanced(k)` truncated at `levels`, with subdomain
/// indices as leaves.
fn truncated_balanced_tree(m: u32, k: u32, levels: u32) -> IteTree {
    fn build(size: u32, depth_left: u32, depth: u32, next_leaf: &mut u32) -> IteTree {
        if depth_left == 0 || size == 1 {
            let leaf = IteTree::leaf(*next_leaf);
            *next_leaf += 1;
            leaf
        } else {
            let first = size.div_ceil(2);
            let then = build(first, depth_left - 1, depth + 1, next_leaf);
            let els = build(size - first, depth_left - 1, depth + 1, next_leaf);
            IteTree::node(depth, then, els)
        }
    }
    let mut next = 0;
    let tree = build(k, levels, 0, &mut next);
    debug_assert_eq!(next, m, "leaf count must match subdomain count");
    tree
}

/// Chunks of capacity `⌈k/m⌉`, the last one ragged. At most `m` chunks;
/// fewer when the capacity rounds up enough that trailing chunks would be
/// empty (an empty subdomain would break the totality of the encoding, so
/// the top level simply shrinks).
fn chunked_sizes(k: u32, m: u32) -> Vec<u32> {
    let capacity = k.div_ceil(m);
    let mut sizes = Vec::with_capacity(m as usize);
    let mut remaining = k;
    while remaining > 0 {
        let take = capacity.min(remaining);
        sizes.push(take);
        remaining -= take;
    }
    debug_assert!(sizes.len() <= m as usize);
    sizes
}

/// Emits the full 2-level hierarchical encoding `top+bottom` for a domain
/// of `k` values: each value's pattern is its subdomain's top pattern
/// followed by its in-subdomain bottom pattern, the bottom variables
/// shifted past the top's and shared by every subdomain (paper §4).
///
/// Ragged subdomains get smaller trees over a prefix of the shared
/// variables when the bottom is an ITE scheme, and conditional exclusion
/// clauses otherwise.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn emit_hierarchical(top: TopScheme, bottom: SimpleScheme, k: u32) -> SchemeCnf {
    let (top_cnf, sizes) = top.emit(k);
    let capacity = *sizes.iter().max().expect("at least one subdomain");
    let shift = top_cnf.num_vars;

    // ITE bottoms emit no structural clauses, so a smaller subdomain can
    // use its own smaller tree over the shared variable prefix.
    let ite_bottom = matches!(bottom, SimpleScheme::IteLinear | SimpleScheme::IteLog);
    let bottom_full = bottom.emit(capacity);
    let num_vars = shift + bottom_full.num_vars;

    let mut per_size: std::collections::BTreeMap<u32, SchemeCnf> = Default::default();
    if ite_bottom {
        for &s in &sizes {
            per_size.entry(s).or_insert_with(|| bottom.emit(s));
        }
    }

    let shift_lits = |lits: &[Lit]| -> Vec<Lit> {
        lits.iter()
            .map(|&l| Lit::from_code(l.code() + 2 * shift))
            .collect()
    };

    // Patterns: subdomain pattern ++ in-subdomain pattern.
    let mut patterns = Vec::with_capacity(k as usize);
    for (s, &size) in sizes.iter().enumerate() {
        let top_pat = &top_cnf.patterns[s];
        let bottom_patterns: &[Pattern] = if ite_bottom {
            &per_size[&size].patterns
        } else {
            &bottom_full.patterns[..size as usize]
        };
        for j in 0..size {
            let mut lits = top_pat.lits().to_vec();
            lits.extend(shift_lits(bottom_patterns[j as usize].lits()));
            patterns.push(Pattern::new(lits));
        }
    }

    // Structural clauses: the top's, the capacity bottom's (shifted), and
    // — for non-ITE bottoms — conditional exclusions for ragged
    // subdomains.
    let mut structural = top_cnf.structural.clone();
    for clause in &bottom_full.structural {
        structural.push(shift_lits(clause));
    }
    if !ite_bottom {
        for (s, &size) in sizes.iter().enumerate() {
            for j in size..capacity {
                let mut clause = top_cnf.patterns[s].negation_clause();
                clause.extend(shift_lits(
                    &bottom_full.patterns[j as usize].negation_clause(),
                ));
                structural.push(clause);
            }
        }
    }

    SchemeCnf {
        num_vars,
        patterns,
        structural,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halving_matches_figure_1() {
        assert_eq!(halving_sizes(13, 1), vec![7, 6]); // Fig. 1c
        assert_eq!(halving_sizes(13, 2), vec![4, 3, 3, 3]); // Fig. 1d
        assert_eq!(halving_sizes(8, 2), vec![2, 2, 2, 2]);
        assert_eq!(halving_sizes(3, 2), vec![1, 1, 1]);
        assert_eq!(halving_sizes(1, 3), vec![1]);
    }

    #[test]
    fn chunked_matches_the_ceiling_rule() {
        // §4: "the number of Boolean variables used for the second-level
        // muldirect encoding will be ⌈K/n⌉".
        assert_eq!(chunked_sizes(13, 3), vec![5, 5, 3]);
        assert_eq!(chunked_sizes(9, 3), vec![3, 3, 3]);
        assert_eq!(chunked_sizes(4, 3), vec![2, 2]);
        assert_eq!(chunked_sizes(2, 2), vec![1, 1]);
    }

    #[test]
    fn figure_1d_patterns_are_reproduced_exactly() {
        // §4 spells out the ITE-log-2+ITE-linear patterns for k = 13:
        // v4 ⇔ i0 ∧ ¬i1 ∧ i2; v5 ⇔ i0 ∧ ¬i1 ∧ ¬i2 ∧ i3;
        // v6 ⇔ i0 ∧ ¬i1 ∧ ¬i2 ∧ ¬i3.
        let scheme =
            emit_hierarchical(TopScheme::IteLog { levels: 2 }, SimpleScheme::IteLinear, 13);
        assert_eq!(scheme.patterns[4].to_string(), "x0 ∧ ¬x1 ∧ x2");
        assert_eq!(scheme.patterns[5].to_string(), "x0 ∧ ¬x1 ∧ ¬x2 ∧ x3");
        assert_eq!(scheme.patterns[6].to_string(), "x0 ∧ ¬x1 ∧ ¬x2 ∧ ¬x3");
        // ITE trees need no structural clauses at either level.
        assert!(scheme.structural.is_empty());
    }

    #[test]
    fn figure_1c_layout() {
        // ITE-log-1+ITE-linear on 13 values: subdomains [7, 6]; v0 ⇔ i0∧j0.
        let scheme =
            emit_hierarchical(TopScheme::IteLog { levels: 1 }, SimpleScheme::IteLinear, 13);
        // 1 top var + 6 shared bottom chain vars.
        assert_eq!(scheme.num_vars, 7);
        assert_eq!(scheme.patterns[0].to_string(), "x0 ∧ x1");
        // First value of the second subdomain: ¬i0 ∧ j0.
        assert_eq!(scheme.patterns[7].to_string(), "¬x0 ∧ x1");
    }

    #[test]
    fn all_paper_hierarchical_encodings_are_correct() {
        let combos: Vec<(TopScheme, SimpleScheme)> = vec![
            (TopScheme::IteLog { levels: 1 }, SimpleScheme::IteLinear),
            (TopScheme::IteLog { levels: 2 }, SimpleScheme::IteLinear),
            (TopScheme::IteLog { levels: 2 }, SimpleScheme::Direct),
            (TopScheme::IteLog { levels: 2 }, SimpleScheme::Muldirect),
            (TopScheme::IteLinear { vars: 2 }, SimpleScheme::Direct),
            (TopScheme::IteLinear { vars: 2 }, SimpleScheme::Muldirect),
            (TopScheme::Direct { vars: 3 }, SimpleScheme::Direct),
            (TopScheme::Direct { vars: 3 }, SimpleScheme::Muldirect),
            (TopScheme::Muldirect { vars: 3 }, SimpleScheme::Direct),
            (TopScheme::Muldirect { vars: 3 }, SimpleScheme::Muldirect),
        ];
        for (top, bottom) in combos {
            for k in 1..=13 {
                let scheme = emit_hierarchical(top, bottom, k);
                assert_eq!(scheme.domain_size(), k);
                scheme
                    .check_correctness()
                    .unwrap_or_else(|e| panic!("{}+{} k={k}: {e}", top.name(), bottom));
            }
        }
    }

    #[test]
    fn log_bottom_is_supported_beyond_the_paper() {
        // The framework is "completely general" (§4) — log can be a bottom.
        for k in 1..=11 {
            let scheme = emit_hierarchical(TopScheme::Direct { vars: 3 }, SimpleScheme::Log, k);
            scheme
                .check_correctness()
                .unwrap_or_else(|e| panic!("direct-3+log k={k}: {e}"));
        }
    }

    #[test]
    fn ragged_subdomains_get_exclusion_clauses_for_direct_bottoms() {
        // k = 7 over direct-3: sizes [3, 3, 1] at capacity 3, so the last
        // subdomain needs 2 exclusions.
        let scheme = emit_hierarchical(TopScheme::Direct { vars: 3 }, SimpleScheme::Direct, 7);
        // top: ALO + 3 AMO = 4; bottom (capacity 3): ALO + 3 AMO = 4;
        // exclusions: subdomain 2 forbids bottom indices 1 and 2 → 2.
        assert_eq!(scheme.structural.len(), 10);
    }

    #[test]
    fn ite_bottoms_use_smaller_trees_not_exclusions() {
        // k = 7 over ITE-log-2: sizes [2, 2, 2, 1]; ITE-linear bottom needs
        // no structural clauses at all.
        let scheme = emit_hierarchical(TopScheme::IteLog { levels: 2 }, SimpleScheme::IteLinear, 7);
        assert!(scheme.structural.is_empty());
        scheme.check_correctness().unwrap();
    }

    #[test]
    fn top_var_counts() {
        // muldirect-3+muldirect on k = 13: 3 top vars + ⌈13/3⌉ = 5 bottom.
        let scheme = emit_hierarchical(
            TopScheme::Muldirect { vars: 3 },
            SimpleScheme::Muldirect,
            13,
        );
        assert_eq!(scheme.num_vars, 8);
        // ITE-linear-2+direct on k = 13: 2 top vars + ⌈13/3⌉ = 5 bottom.
        let scheme = emit_hierarchical(TopScheme::IteLinear { vars: 2 }, SimpleScheme::Direct, 13);
        assert_eq!(scheme.num_vars, 7);
    }

    #[test]
    fn degenerate_single_value_domain() {
        for top in [
            TopScheme::IteLog { levels: 2 },
            TopScheme::IteLinear { vars: 2 },
            TopScheme::Direct { vars: 3 },
            TopScheme::Muldirect { vars: 3 },
        ] {
            let scheme = emit_hierarchical(top, SimpleScheme::Muldirect, 1);
            scheme.check_correctness().unwrap();
        }
    }

    #[test]
    fn top_names() {
        assert_eq!(TopScheme::IteLog { levels: 2 }.name(), "ITE-log-2");
        assert_eq!(TopScheme::IteLinear { vars: 2 }.name(), "ITE-linear-2");
        assert_eq!(TopScheme::Direct { vars: 3 }.name(), "direct-3");
        assert_eq!(TopScheme::Muldirect { vars: 3 }.name(), "muldirect-3");
    }
}
