//! The simple encodings of Table 1: log, direct, muldirect.

use satroute_cnf::{Lit, Var};

use crate::ite::IteTree;
use crate::pattern::{Pattern, SchemeCnf};

/// One of the three "simple" CSP→SAT encodings (paper §2, Table 1). These
/// are also the building blocks available at each level of a hierarchical
/// encoding, alongside the ITE schemes of [`crate::ite`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SimpleScheme {
    /// ⌈log₂ k⌉ Boolean variables select a value by its binary index;
    /// out-of-domain bit patterns are excluded by clauses
    /// (Iwama & Miyazaki). Previously used for FPGA routing by
    /// Hung et al. and Nam et al.
    Log,
    /// One Boolean variable per value, with at-least-one and pairwise
    /// at-most-one clauses (de Kleer).
    Direct,
    /// The multivalued direct encoding: direct without the at-most-one
    /// clauses, so several values may be selected and a CSP solution is
    /// extracted by taking any one of them (Selman et al.). Previously used
    /// for FPGA routing by Nam et al. and Xu et al.
    Muldirect,
    /// A chain of k−1 ITEs, one fresh indexing variable each (paper §3,
    /// Fig. 1a).
    IteLinear,
    /// A balanced ITE tree whose levels share indexing variables — a log
    /// encoding needing no illegal-value exclusions (paper §3, Fig. 1b).
    IteLog,
    /// The random ITE tree shape [`IteTree::random_shape`] of the seed: one
    /// of the shapes between the linear chain and the balanced tree that
    /// the tree-shape ablation compares (paper §3). Not a catalog
    /// encoding: no [`EncodingId`](crate::EncodingId) names it.
    IteRandom(u64),
}

impl SimpleScheme {
    /// All simple schemes in a fixed order.
    pub const ALL: [SimpleScheme; 5] = [
        SimpleScheme::Log,
        SimpleScheme::Direct,
        SimpleScheme::Muldirect,
        SimpleScheme::IteLinear,
        SimpleScheme::IteLog,
    ];

    /// The paper's name of this scheme.
    pub fn name(self) -> &'static str {
        match self {
            SimpleScheme::Log => "log",
            SimpleScheme::Direct => "direct",
            SimpleScheme::Muldirect => "muldirect",
            SimpleScheme::IteLinear => "ITE-linear",
            SimpleScheme::IteLog => "ITE-log",
            SimpleScheme::IteRandom(_) => "ITE-random",
        }
    }

    /// Emits the per-CSP-variable CNF shape for a domain of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — a CSP variable always has at least one domain
    /// value (the encoder handles the 0-color corner case itself).
    pub fn emit(self, k: u32) -> SchemeCnf {
        assert!(k >= 1, "domain must have at least one value");
        match self {
            SimpleScheme::Log => emit_log(k),
            SimpleScheme::Direct => emit_direct(k, true),
            SimpleScheme::Muldirect => emit_direct(k, false),
            SimpleScheme::IteLinear => IteTree::linear(k).to_scheme(),
            SimpleScheme::IteLog => IteTree::balanced(k).to_scheme(),
            SimpleScheme::IteRandom(seed) => IteTree::random_shape(k, seed).to_scheme(),
        }
    }

    /// Number of local Boolean variables this scheme uses for domain size
    /// `k` (without emitting the full scheme).
    pub fn num_vars(self, k: u32) -> u32 {
        match self {
            SimpleScheme::Log | SimpleScheme::IteLog => ceil_log2(k),
            SimpleScheme::Direct | SimpleScheme::Muldirect => k,
            SimpleScheme::IteLinear | SimpleScheme::IteRandom(_) => k.saturating_sub(1),
        }
    }
}

impl std::fmt::Display for SimpleScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// ⌈log₂ k⌉ (0 for k ≤ 1).
pub(crate) fn ceil_log2(k: u32) -> u32 {
    if k <= 1 {
        0
    } else {
        32 - (k - 1).leading_zeros()
    }
}

/// The log encoding: value `d` ⇔ the binary representation of `d` over the
/// index bits (bit 0 in variable 0). Bit patterns `>= k` are excluded.
fn emit_log(k: u32) -> SchemeCnf {
    let n = ceil_log2(k);
    let bit_lit =
        |value: u32, bit: u32| -> Lit { Lit::new(Var::new(bit), value & (1 << bit) != 0) };
    let patterns = (0..k)
        .map(|d| Pattern::new((0..n).map(|b| bit_lit(d, b)).collect()))
        .collect();
    let structural = (k..(1u32 << n))
        .map(|illegal| (0..n).map(|b| !bit_lit(illegal, b)).collect())
        .collect();
    SchemeCnf {
        num_vars: n,
        patterns,
        structural,
    }
}

/// The direct (`at_most_one = true`) and muldirect (`false`) encodings:
/// one variable per value, an at-least-one clause, and — for direct —
/// pairwise at-most-one clauses.
fn emit_direct(k: u32, at_most_one: bool) -> SchemeCnf {
    let var = |d: u32| Var::new(d);
    let patterns = (0..k)
        .map(|d| Pattern::new(vec![Lit::positive(var(d))]))
        .collect();
    let mut structural: Vec<Vec<Lit>> = vec![(0..k).map(|d| Lit::positive(var(d))).collect()];
    if at_most_one {
        for a in 0..k {
            for b in (a + 1)..k {
                structural.push(vec![Lit::negative(var(a)), Lit::negative(var(b))]);
            }
        }
    }
    SchemeCnf {
        num_vars: k,
        patterns,
        structural,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(13), 4);
    }

    #[test]
    fn all_simple_schemes_are_correct_for_small_domains() {
        for scheme in SimpleScheme::ALL {
            for k in 1..=9 {
                let s = scheme.emit(k);
                assert_eq!(s.domain_size(), k, "{scheme} k={k}");
                assert_eq!(s.num_vars, scheme.num_vars(k), "{scheme} k={k}");
                s.check_correctness()
                    .unwrap_or_else(|e| panic!("{scheme} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn random_shape_variant_emits_the_seeded_tree() {
        for k in 1..=13 {
            for seed in 0..5 {
                let s = SimpleScheme::IteRandom(seed).emit(k);
                assert_eq!(
                    s,
                    IteTree::random_shape(k, seed).to_scheme(),
                    "k={k} seed={seed}"
                );
                assert_eq!(s.num_vars, SimpleScheme::IteRandom(seed).num_vars(k));
                s.check_correctness()
                    .unwrap_or_else(|e| panic!("seed {seed} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn table1_log_encoding_matches_the_paper() {
        // Table 1, k = 3: two variables l1, l2; illegal value 3 excluded by
        // (¬l1 ∨ ¬l2); value 0 = ¬l1∧¬l2, 1 = l1∧¬l2, 2 = ¬l1∧l2.
        let s = SimpleScheme::Log.emit(3);
        assert_eq!(s.num_vars, 2);
        assert_eq!(s.structural.len(), 1);
        assert_eq!(
            s.structural[0]
                .iter()
                .map(|l| l.to_dimacs())
                .collect::<Vec<_>>(),
            vec![-1, -2]
        );
        let dim = |p: &Pattern| p.lits().iter().map(|l| l.to_dimacs()).collect::<Vec<_>>();
        assert_eq!(dim(&s.patterns[0]), vec![-1, -2]);
        assert_eq!(dim(&s.patterns[1]), vec![1, -2]);
        assert_eq!(dim(&s.patterns[2]), vec![-1, 2]);
    }

    #[test]
    fn table1_direct_encoding_matches_the_paper() {
        // Table 1, k = 3: at-least-one x0∨x1∨x2; at-most-one pairwise.
        let s = SimpleScheme::Direct.emit(3);
        assert_eq!(s.num_vars, 3);
        assert_eq!(s.structural.len(), 4);
        assert_eq!(
            s.structural[0]
                .iter()
                .map(|l| l.to_dimacs())
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let amo: Vec<Vec<i64>> = s.structural[1..]
            .iter()
            .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
            .collect();
        assert_eq!(amo, vec![vec![-1, -2], vec![-1, -3], vec![-2, -3]]);
        // Conflict clause for a common value d is binary: ¬x_vd ∨ ¬x_wd.
        assert_eq!(s.patterns[1].negation_clause().len(), 1);
    }

    #[test]
    fn table1_muldirect_drops_at_most_one() {
        let s = SimpleScheme::Muldirect.emit(3);
        assert_eq!(s.structural.len(), 1);
        assert_eq!(s.structural[0].len(), 3);
    }

    #[test]
    fn log_power_of_two_has_no_exclusions() {
        for k in [2u32, 4, 8] {
            assert!(SimpleScheme::Log.emit(k).structural.is_empty());
        }
        assert_eq!(SimpleScheme::Log.emit(5).structural.len(), 3);
    }

    #[test]
    fn domain_of_one_needs_no_variables_for_log_like_schemes() {
        for scheme in [
            SimpleScheme::Log,
            SimpleScheme::IteLog,
            SimpleScheme::IteLinear,
        ] {
            let s = scheme.emit(1);
            assert_eq!(s.num_vars, 0, "{scheme}");
            assert!(s.patterns[0].is_empty());
        }
        // Direct still allocates one var and forces it true.
        let d = SimpleScheme::Direct.emit(1);
        assert_eq!(d.num_vars, 1);
    }

    #[test]
    fn var_counts_match_the_paper_for_13_values() {
        // §3: a 13-value domain needs 12 ITE-linear vars (Fig. 1a) and
        // 4 ITE-log vars (Fig. 1b).
        assert_eq!(SimpleScheme::IteLinear.num_vars(13), 12);
        assert_eq!(SimpleScheme::IteLog.num_vars(13), 4);
        assert_eq!(SimpleScheme::Log.num_vars(13), 4);
        assert_eq!(SimpleScheme::Direct.num_vars(13), 13);
    }
}
