//! Structural ITE-tree encodings (paper §3).
//!
//! A CSP variable is represented by a tree of ITE ("if-then-else")
//! operators whose leaves are the domain values. Each ITE is controlled by
//! an *indexing Boolean variable*; if the variable is true the then-branch
//! is selected, otherwise the else-branch. Every assignment to the indexing
//! variables selects exactly one leaf, so no at-least-one / at-most-one /
//! illegal-value clauses are needed — only conflict clauses between
//! adjacent CSP variables.
//!
//! Two canonical shapes (Fig. 1):
//!
//! * [`IteTree::linear`] — a chain of k−1 ITEs, each with a fresh variable
//!   (the **ITE-linear** encoding): `v0` is selected by `i0`, `v1` by
//!   `¬i0 ∧ i1`, …, `v_{k-1}` by `¬i0 ∧ … ∧ ¬i_{k-2}`.
//! * [`IteTree::balanced`] — a balanced tree whose levels share indexing
//!   variables (the **ITE-log** encoding), using ⌈log₂ k⌉ variables with
//!   some short paths, so that — unlike the log encoding — no illegal
//!   patterns exist.
//!
//! Arbitrary shapes can be built with [`IteTree::node`] / [`IteTree::leaf`]
//! and validated with [`IteTree::validate`]; the paper notes that "in
//! general, the ITE tree for a CSP variable can have any structure".

use satroute_cnf::{Lit, Var};

use crate::pattern::{Pattern, SchemeCnf};

/// A tree of ITE operators selecting one domain value per assignment of its
/// indexing variables.
///
/// # Examples
///
/// The paper's Fig. 1a chain for a small domain:
///
/// ```
/// use satroute_core::IteTree;
///
/// let tree = IteTree::linear(4);
/// let scheme = tree.to_scheme();
/// assert_eq!(scheme.num_vars, 3);
/// // v1 is selected by ¬i0 ∧ i1.
/// assert_eq!(scheme.patterns[1].to_string(), "¬x0 ∧ x1");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IteTree {
    /// A domain value at the bottom of the tree.
    Leaf(u32),
    /// An ITE operator: `var` true selects `then`, false selects `els`.
    Node {
        /// Index of the controlling (local) indexing Boolean variable.
        var: u32,
        /// Selected when `var` is true.
        then: Box<IteTree>,
        /// Selected when `var` is false.
        els: Box<IteTree>,
    },
}

impl IteTree {
    /// Creates a leaf selecting domain value `value`.
    pub fn leaf(value: u32) -> Self {
        IteTree::Leaf(value)
    }

    /// Creates an ITE node.
    pub fn node(var: u32, then: IteTree, els: IteTree) -> Self {
        IteTree::Node {
            var,
            then: Box::new(then),
            els: Box::new(els),
        }
    }

    /// Builds the ITE-linear chain for `k` domain values (Fig. 1a): each of
    /// the k−1 ITEs gets a fresh variable, value `d < k-1` hangs off the
    /// then-branch of ITE `d`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn linear(k: u32) -> Self {
        assert!(k >= 1, "domain must have at least one value");
        fn build(lo: u32, hi: u32, var: u32) -> IteTree {
            if hi - lo == 1 {
                IteTree::Leaf(lo)
            } else {
                IteTree::node(var, IteTree::Leaf(lo), build(lo + 1, hi, var + 1))
            }
        }
        build(0, k, 0)
    }

    /// Builds the balanced, level-shared tree for `k` domain values
    /// (Fig. 1b): variable `i_d` controls every node at depth `d`, the
    /// then-branch holds the first ⌈size/2⌉ values. Paths have length
    /// ⌈log₂ k⌉ or ⌈log₂ k⌉ − 1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn balanced(k: u32) -> Self {
        assert!(k >= 1, "domain must have at least one value");
        fn build(lo: u32, hi: u32, depth: u32) -> IteTree {
            let size = hi - lo;
            if size == 1 {
                IteTree::Leaf(lo)
            } else {
                let mid = lo + size.div_ceil(2);
                IteTree::node(depth, build(lo, mid, depth + 1), build(mid, hi, depth + 1))
            }
        }
        build(0, k, 0)
    }

    /// Builds a random tree shape over `k` domain values, with a fresh
    /// indexing variable per ITE (k−1 variables, like ITE-linear).
    ///
    /// The paper notes that "there can be many structurally different ITE
    /// trees that have the same number of leaves" and that the structure
    /// changes the selection probability of each value; this constructor
    /// (deterministic per seed) supports exploring that space. The encoder
    /// reaches it as [`SimpleScheme::IteRandom`](crate::SimpleScheme::IteRandom),
    /// which the shape cells of the `ablation` bench suite solve.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn random_shape(k: u32, seed: u64) -> Self {
        assert!(k >= 1, "domain must have at least one value");
        // Splitmix-style deterministic generator; avoids a rand dependency
        // in this crate's public API surface.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn build(lo: u32, hi: u32, next_var: &mut u32, state: &mut u64) -> IteTree {
            let size = hi - lo;
            if size == 1 {
                return IteTree::Leaf(lo);
            }
            // Random split point in 1..size.
            let split = 1 + (next(state) % u64::from(size - 1)) as u32;
            let var = *next_var;
            *next_var += 1;
            let then = build(lo, lo + split, next_var, state);
            let els = build(lo + split, hi, next_var, state);
            IteTree::node(var, then, els)
        }
        let mut state = seed;
        let mut next_var = 0;
        build(0, k, &mut next_var, &mut state)
    }

    /// Number of leaves (= domain values selected by this tree).
    pub fn num_leaves(&self) -> u32 {
        match self {
            IteTree::Leaf(_) => 1,
            IteTree::Node { then, els, .. } => then.num_leaves() + els.num_leaves(),
        }
    }

    /// Length of the longest root-to-leaf path, counted in ITE operators.
    pub fn depth(&self) -> u32 {
        match self {
            IteTree::Leaf(_) => 0,
            IteTree::Node { then, els, .. } => 1 + then.depth().max(els.depth()),
        }
    }

    /// Highest variable index used, plus one (0 for a bare leaf).
    pub fn num_vars(&self) -> u32 {
        match self {
            IteTree::Leaf(_) => 0,
            IteTree::Node { var, then, els } => (var + 1).max(then.num_vars()).max(els.num_vars()),
        }
    }

    /// Checks the paper's structural restrictions: leaf values are exactly
    /// `0..num_leaves()` (each once) and no indexing variable repeats on a
    /// root-to-leaf path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let k = self.num_leaves();
        let mut seen = vec![false; k as usize];
        let mut path: Vec<u32> = Vec::new();
        self.validate_inner(&mut seen, &mut path)?;
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("leaf value {missing} missing"));
        }
        Ok(())
    }

    fn validate_inner(&self, seen: &mut [bool], path: &mut Vec<u32>) -> Result<(), String> {
        match self {
            IteTree::Leaf(v) => {
                let idx = *v as usize;
                if idx >= seen.len() {
                    return Err(format!("leaf value {v} out of range 0..{}", seen.len()));
                }
                if seen[idx] {
                    return Err(format!("leaf value {v} appears twice"));
                }
                seen[idx] = true;
                Ok(())
            }
            IteTree::Node { var, then, els } => {
                if path.contains(var) {
                    return Err(format!("variable {var} repeats on a path"));
                }
                path.push(*var);
                then.validate_inner(seen, path)?;
                els.validate_inner(seen, path)?;
                path.pop();
                Ok(())
            }
        }
    }

    /// Converts the tree to the pattern form: one pattern per leaf, built
    /// from the literals along the root-to-leaf path; no structural clauses.
    ///
    /// # Panics
    ///
    /// Panics if [`IteTree::validate`] fails (malformed custom tree).
    pub fn to_scheme(&self) -> SchemeCnf {
        self.validate().expect("ITE tree must be well-formed");
        let k = self.num_leaves();
        let mut patterns: Vec<Option<Pattern>> = vec![None; k as usize];
        let mut path: Vec<Lit> = Vec::new();
        collect_patterns(self, &mut path, &mut patterns);
        SchemeCnf {
            num_vars: self.num_vars(),
            patterns: patterns
                .into_iter()
                .map(|p| p.expect("validate guarantees every value has a leaf"))
                .collect(),
            structural: Vec::new(),
        }
    }
}

fn collect_patterns(tree: &IteTree, path: &mut Vec<Lit>, patterns: &mut [Option<Pattern>]) {
    match tree {
        IteTree::Leaf(v) => {
            patterns[*v as usize] = Some(Pattern::new(path.clone()));
        }
        IteTree::Node { var, then, els } => {
            path.push(Lit::positive(Var::new(*var)));
            collect_patterns(then, path, patterns);
            path.pop();
            path.push(Lit::negative(Var::new(*var)));
            collect_patterns(els, path, patterns);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_strings(scheme: &SchemeCnf) -> Vec<String> {
        scheme.patterns.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn linear_matches_figure_1a_semantics() {
        // §3: "the first domain value v0 is selected when i_v0 is true; v1
        // when ¬i_v0 ∧ i_v1; and so on", with 12 vars for 13 values.
        let scheme = IteTree::linear(13).to_scheme();
        assert_eq!(scheme.num_vars, 12);
        assert_eq!(scheme.patterns[0].to_string(), "x0");
        assert_eq!(scheme.patterns[1].to_string(), "¬x0 ∧ x1");
        assert_eq!(
            scheme.patterns[12].len(),
            12,
            "last value is the all-negative path"
        );
        assert!(scheme.structural.is_empty());
    }

    #[test]
    fn balanced_has_log_depth_and_shared_vars() {
        let tree = IteTree::balanced(13);
        assert_eq!(tree.num_leaves(), 13);
        assert_eq!(tree.num_vars(), 4); // ⌈log₂ 13⌉ as in Fig. 1b
        assert_eq!(tree.depth(), 4);
        let scheme = tree.to_scheme();
        // Paths have length 4 or 3.
        for p in &scheme.patterns {
            assert!(p.len() == 4 || p.len() == 3, "{p}");
        }
    }

    #[test]
    fn balanced_power_of_two_is_exactly_log() {
        let scheme = IteTree::balanced(8).to_scheme();
        assert_eq!(scheme.num_vars, 3);
        for p in &scheme.patterns {
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn trees_produce_correct_schemes() {
        for k in 1..=13 {
            IteTree::linear(k)
                .to_scheme()
                .check_correctness()
                .unwrap_or_else(|e| panic!("linear k={k}: {e}"));
            IteTree::balanced(k)
                .to_scheme()
                .check_correctness()
                .unwrap_or_else(|e| panic!("balanced k={k}: {e}"));
        }
    }

    #[test]
    fn single_value_tree_is_a_bare_leaf() {
        assert_eq!(IteTree::linear(1), IteTree::Leaf(0));
        assert_eq!(IteTree::balanced(1), IteTree::Leaf(0));
        let scheme = IteTree::linear(1).to_scheme();
        assert_eq!(scheme.num_vars, 0);
        assert!(scheme.patterns[0].is_empty());
    }

    #[test]
    fn custom_tree_shapes_are_supported() {
        // A lopsided tree: ITE(i0, ITE(i1, v0, v1), v2).
        let tree = IteTree::node(
            0,
            IteTree::node(1, IteTree::leaf(0), IteTree::leaf(1)),
            IteTree::leaf(2),
        );
        tree.validate().unwrap();
        let scheme = tree.to_scheme();
        scheme.check_correctness().unwrap();
        assert_eq!(pattern_strings(&scheme), vec!["x0 ∧ x1", "x0 ∧ ¬x1", "¬x0"]);
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        // Duplicate leaf value.
        let dup = IteTree::node(0, IteTree::leaf(0), IteTree::leaf(0));
        assert!(dup.validate().unwrap_err().contains("twice"));
        // Out-of-range value (leaves must be 0..num_leaves).
        let gap = IteTree::node(0, IteTree::leaf(0), IteTree::leaf(5));
        assert!(gap.validate().unwrap_err().contains("out of range"));
        // Variable repeated on a path.
        let rep = IteTree::node(
            0,
            IteTree::node(0, IteTree::leaf(0), IteTree::leaf(1)),
            IteTree::leaf(2),
        );
        assert!(rep.validate().unwrap_err().contains("repeats"));
    }

    #[test]
    fn random_shapes_are_valid_and_correct() {
        for seed in 0..5u64 {
            for k in 1..=12 {
                let tree = IteTree::random_shape(k, seed);
                tree.validate()
                    .unwrap_or_else(|e| panic!("seed {seed} k={k}: {e}"));
                assert_eq!(tree.num_leaves(), k);
                assert_eq!(tree.num_vars(), k.saturating_sub(1));
                tree.to_scheme()
                    .check_correctness()
                    .unwrap_or_else(|e| panic!("seed {seed} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn random_shapes_are_deterministic_and_diverse() {
        let a = IteTree::random_shape(10, 3);
        let b = IteTree::random_shape(10, 3);
        assert_eq!(a, b);
        // Across seeds, at least two distinct shapes appear.
        let shapes: std::collections::HashSet<String> = (0..6u64)
            .map(|s| format!("{:?}", IteTree::random_shape(10, s)))
            .collect();
        assert!(shapes.len() >= 2);
    }

    #[test]
    fn balanced_split_puts_ceil_half_in_then_branch() {
        // 13 → then 7 / else 6, as needed for the Fig. 1c/1d subdomain
        // layout [7, 6] and [4, 3, 3, 3].
        if let IteTree::Node { then, els, .. } = IteTree::balanced(13) {
            assert_eq!(then.num_leaves(), 7);
            assert_eq!(els.num_leaves(), 6);
        } else {
            panic!("balanced(13) must be a node");
        }
    }
}
