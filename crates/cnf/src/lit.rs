//! Variable and literal handles.

use std::fmt;

/// A propositional variable.
///
/// Variables are identified by a 0-based index. In the DIMACS interchange
/// format the same variable appears 1-based (`Var(0)` is printed as `1`).
///
/// # Examples
///
/// ```
/// use satroute_cnf::Var;
///
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_dimacs(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The number of variables a formula can have: indices run over
    /// `0..Var::LIMIT`.
    ///
    /// The CDCL solver names an implicit binary clause in a trail reason
    /// by one `u32` whose top bit is a tag and whose low 31 bits hold a
    /// literal code, with `u32::MAX` reserved for "no reason". Literal
    /// codes (`2 * index + sign`) therefore stay below `2^31 - 1`.
    pub const LIMIT: u32 = (1 << 30) - 1;

    /// Creates a variable from its 0-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`Var::LIMIT`].
    #[inline]
    pub fn new(index: u32) -> Self {
        assert!(index < Var::LIMIT, "variable index out of range: {index}");
        Var(index)
    }

    /// Returns the 0-based index of this variable.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the 1-based DIMACS identifier of this variable.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        i64::from(self.0) + 1
    }

    /// Creates a variable from its 1-based DIMACS identifier.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs` is not positive or out of range.
    #[inline]
    pub fn from_dimacs(dimacs: i64) -> Self {
        assert!(dimacs > 0, "DIMACS variable must be positive: {dimacs}");
        Var::new(u32::try_from(dimacs - 1).expect("DIMACS variable out of range"))
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<Var> for usize {
    fn from(v: Var) -> usize {
        v.0 as usize
    }
}

/// A literal: a variable or its negation.
///
/// Literals are encoded as `2 * var + sign` where `sign` is 1 for a negated
/// literal. This gives a dense code usable as an array index (see
/// [`Lit::code`]), the layout used throughout the CDCL solver.
///
/// # Examples
///
/// ```
/// use satroute_cnf::{Lit, Var};
///
/// let v = Var::new(0);
/// let p = Lit::positive(v);
/// assert_eq!(!p, Lit::negative(v));
/// assert_eq!(p.to_dimacs(), 1);
/// assert_eq!((!p).to_dimacs(), -1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    #[inline]
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub fn negative(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a polarity.
    ///
    /// `positive == true` yields the positive literal.
    #[inline]
    pub fn new(var: Var, positive: bool) -> Self {
        if positive {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    }

    /// Creates a literal from its dense code (see [`Lit::code`]).
    #[inline]
    pub fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// Returns the variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive (non-negated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns `true` if this is a negated literal.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the dense code of this literal (`2 * var + sign`).
    ///
    /// Useful for indexing per-literal tables such as watch lists.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// Returns the DIMACS representation: `var + 1`, negated if the literal
    /// is negative.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().to_dimacs();
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Parses a literal from its DIMACS representation.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs` is zero or out of range.
    #[inline]
    pub fn from_dimacs(dimacs: i64) -> Self {
        assert!(dimacs != 0, "DIMACS literal must be non-zero");
        let var = Var::from_dimacs(dimacs.abs());
        Lit::new(var, dimacs > 0)
    }

    /// Evaluates the literal under a truth value for its variable.
    #[inline]
    pub fn apply(self, var_value: bool) -> bool {
        var_value == self.is_positive()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lit({})", self.to_dimacs())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬")?;
        }
        write!(f, "{}", self.var())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrips_through_dimacs() {
        for i in [0u32, 1, 2, 100, 65535] {
            let v = Var::new(i);
            assert_eq!(Var::from_dimacs(v.to_dimacs()), v);
        }
    }

    #[test]
    fn lit_polarity_and_negation() {
        let v = Var::new(5);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert!(p.is_positive());
        assert!(n.is_negative());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
    }

    #[test]
    fn lit_dense_code_is_two_var_plus_sign() {
        let v = Var::new(7);
        assert_eq!(Lit::positive(v).code(), 14);
        assert_eq!(Lit::negative(v).code(), 15);
        assert_eq!(Lit::from_code(14), Lit::positive(v));
    }

    #[test]
    fn lit_dimacs_roundtrip() {
        for d in [1i64, -1, 2, -2, 42, -42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    fn lit_apply_matches_semantics() {
        let v = Var::new(0);
        assert!(Lit::positive(v).apply(true));
        assert!(!Lit::positive(v).apply(false));
        assert!(Lit::negative(v).apply(false));
        assert!(!Lit::negative(v).apply(true));
    }

    #[test]
    fn highest_literal_code_stays_below_the_reason_tag() {
        let top = Var::new(Var::LIMIT - 1);
        assert!(Lit::negative(top).code() < (1 << 31) - 1);
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn var_at_the_limit_panics() {
        let _ = Var::new(Var::LIMIT);
    }

    #[test]
    #[should_panic]
    fn zero_dimacs_literal_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn display_formats() {
        let v = Var::new(3);
        assert_eq!(Lit::positive(v).to_string(), "x3");
        assert_eq!(Lit::negative(v).to_string(), "¬x3");
    }
}
