//! The catalog of the paper's encodings.
//!
//! Table 2 and §6 compare **2 previously used** encodings (log, muldirect)
//! with **12 new** ones. [`EncodingId`] names each of them (plus `direct`,
//! the ancestor of muldirect, which the paper also measured); [`Encoding`]
//! turns an id into an emitter of per-CSP-variable [`SchemeCnf`]s.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::hier::{emit_hierarchical, TopScheme};
use crate::pattern::SchemeCnf;
use crate::scheme::SimpleScheme;

/// One of the 15 encodings handled by this crate: the paper's 14 compared
/// encodings plus `direct`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // the variants are the paper's encoding names
pub enum EncodingId {
    Log,
    Direct,
    Muldirect,
    IteLinear,
    IteLog,
    IteLog1IteLinear,
    IteLog2IteLinear,
    IteLog2Direct,
    IteLog2Muldirect,
    IteLinear2Direct,
    IteLinear2Muldirect,
    Direct3Direct,
    Direct3Muldirect,
    Muldirect3Direct,
    Muldirect3Muldirect,
}

impl EncodingId {
    /// Every encoding, previously-used ones first, in the paper's order.
    pub const ALL: [EncodingId; 15] = [
        EncodingId::Log,
        EncodingId::Direct,
        EncodingId::Muldirect,
        EncodingId::IteLinear,
        EncodingId::IteLog,
        EncodingId::IteLog1IteLinear,
        EncodingId::IteLog2IteLinear,
        EncodingId::IteLog2Direct,
        EncodingId::IteLog2Muldirect,
        EncodingId::IteLinear2Direct,
        EncodingId::IteLinear2Muldirect,
        EncodingId::Direct3Direct,
        EncodingId::Direct3Muldirect,
        EncodingId::Muldirect3Direct,
        EncodingId::Muldirect3Muldirect,
    ];

    /// The 12 encodings the paper introduces for FPGA routing (§6).
    pub const NEW: [EncodingId; 12] = [
        EncodingId::IteLinear,
        EncodingId::IteLog,
        EncodingId::IteLog1IteLinear,
        EncodingId::IteLog2IteLinear,
        EncodingId::IteLog2Direct,
        EncodingId::IteLog2Muldirect,
        EncodingId::IteLinear2Direct,
        EncodingId::IteLinear2Muldirect,
        EncodingId::Direct3Direct,
        EncodingId::Direct3Muldirect,
        EncodingId::Muldirect3Direct,
        EncodingId::Muldirect3Muldirect,
    ];

    /// The 2 encodings previously used for SAT-based FPGA routing.
    pub const PREVIOUS: [EncodingId; 2] = [EncodingId::Log, EncodingId::Muldirect];

    /// The paper's spelling of the encoding name, e.g.
    /// `ITE-linear-2+muldirect`.
    pub fn name(self) -> &'static str {
        match self {
            EncodingId::Log => "log",
            EncodingId::Direct => "direct",
            EncodingId::Muldirect => "muldirect",
            EncodingId::IteLinear => "ITE-linear",
            EncodingId::IteLog => "ITE-log",
            EncodingId::IteLog1IteLinear => "ITE-log-1+ITE-linear",
            EncodingId::IteLog2IteLinear => "ITE-log-2+ITE-linear",
            EncodingId::IteLog2Direct => "ITE-log-2+direct",
            EncodingId::IteLog2Muldirect => "ITE-log-2+muldirect",
            EncodingId::IteLinear2Direct => "ITE-linear-2+direct",
            EncodingId::IteLinear2Muldirect => "ITE-linear-2+muldirect",
            EncodingId::Direct3Direct => "direct-3+direct",
            EncodingId::Direct3Muldirect => "direct-3+muldirect",
            EncodingId::Muldirect3Direct => "muldirect-3+direct",
            EncodingId::Muldirect3Muldirect => "muldirect-3+muldirect",
        }
    }

    /// The structural description of this encoding.
    pub fn encoding(self) -> Encoding {
        use EncodingId::*;
        match self {
            Log => Encoding::Simple(SimpleScheme::Log),
            Direct => Encoding::Simple(SimpleScheme::Direct),
            Muldirect => Encoding::Simple(SimpleScheme::Muldirect),
            IteLinear => Encoding::Simple(SimpleScheme::IteLinear),
            IteLog => Encoding::Simple(SimpleScheme::IteLog),
            IteLog1IteLinear => {
                Encoding::hierarchical(TopScheme::IteLog { levels: 1 }, SimpleScheme::IteLinear)
            }
            IteLog2IteLinear => {
                Encoding::hierarchical(TopScheme::IteLog { levels: 2 }, SimpleScheme::IteLinear)
            }
            IteLog2Direct => {
                Encoding::hierarchical(TopScheme::IteLog { levels: 2 }, SimpleScheme::Direct)
            }
            IteLog2Muldirect => {
                Encoding::hierarchical(TopScheme::IteLog { levels: 2 }, SimpleScheme::Muldirect)
            }
            IteLinear2Direct => {
                Encoding::hierarchical(TopScheme::IteLinear { vars: 2 }, SimpleScheme::Direct)
            }
            IteLinear2Muldirect => {
                Encoding::hierarchical(TopScheme::IteLinear { vars: 2 }, SimpleScheme::Muldirect)
            }
            Direct3Direct => {
                Encoding::hierarchical(TopScheme::Direct { vars: 3 }, SimpleScheme::Direct)
            }
            Direct3Muldirect => {
                Encoding::hierarchical(TopScheme::Direct { vars: 3 }, SimpleScheme::Muldirect)
            }
            Muldirect3Direct => {
                Encoding::hierarchical(TopScheme::Muldirect { vars: 3 }, SimpleScheme::Direct)
            }
            Muldirect3Muldirect => {
                Encoding::hierarchical(TopScheme::Muldirect { vars: 3 }, SimpleScheme::Muldirect)
            }
        }
    }

    /// Emits the per-CSP-variable CNF shape for domain size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn emit(self, k: u32) -> SchemeCnf {
        self.encoding().emit(k)
    }
}

impl fmt::Display for EncodingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown encoding name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseEncodingError {
    input: String,
}

impl fmt::Display for ParseEncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown encoding name `{}`", self.input)
    }
}

impl Error for ParseEncodingError {}

impl FromStr for EncodingId {
    type Err = ParseEncodingError;

    /// Parses the paper's encoding names, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        EncodingId::ALL
            .into_iter()
            .find(|id| id.name().to_ascii_lowercase() == lower)
            .ok_or_else(|| ParseEncodingError {
                input: s.to_string(),
            })
    }
}

/// The structure of an encoding: a simple scheme, or a 2-level hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Encoding {
    /// A single-level scheme.
    Simple(SimpleScheme),
    /// A 2-level hierarchical composition (§4).
    Hierarchical {
        /// Subdomain-selection level.
        top: TopScheme,
        /// In-subdomain selection level (variables shared across
        /// subdomains).
        bottom: SimpleScheme,
    },
}

impl Encoding {
    /// Convenience constructor for the hierarchical variant.
    pub fn hierarchical(top: TopScheme, bottom: SimpleScheme) -> Self {
        Encoding::Hierarchical { top, bottom }
    }

    /// Emits the per-CSP-variable CNF shape for domain size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn emit(&self, k: u32) -> SchemeCnf {
        match self {
            Encoding::Simple(s) => s.emit(k),
            Encoding::Hierarchical { top, bottom } => emit_hierarchical(*top, *bottom, k),
        }
    }

    /// [`Encoding::emit`] wrapped in a `scheme_emit` trace span recording
    /// the encoding's shape: ITE tree depth for the ITE schemes, top/bottom
    /// scheme names and subdomain count for hierarchical compositions, and
    /// the emitted per-vertex variable/clause/pattern counts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn emit_traced(&self, k: u32, tracer: &satroute_obs::Tracer) -> SchemeCnf {
        use crate::ite::IteTree;
        use satroute_obs::FieldValue;

        let mut fields: Vec<(&str, FieldValue)> = vec![
            ("scheme", FieldValue::from(self.name())),
            ("k", FieldValue::from(k)),
        ];
        match self {
            Encoding::Simple(SimpleScheme::IteLinear) => {
                fields.push(("ite_depth", FieldValue::from(IteTree::linear(k).depth())));
            }
            Encoding::Simple(SimpleScheme::IteLog) => {
                fields.push(("ite_depth", FieldValue::from(IteTree::balanced(k).depth())));
            }
            Encoding::Simple(SimpleScheme::IteRandom(seed)) => {
                let depth = IteTree::random_shape(k, *seed).depth();
                fields.push(("ite_depth", FieldValue::from(depth)));
            }
            Encoding::Simple(_) => {}
            Encoding::Hierarchical { top, bottom } => {
                fields.push(("top", FieldValue::from(top.name())));
                fields.push(("bottom", FieldValue::from(bottom.name())));
                fields.push(("subdomains", FieldValue::from(top.num_subdomains(k))));
            }
        }
        let span = tracer.span_with("scheme_emit", fields);
        let scheme = self.emit(k);
        span.counter("scheme_vars", scheme.num_vars as u64);
        span.counter("structural_clauses", scheme.structural.len() as u64);
        span.counter("patterns", scheme.patterns.len() as u64);
        scheme
    }

    /// A display name matching the paper's convention.
    pub fn name(&self) -> String {
        match self {
            Encoding::Simple(s) => s.name().to_string(),
            Encoding::Hierarchical { top, bottom } => format!("{}+{}", top.name(), bottom),
        }
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_encodings_with_unique_names() {
        let mut names: Vec<&str> = EncodingId::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 15);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn new_and_previous_partition_matches_the_paper() {
        assert_eq!(EncodingId::NEW.len(), 12);
        assert_eq!(EncodingId::PREVIOUS.len(), 2);
        for id in EncodingId::NEW {
            assert!(!EncodingId::PREVIOUS.contains(&id));
        }
    }

    #[test]
    fn names_roundtrip_through_parsing() {
        for id in EncodingId::ALL {
            let parsed: EncodingId = id.name().parse().unwrap();
            assert_eq!(parsed, id);
            // Case-insensitive.
            let parsed: EncodingId = id.name().to_uppercase().parse().unwrap();
            assert_eq!(parsed, id);
        }
        assert!("no-such-encoding".parse::<EncodingId>().is_err());
    }

    #[test]
    fn encoding_names_match_ids() {
        assert_eq!(
            EncodingId::IteLinear2Muldirect.encoding().name(),
            "ITE-linear-2+muldirect"
        );
        assert_eq!(EncodingId::Log.encoding().name(), "log");
    }

    #[test]
    fn every_encoding_is_correct_for_small_domains() {
        // The master correctness sweep: exclusive selectability and
        // totality for every encoding and domain sizes 1..=10.
        for id in EncodingId::ALL {
            for k in 1..=10 {
                let scheme = id.emit(k);
                assert_eq!(scheme.domain_size(), k, "{id} k={k}");
                scheme
                    .check_correctness()
                    .unwrap_or_else(|e| panic!("{id} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn hierarchical_encodings_use_fewer_vars_than_direct() {
        // Sanity of the space trade-off: for k = 13, muldirect-3+muldirect
        // uses 3 + 5 = 8 variables vs 13 for muldirect.
        assert_eq!(EncodingId::Muldirect3Muldirect.emit(13).num_vars, 8);
        assert_eq!(EncodingId::Muldirect.emit(13).num_vars, 13);
        assert_eq!(EncodingId::IteLinear2Muldirect.emit(13).num_vars, 7);
    }
}
