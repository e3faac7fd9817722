//! Layer-pattern specs: which attention plan each decoder layer runs.
//!
//! Production hybrid stacks interleave full and sparse attention —
//! `"FFFSSSSSSSSFFF"` reads as three dense bookend layers on either side
//! of eight sparse middle layers. A [`LayerPattern`] is that string,
//! parsed once: each character is a **label**, and
//! [`DecoderModel::new`](crate::DecoderModel::new) binds every distinct
//! label to a compiled [`AttentionPlan`](gpa_core::AttentionPlan). The
//! grammar is deliberately open-ended: any ASCII alphanumeric character
//! is a valid label, so `"FSDSF"` can mix three different plans, not just
//! Full/Sparse.

use crate::error::ModelError;
use std::fmt;
use std::str::FromStr;

/// A parsed layer-pattern string: one label per decoder layer, in stack
/// order (index 0 is the first layer the input passes through).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LayerPattern {
    labels: Vec<char>,
}

impl LayerPattern {
    /// Parse a pattern string. Every character is one layer's label and
    /// must be ASCII alphanumeric; the string must be non-empty.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        if spec.is_empty() {
            return Err(ModelError::BadPattern {
                what: "pattern must name at least one layer",
            });
        }
        if !spec.chars().all(|c| c.is_ascii_alphanumeric()) {
            return Err(ModelError::BadPattern {
                what: "labels must be ASCII alphanumeric",
            });
        }
        Ok(LayerPattern {
            labels: spec.chars().collect(),
        })
    }

    /// Number of layers.
    #[allow(clippy::len_without_is_empty)] // parse rejects empty patterns
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// The per-layer labels in stack order.
    pub(crate) fn labels(&self) -> &[char] {
        &self.labels
    }
}

impl fmt::Display for LayerPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &c in &self.labels {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for LayerPattern {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LayerPattern::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips() {
        let p = LayerPattern::parse("FFFSSSSSSSSFFF").unwrap();
        assert_eq!(p.len(), 14);
        assert_eq!(p.to_string(), "FFFSSSSSSSSFFF");
        assert_eq!(p.labels()[3], 'S');
        let q: LayerPattern = "F1S2".parse().unwrap();
        assert_eq!(q.labels(), &['F', '1', 'S', '2']);
    }

    #[test]
    fn rejects_bad_specs() {
        assert_eq!(
            LayerPattern::parse(""),
            Err(ModelError::BadPattern {
                what: "pattern must name at least one layer",
            })
        );
        assert!(LayerPattern::parse("FS F").is_err());
        assert!(LayerPattern::parse("FS-F").is_err());
        assert!(LayerPattern::parse("héh").is_err());
    }
}
