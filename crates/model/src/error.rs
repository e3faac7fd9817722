//! Model-level error type.

use gpa_core::AttnError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong building or driving a
/// [`DecoderModel`](crate::DecoderModel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A [`LayerPattern`](crate::LayerPattern) string failed to parse.
    BadPattern {
        /// What was wrong with the pattern string.
        what: &'static str,
    },
    /// The pattern uses a label no binding provides a plan for.
    Unbound {
        /// The unbound layer label.
        label: char,
    },
    /// Two bindings claim the same label.
    DuplicateBinding {
        /// The label bound twice.
        label: char,
    },
    /// A binding's label never appears in the pattern.
    UnusedBinding {
        /// The label with no layer.
        label: char,
    },
    /// The model's own shape parameters are invalid.
    BadModel {
        /// Which parameter, and why.
        what: &'static str,
    },
    /// An input or a [`ModelKvState`](crate::ModelKvState) does not match
    /// the model it is being driven through.
    BadState {
        /// Which expectation failed.
        what: &'static str,
    },
    /// The page pool could not supply the pages this advance needs; no
    /// cache was mutated.
    OutOfPages,
    /// A kernel launch failed inside a layer; every layer's cache was
    /// rolled back.
    Attn(AttnError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadPattern { what } => write!(f, "bad layer pattern: {what}"),
            ModelError::Unbound { label } => {
                write!(f, "pattern label '{label}' has no plan binding")
            }
            ModelError::DuplicateBinding { label } => {
                write!(f, "label '{label}' is bound more than once")
            }
            ModelError::UnusedBinding { label } => {
                write!(f, "binding '{label}' never appears in the pattern")
            }
            ModelError::BadModel { what } => write!(f, "bad model parameter: {what}"),
            ModelError::BadState { what } => write!(f, "bad model input/state: {what}"),
            ModelError::OutOfPages => {
                write!(f, "page pool cannot supply the pages this advance needs")
            }
            ModelError::Attn(e) => write!(f, "layer launch failed: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Attn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AttnError> for ModelError {
    fn from(e: AttnError) -> Self {
        ModelError::Attn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(ModelError::BadPattern { what: "empty" }
            .to_string()
            .contains("empty"));
        assert!(ModelError::Unbound { label: 'S' }.to_string().contains('S'));
        assert!(ModelError::DuplicateBinding { label: 'F' }
            .to_string()
            .contains("more than once"));
        assert!(ModelError::UnusedBinding { label: 'X' }
            .to_string()
            .contains("never appears"));
        assert!(ModelError::OutOfPages.to_string().contains("pages"));
        let wrapped: ModelError = AttnError::BadParameter { what: "boom" }.into();
        assert!(wrapped.to_string().contains("boom"));
        assert!(Error::source(&wrapped).is_some());
        assert!(Error::source(&ModelError::OutOfPages).is_none());
    }
}
