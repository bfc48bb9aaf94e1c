//! Diagnostics: structured errors and warnings with source spans.

use crate::span::{LineMap, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note attached to another diagnostic.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// The input is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single diagnostic message anchored at a [`Span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity of the message.
    pub severity: Severity,
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// Secondary notes, e.g. "previous declaration here".
    pub notes: Vec<(String, Span)>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attaches a secondary note, returning `self` for chaining.
    #[must_use]
    pub fn with_note(mut self, message: impl Into<String>, span: Span) -> Self {
        self.notes.push((message.into(), span));
        self
    }

    /// Renders the diagnostic against `source` with line/column positions.
    pub fn render(&self, source: &str) -> String {
        let map = LineMap::new(source);
        let mut out = format!(
            "{}: {} at {}",
            self.severity,
            self.message,
            map.line_col(self.span.start)
        );
        let snip = self.span.snippet(source);
        if !snip.is_empty() {
            out.push_str(&format!(" `{}`", snip.trim()));
        }
        for (msg, span) in &self.notes {
            out.push_str(&format!(
                "\n  note: {} at {}",
                msg,
                map.line_col(span.start)
            ));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} at {}", self.severity, self.message, self.span)
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics produced by a compiler phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.items.push(diag);
    }

    /// Appends an error with the given message and span.
    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::error(message, span));
    }

    /// Appends a warning with the given message and span.
    pub fn warning(&mut self, message: impl Into<String>, span: Span) {
        self.push(Diagnostic::warning(message, span));
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the recorded diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Merges another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Renders all diagnostics against `source`, one per line.
    pub fn render(&self, source: &str) -> String {
        self.items
            .iter()
            .map(|d| d.render(source))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.items.is_empty() {
            return write!(f, "no diagnostics");
        }
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl FromIterator<Diagnostic> for Diagnostics {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Diagnostics {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_detection() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.warning("odd spacing", Span::new(0, 1));
        assert!(!ds.has_errors());
        ds.error("undeclared attribute", Span::new(2, 5));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn render_includes_position_and_snippet() {
        let src = "group g\nfield f in zzz";
        let d = Diagnostic::error("undeclared group", Span::new(19, 22))
            .with_note("field declared here", Span::new(8, 13));
        let rendered = d.render(src);
        assert!(
            rendered.contains("error: undeclared group at 2:12"),
            "{rendered}"
        );
        assert!(rendered.contains("`zzz`"), "{rendered}");
        assert!(
            rendered.contains("note: field declared here at 2:1"),
            "{rendered}"
        );
    }

    #[test]
    fn display_is_never_empty() {
        let ds = Diagnostics::new();
        assert_eq!(ds.to_string(), "no diagnostics");
    }
}
