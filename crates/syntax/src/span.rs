//! Byte-offset source spans and line/column mapping.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A half-open byte range `[start, end)` into a source text.
///
/// Spans are attached to every token and AST node so that diagnostics can
/// point back at the offending source. The special [`Span::DUMMY`] value is
/// used for synthesised nodes (e.g. desugared `if` commands).
///
/// A span hashes to nothing: an AST node's `Hash` covers its content and
/// not its position, so two declarations that differ only in where they
/// sit in the text hash alike (the engine's cutoff keys rely on this).
/// Equality still compares positions, which `Hash` permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// A span for synthesised nodes that have no source location.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(end >= start, "span end before start: {start}..{end}");
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// A [`Span::DUMMY`] operand is treated as absorbing: joining with it
    /// returns the other span unchanged.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The slice of `source` this span denotes, or `""` when out of range.
    pub fn snippet<'s>(&self, source: &'s str) -> &'s str {
        source
            .get(self.start as usize..self.end as usize)
            .unwrap_or("")
    }
}

impl Hash for Span {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// One-based line/column position, for human-readable diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineCol {
    /// One-based line number.
    pub line: u32,
    /// One-based column number (in bytes, not grapheme clusters).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Precomputed line-start table for converting byte offsets to [`LineCol`].
#[derive(Debug, Clone)]
pub struct LineMap {
    line_starts: Vec<u32>,
}

impl LineMap {
    /// Builds the map by scanning `source` once.
    pub fn new(source: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineMap { line_starts }
    }

    /// Converts a byte offset to a one-based line/column pair.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_spans() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(b.to(a), Span::new(3, 12));
        assert_eq!(a.to(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.to(b), b);
    }

    #[test]
    fn snippet_extracts_text() {
        let src = "group value";
        assert_eq!(Span::new(6, 11).snippet(src), "value");
        assert_eq!(Span::new(6, 99).snippet(src), "");
    }

    #[test]
    fn line_map_positions() {
        let src = "ab\ncd\n\nefg";
        let map = LineMap::new(src);
        assert_eq!(map.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(map.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(map.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(map.line_col(6), LineCol { line: 3, col: 1 });
        assert_eq!(map.line_col(9), LineCol { line: 4, col: 3 });
    }

    #[test]
    #[should_panic(expected = "span end before start")]
    fn invalid_span_panics() {
        let _ = Span::new(5, 3);
    }
}
