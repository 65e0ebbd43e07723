//! Runtime values.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Text.
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Three-valued-logic comparison: `None` when either side is NULL or the
    /// types are incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        Cell::of(self).compare(&Cell::of(other))
    }

    /// SQL equality (NULL never equals anything).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Cell::of(self).fmt(f)
    }
}

/// A value as the evaluator sees it: text is borrowed from the table cell
/// or the bound constant it came from, and owned only when a function
/// computed it. Comparison and rendering are [`Value`]'s.
#[derive(Debug)]
pub(crate) enum Cell<'a> {
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
    Null,
}

impl<'a> Cell<'a> {
    /// Borrows a value.
    pub(crate) fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(Cow::Borrowed(s)),
            Value::Null => Cell::Null,
        }
    }

    /// The owned value.
    pub(crate) fn into_value(self) -> Value {
        match self {
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.into_owned()),
            Cell::Null => Value::Null,
        }
    }

    /// Three-valued-logic comparison: `None` when either side is NULL or the
    /// types are incomparable.
    pub(crate) fn compare(&self, other: &Cell<'_>) -> Option<Ordering> {
        match (self, other) {
            (Cell::Null, _) | (_, Cell::Null) => None,
            (Cell::Int(a), Cell::Int(b)) => Some(a.cmp(b)),
            (Cell::Float(a), Cell::Float(b)) => a.partial_cmp(b),
            (Cell::Int(a), Cell::Float(b)) => (*a as f64).partial_cmp(b),
            (Cell::Float(a), Cell::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Cell::Str(a), Cell::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SQL equality (NULL never equals anything).
    pub(crate) fn sql_eq(&self, other: &Cell<'_>) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }

    /// True when NULL.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float(v) => write!(f, "{v}"),
            Cell::Str(v) => write!(f, "{v}"),
            Cell::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_incomparable() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert!(Value::Float(2.0).sql_eq(&Value::Int(2)));
    }

    #[test]
    fn strings_compare_lexicographically() {
        assert_eq!(
            Value::from("abc").compare(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("a").compare(&Value::Int(1)), None);
    }
}
