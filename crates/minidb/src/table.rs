//! Columnar in-memory tables with optional hash indexes.

use crate::value::{Cell, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Typed column storage.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers with a null mask (None = NULL).
    Int(Vec<Option<i64>>),
    /// Floats with a null mask.
    Float(Vec<Option<f64>>),
    /// Strings with a null mask.
    Str(Vec<Option<String>>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at a row.
    pub fn get(&self, row: usize) -> Value {
        self.cell(row).into_value()
    }

    /// Value at a row, its text borrowed in place.
    pub(crate) fn cell(&self, row: usize) -> Cell<'_> {
        match self {
            ColumnData::Int(v) => v[row].map_or(Cell::Null, Cell::Int),
            ColumnData::Float(v) => v[row].map_or(Cell::Null, Cell::Float),
            ColumnData::Str(v) => v[row]
                .as_deref()
                .map_or(Cell::Null, |s| Cell::Str(Cow::Borrowed(s))),
        }
    }
}

/// A named column.
#[derive(Debug, Clone)]
pub struct Column {
    /// Lower-cased name.
    pub name: String,
    /// The data.
    pub data: ColumnData,
}

/// Key type for hash indexes: integers index directly, strings by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// Integer key.
    Int(i64),
    /// String key.
    Str(String),
}

impl IndexKey {
    /// Builds an index key from a value (floats and NULLs are not indexable).
    pub fn of_value(v: &Value) -> Option<IndexKey> {
        IndexKey::of_cell(&Cell::of(v))
    }

    pub(crate) fn of_cell(v: &Cell<'_>) -> Option<IndexKey> {
        match v {
            Cell::Int(i) => Some(IndexKey::Int(*i)),
            Cell::Str(s) => Some(IndexKey::Str(s.to_string())),
            _ => None,
        }
    }
}

/// The index on `column` in `indexes`, which are keyed by lower-cased
/// column name; lower-cases `column` only when it is not already.
pub(crate) fn index_on<'t, I>(indexes: &'t HashMap<String, I>, column: &str) -> Option<&'t I> {
    if column.bytes().any(|b| b.is_ascii_uppercase()) {
        indexes.get(&column.to_ascii_lowercase())
    } else {
        indexes.get(column)
    }
}

/// A table: columns plus optional per-column hash indexes.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Lower-cased table name.
    pub name: String,
    /// Columns.
    pub columns: Vec<Column>,
    /// Hash indexes: column name → key → row ids.
    pub indexes: HashMap<String, HashMap<IndexKey, Vec<u32>>>,
    /// Ordered (range) indexes over integer columns: column → value → rows.
    pub range_indexes: HashMap<String, BTreeMap<i64, Vec<u32>>>,
    /// Primary-key column, if declared (lower-cased). A primary key always
    /// has a hash index; the planner plans equality probes on it as
    /// `PkSeek` (≤ 1 row per key) rather than a generic `IndexSeek`.
    pub primary_key: Option<String>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            columns: Vec::new(),
            indexes: HashMap::new(),
            range_indexes: HashMap::new(),
            primary_key: None,
        }
    }

    /// Adds a column (all columns must have equal length).
    pub fn add_column(&mut self, name: impl Into<String>, data: ColumnData) {
        let name = name.into().to_ascii_lowercase();
        debug_assert!(
            self.columns.is_empty() || self.columns[0].data.len() == data.len(),
            "column length mismatch"
        );
        self.columns.push(Column { name, data });
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.data.len())
    }

    /// Finds a column by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Builds a hash index over a column.
    pub fn build_index(&mut self, column: &str) {
        let Some(col) = self.column(column) else {
            return;
        };
        let mut index: HashMap<IndexKey, Vec<u32>> = HashMap::new();
        for row in 0..col.data.len() {
            if let Some(key) = IndexKey::of_cell(&col.data.cell(row)) {
                index.entry(key).or_default().push(row as u32);
            }
        }
        self.indexes.insert(column.to_ascii_lowercase(), index);
    }

    /// Declares `column` the primary key and builds its hash index.
    pub fn build_pk(&mut self, column: &str) {
        self.build_index(column);
        if self.indexes.contains_key(&column.to_ascii_lowercase()) {
            self.primary_key = Some(column.to_ascii_lowercase());
        }
    }

    /// Builds an ordered index over an integer column, enabling range scans.
    pub fn build_range_index(&mut self, column: &str) {
        let Some(col) = self.column(column) else {
            return;
        };
        let ColumnData::Int(values) = &col.data else {
            return; // range indexes cover integer columns only
        };
        let mut index: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (row, v) in values.iter().enumerate() {
            if let Some(v) = v {
                index.entry(*v).or_default().push(row as u32);
            }
        }
        self.range_indexes
            .insert(column.to_ascii_lowercase(), index);
    }

    /// Rows whose indexed integer value lies in `[lo, hi]` (either bound
    /// optional), if a range index exists on the column.
    pub fn range_lookup(&self, column: &str, lo: Option<i64>, hi: Option<i64>) -> Option<Vec<u32>> {
        let index = index_on(&self.range_indexes, column)?;
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                // Contradictory bounds (`h >= 40 AND h < 12`): no row.
                return Some(Vec::new());
            }
        }
        use std::ops::Bound;
        let lower = lo.map_or(Bound::Unbounded, Bound::Included);
        let upper = hi.map_or(Bound::Unbounded, Bound::Included);
        let mut rows: Vec<u32> = index
            .range((lower, upper))
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        rows.sort_unstable();
        Some(rows)
    }

    /// The rows an equality probe for `value` must examine through the
    /// hash index on `column` (none without one). Equality is
    /// [`Cell::compare`]'s, so an integral float probes as its integer.
    pub(crate) fn index_probe(&self, column: &str, value: &Value) -> Probe<'_> {
        /// 2^53: below it, an integral float equals one integer only.
        const EXACT: f64 = 9_007_199_254_740_992.0;
        let key = match value {
            Value::Float(f) if f.abs() < EXACT && f.fract() == 0.0 => {
                Some(IndexKey::Int(*f as i64))
            }
            Value::Float(f) if f.abs() >= EXACT => return Probe::All,
            v => IndexKey::of_value(v),
        };
        Probe::Rows(match (index_on(&self.indexes, column), key) {
            (Some(index), Some(key)) => index.get(&key).map_or(&[], Vec::as_slice),
            _ => &[],
        })
    }
}

/// What an equality probe reads from a hash index.
#[derive(Debug, PartialEq)]
pub(crate) enum Probe<'a> {
    /// The rows under one key: none for a value no key can equal (NULL, a
    /// fractional float).
    Rows(&'a [u32]),
    /// Every row: a float of magnitude 2^53 or more equals several
    /// integers, so the filter decides.
    All,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("T");
        t.add_column("id", ColumnData::Int(vec![Some(1), Some(2), Some(2), None]));
        t.add_column(
            "name",
            ColumnData::Str(vec![
                Some("a".into()),
                Some("b".into()),
                Some("c".into()),
                None,
            ]),
        );
        t
    }

    #[test]
    fn rows_and_lookup() {
        let t = table();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.column("ID").unwrap().data.get(1), Value::Int(2));
        assert_eq!(t.column("name").unwrap().data.get(3), Value::Null);
    }

    #[test]
    fn index_lookup_finds_all_matches() {
        let mut t = table();
        t.build_index("id");
        assert_eq!(t.index_probe("id", &Value::Int(2)), Probe::Rows(&[1, 2]));
        assert_eq!(t.index_probe("id", &Value::Int(99)), Probe::Rows(&[]));
        // NULLs are not indexed, and equal nothing.
        assert_eq!(t.index_probe("id", &Value::Null), Probe::Rows(&[]));
        // No index on name.
        assert_eq!(t.index_probe("name", &Value::from("a")), Probe::Rows(&[]));
        // A float key equal to an integer finds that integer's rows; one
        // from 2^53 on equals several integers.
        assert_eq!(
            t.index_probe("id", &Value::Float(2.0)),
            Probe::Rows(&[1, 2])
        );
        assert_eq!(t.index_probe("id", &Value::Float(2.5)), Probe::Rows(&[]));
        assert_eq!(t.index_probe("id", &Value::Float(-1e300)), Probe::All);
    }

    #[test]
    fn range_index_lookup() {
        let mut t = table();
        t.build_range_index("id");
        assert_eq!(t.range_lookup("id", Some(2), Some(9)).unwrap(), vec![1, 2]);
        assert_eq!(t.range_lookup("id", None, Some(1)).unwrap(), vec![0]);
        assert_eq!(
            t.range_lookup("id", Some(3), None).unwrap(),
            Vec::<u32>::new()
        );
        assert_eq!(
            t.range_lookup("id", Some(3), Some(2)).unwrap(),
            Vec::<u32>::new()
        );
        // No range index on strings.
        t.build_range_index("name");
        assert!(t.range_lookup("name", Some(0), None).is_none());
    }

    #[test]
    fn string_index() {
        let mut t = table();
        t.build_index("name");
        assert_eq!(t.index_probe("name", &Value::from("b")), Probe::Rows(&[1]));
    }
}
