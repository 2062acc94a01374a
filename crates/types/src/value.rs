//! The scalar value model.
//!
//! Vertica is a SQL engine; we reproduce the handful of types the TPC-H
//! schema and the paper's workloads need: 64-bit integers, doubles,
//! strings, booleans, and dates (days since the Unix epoch, matching how
//! a columnar store would encode them). `Value::Null` is a first-class
//! member so that delete vectors, outer joins, and ADD COLUMN defaults
//! (§6.3) behave like SQL.

use std::cmp::Ordering;
use std::fmt;

/// The SQL data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Bool,
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Bool => "BOOLEAN",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A single scalar value.
///
/// Comparison follows SQL sort semantics with one deviation that
/// simplifies a sorted column store: `Null` sorts *before* every other
/// value and compares equal to itself, giving `Value` a total order that
/// `sort_unstable` and min/max block metadata (§2.3) can rely on. Floats
/// use IEEE total ordering for NaN so the order really is total.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// The data type of this value, or `None` for `Null` (which is
    /// compatible with every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view used by arithmetic and date pruning; `Int` and
    /// `Date` both qualify.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The borrowed view of this value.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        self.into()
    }
}

/// One cell, borrowed: what a typed column hands out without
/// allocating (a `Str` points into the column's string arena). It
/// shares `Value`'s order, equality and hash (`value_semantics!`), so a
/// key hashed or compared cell by cell groups exactly as owned `Value`s
/// would.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
    Date(i32),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(x) => ValueRef::Int(*x),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }
}

impl ValueRef<'_> {
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(x) => Value::Int(x),
            ValueRef::Float(x) => Value::Float(x),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Date(d) => Value::Date(d),
        }
    }

    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Numeric view, as [`Value::as_float`].
    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Float(v) => Some(v),
            ValueRef::Int(v) => Some(v as f64),
            ValueRef::Date(v) => Some(v as f64),
            _ => None,
        }
    }

    /// Structural identity: same variant, floats by bits. Stricter than
    /// `==`, which deems `Int(1) == Float(1.0)`; run detection and the
    /// encoders must never let one representation stand in for another.
    #[inline]
    pub fn same_repr(self, other: ValueRef<'_>) -> bool {
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Int(x), ValueRef::Int(y)) => x == y,
            (ValueRef::Float(x), ValueRef::Float(y)) => x.to_bits() == y.to_bits(),
            (ValueRef::Str(x), ValueRef::Str(y)) => x == y,
            (ValueRef::Bool(x), ValueRef::Bool(y)) => x == y,
            (ValueRef::Date(x), ValueRef::Date(y)) => x == y,
            _ => false,
        }
    }
}

/// `Value`'s order, equality and hash, written once and instantiated
/// for the owned and the borrowed cell, so the two cannot drift apart
/// and neither pays a conversion to compare.
macro_rules! value_semantics {
    ($ty:ty, $v:ident) => {
        impl $ty {
            /// A rank used to order values of *different* types, so the
            /// total order covers heterogeneous columns (which only
            /// arise transiently, e.g. before type checking rejects a
            /// plan).
            fn type_rank(&self) -> u8 {
                match self {
                    $v::Null => 0,
                    $v::Bool(_) => 1,
                    $v::Int(_) => 2,
                    $v::Float(_) => 2, // ints and floats compare numerically
                    $v::Date(_) => 3,
                    $v::Str(_) => 4,
                }
            }
        }

        impl PartialEq for $ty {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }

        impl Eq for $ty {}

        impl PartialOrd for $ty {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $ty {
            fn cmp(&self, other: &Self) -> Ordering {
                match (self, other) {
                    ($v::Null, $v::Null) => Ordering::Equal,
                    ($v::Null, _) => Ordering::Less,
                    (_, $v::Null) => Ordering::Greater,
                    ($v::Int(a), $v::Int(b)) => a.cmp(b),
                    ($v::Float(a), $v::Float(b)) => a.total_cmp(b),
                    ($v::Int(a), $v::Float(b)) => (*a as f64).total_cmp(b),
                    ($v::Float(a), $v::Int(b)) => a.total_cmp(&(*b as f64)),
                    ($v::Str(a), $v::Str(b)) => a.cmp(b),
                    ($v::Bool(a), $v::Bool(b)) => a.cmp(b),
                    ($v::Date(a), $v::Date(b)) => a.cmp(b),
                    (a, b) => a.type_rank().cmp(&b.type_rank()),
                }
            }
        }

        impl std::hash::Hash for $ty {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                match self {
                    $v::Null => 0u8.hash(state),
                    $v::Bool(b) => {
                        1u8.hash(state);
                        b.hash(state)
                    }
                    // Int and Float that compare equal must hash equal.
                    $v::Int(v) => {
                        2u8.hash(state);
                        (*v as f64).to_bits().hash(state)
                    }
                    $v::Float(v) => {
                        2u8.hash(state);
                        v.to_bits().hash(state)
                    }
                    $v::Date(v) => {
                        3u8.hash(state);
                        v.hash(state)
                    }
                    $v::Str(s) => {
                        4u8.hash(state);
                        s.hash(state)
                    }
                }
            }
        }
    };
}

value_semantics!(Value, Value);
value_semantics!(ValueRef<'_>, ValueRef);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => {
                let (y, m, day) = days_to_ymd(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Convert a `(year, month, day)` triple to days since the Unix epoch.
/// Valid for the Gregorian calendar; used by the TPC-H generator and by
/// date literals in queries.
pub fn ymd_to_days(year: i32, month: u32, day: u32) -> i32 {
    // Algorithm from Howard Hinnant's `days_from_civil`.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((month + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`ymd_to_days`].
pub fn days_to_ymd(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

/// Convenience constructor for date values.
pub fn date(year: i32, month: u32, day: u32) -> Value {
    Value::Date(ymd_to_days(year, month, day))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(3), Value::Null, Value::Int(-1)];
        v.sort();
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Int(-1));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(h(&Value::Str("x".into())), h(&Value::Str("x".into())));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1992, 2, 29), (1998, 12, 1), (2026, 7, 5)] {
            let days = ymd_to_days(y, m, d);
            assert_eq!(days_to_ymd(days), (y, m, d));
        }
        assert_eq!(ymd_to_days(1970, 1, 1), 0);
        assert_eq!(ymd_to_days(1970, 1, 2), 1);
    }

    #[test]
    fn date_display() {
        assert_eq!(date(1995, 3, 15).to_string(), "1995-03-15");
    }

    #[test]
    fn total_order_on_nan() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(1.0);
        // NaN has a defined place in the total order (after all numbers).
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Date(10).as_int(), Some(10));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
    }
}
