//! Row representation used at the engine boundaries (load input, query
//! output). Internally the engine is columnar; rows only materialize at
//! the edges, matching how Vertica reconstructs complete tuples from
//! per-column files (§2.3).

use crate::value::Value;

/// A single tuple. Thin wrapper over `Vec<Value>` so it can grow methods
/// without committing to a representation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn into_values(self) -> Vec<Value> {
        self.0
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// Build a row from heterogeneous literals: `row![1i64, "x", 2.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_macro_and_index() {
        let r = row![1i64, "x", 2.5, true];
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], Value::Int(1));
        assert_eq!(r[1], Value::Str("x".into()));
        assert_eq!(r[3], Value::Bool(true));
    }
}
