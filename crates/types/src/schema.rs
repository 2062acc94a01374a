//! Table schemas: ordered lists of named, typed fields.

use crate::error::{EonError, Result};
use crate::value::DataType;

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// An ordered collection of fields. Column references throughout the
/// engine are by *index* into the schema; name lookup happens once at
/// plan-build time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| EonError::UnknownColumn(name.to_owned()))
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Build a schema by projecting a subset of this schema's columns.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }
}

/// Ergonomic schema construction: `schema![("a", Int), ("b", Str)]`.
#[macro_export]
macro_rules! schema {
    ($(($name:expr, $dt:ident)),* $(,)?) => {
        $crate::schema::Schema::new(vec![
            $($crate::schema::Field::new($name, $crate::value::DataType::$dt)),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        schema![("id", Int), ("name", Str), ("price", Float)]
    }

    #[test]
    fn index_lookup() {
        assert_eq!(s().index_of("name").unwrap(), 1);
        assert!(s().index_of("missing").is_err());
    }

    #[test]
    fn project_subset() {
        let p = s().project(&[2, 0]);
        assert_eq!(p.fields[0].name, "price");
        assert_eq!(p.fields[1].name, "id");
    }
}
