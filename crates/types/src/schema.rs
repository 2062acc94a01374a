//! Table schemas: ordered lists of named, typed fields.

use crate::error::{EonError, Result};
use crate::value::{DataType, Value};

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

    /// Validate that `row` conforms to this schema (arity, types,
    /// nullability). Used by the load path before segmentation.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.fields.len() {
            return Err(EonError::SchemaMismatch(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                self.fields.len()
            )));
        }
        for (v, f) in row.iter().zip(&self.fields) {
            match v.data_type() {
                None
                    if !f.nullable => {
                        return Err(EonError::SchemaMismatch(format!(
                            "NULL in non-nullable column {}",
                            f.name
                        )));
                    }
                Some(dt) if dt != f.dtype => {
                    return Err(EonError::SchemaMismatch(format!(
                        "column {} expects {}, got {}",
                        f.name, f.dtype, dt
                    )));
                }
                _ => {}
            }
        }
        Ok(())
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
    fn row_check_accepts_valid() {
        let row = vec![Value::Int(1), Value::Str("a".into()), Value::Float(2.0)];
        assert!(s().check_row(&row).is_ok());
    }

    #[test]
    fn row_check_rejects_arity() {
        assert!(s().check_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn row_check_rejects_type() {
        let row = vec![Value::Str("x".into()), Value::Str("a".into()), Value::Float(2.0)];
        assert!(s().check_row(&row).is_err());
    }

    #[test]
    fn row_check_nullability() {
        let sch = Schema::new(vec![Field::new("id", DataType::Int).not_null()]);
        assert!(sch.check_row(&[Value::Null]).is_err());
        assert!(sch.check_row(&[Value::Int(1)]).is_ok());
        // nullable column accepts NULL
        assert!(s().check_row(&[Value::Null, Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn project_subset() {
        let p = s().project(&[2, 0]);
        assert_eq!(p.fields[0].name, "price");
        assert_eq!(p.fields[1].name, "id");
    }
}
