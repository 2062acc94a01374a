//! Projections (paper §2.1–§2.2, Fig 2): sorted, segmented subsets of a
//! table's columns — the *only* physical data structure in Vertica.
//!
//! A projection definition names which table columns it carries, their
//! total sort order, and how tuples distribute: `SEGMENTED BY
//! HASH(cols)` or replicated to every subscriber. The definition is a
//! global catalog object; the containers realizing it are shard-scoped.

use serde::{Deserialize, Serialize};

use eon_types::{DataType, Result, Schema, Value};

/// Distribution of a projection's tuples across the hash space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segmentation {
    /// `SEGMENTED BY HASH(<cols>)`; indices are positions *within the
    /// projection's own column list*.
    Segmented { cols: Vec<usize> },
    /// Every subscriber stores every tuple (dimension tables).
    Replicated,
}

/// The projection sort order: projection-local column indices, major
/// first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SortOrder(pub Vec<usize>);

/// Aggregate functions a Live Aggregate Projection can maintain (§2.1).
/// Only functions whose partials merge by re-applying the same function
/// (plus COUNT, which merges by summation) — AVG and DISTINCT need
/// richer state and are answered from base projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LapFunc {
    Sum,
    Min,
    Max,
    /// COUNT(*) per group.
    CountStar,
}

/// A Live Aggregate Projection definition (§2.1): the projection's rows
/// are *pre-computed partial aggregates* of the base table, grouped by
/// `group_by`. Loads fold their batch into partial rows before writing;
/// queries whose aggregation matches read dramatically fewer rows. The
/// trade-off is a restriction on base-table updates: DELETE/UPDATE are
/// rejected while a LAP exists (tombstones cannot be applied to
/// pre-aggregated rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveAggregate {
    /// Grouping columns, as base-table indices.
    pub group_by: Vec<usize>,
    /// Aggregates: function + base-table source column (ignored for
    /// CountStar).
    pub aggs: Vec<(LapFunc, usize)>,
}

/// A projection definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Projection {
    pub name: String,
    /// Indices into the base table schema, in projection column order.
    /// For a Live Aggregate Projection: the group-by columns followed
    /// by the aggregates' source columns (whose *stored* values are the
    /// aggregated results).
    pub columns: Vec<usize>,
    pub sort: SortOrder,
    pub segmentation: Segmentation,
    /// Present iff this is a Live Aggregate Projection (§2.1).
    #[serde(default)]
    pub live_aggregate: Option<LiveAggregate>,
}

impl Projection {
    /// A "superprojection": all table columns, sorted and segmented by
    /// the given table-schema column indices. What the Database
    /// Designer emits when nothing fancier is requested.
    pub fn super_projection(
        name: impl Into<String>,
        schema: &Schema,
        sort_cols: &[usize],
        seg_cols: &[usize],
    ) -> Self {
        Projection {
            name: name.into(),
            columns: (0..schema.len()).collect(),
            sort: SortOrder(sort_cols.to_vec()),
            segmentation: Segmentation::Segmented {
                cols: seg_cols.to_vec(),
            },
            live_aggregate: None,
        }
    }

    /// A replicated all-columns projection (for dimension tables).
    pub fn replicated(name: impl Into<String>, schema: &Schema, sort_cols: &[usize]) -> Self {
        Projection {
            name: name.into(),
            columns: (0..schema.len()).collect(),
            sort: SortOrder(sort_cols.to_vec()),
            segmentation: Segmentation::Replicated,
            live_aggregate: None,
        }
    }

    /// A Live Aggregate Projection over `group_by` (base-table column
    /// indices) maintaining `aggs`. Sorted and segmented by the group
    /// columns, so equal groups land in one shard — grouped reads are
    /// local (§4) and the pre-aggregation is maximally effective.
    pub fn live_aggregate(
        name: impl Into<String>,
        group_by: &[usize],
        aggs: Vec<(LapFunc, usize)>,
    ) -> Self {
        let mut columns: Vec<usize> = group_by.to_vec();
        columns.extend(aggs.iter().map(|(_, c)| *c));
        let local: Vec<usize> = (0..group_by.len()).collect();
        Projection {
            name: name.into(),
            columns,
            sort: SortOrder(local.clone()),
            segmentation: Segmentation::Segmented { cols: local },
            live_aggregate: Some(LiveAggregate {
                group_by: group_by.to_vec(),
                aggs,
            }),
        }
    }

    pub fn is_live_aggregate(&self) -> bool {
        self.live_aggregate.is_some()
    }

    pub fn is_replicated(&self) -> bool {
        matches!(self.segmentation, Segmentation::Replicated)
    }

    /// Segmentation columns (projection-local indices), empty when
    /// replicated.
    pub fn seg_cols(&self) -> &[usize] {
        match &self.segmentation {
            Segmentation::Segmented { cols } => cols,
            Segmentation::Replicated => &[],
        }
    }

    /// The schema of this projection derived from the table schema.
    pub fn schema(&self, table_schema: &Schema) -> Schema {
        table_schema.project(&self.columns)
    }

    /// Map a full table row to this projection's column subset.
    pub fn project_row(&self, table_row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&i| table_row[i].clone()).collect()
    }

    /// Sort projection rows by the projection sort order. Stable so
    /// ties keep load order, which keeps mergeout deterministic.
    pub fn sort_rows(&self, rows: &mut [Vec<Value>]) {
        let keys = &self.sort.0;
        rows.sort_by(|a, b| {
            for &k in keys {
                match a[k].cmp(&b[k]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    /// Check that all referenced indices are in range for the table
    /// schema and that a LAP sums only `Int` / `Float` columns (run at
    /// CREATE PROJECTION time).
    pub fn validate(&self, table_schema: &Schema) -> Result<()> {
        for &c in &self.columns {
            if c >= table_schema.len() {
                return Err(eon_types::EonError::Catalog(format!(
                    "projection {}: column index {c} out of range",
                    self.name
                )));
            }
        }
        for &s in &self.sort.0 {
            if s >= self.columns.len() {
                return Err(eon_types::EonError::Catalog(format!(
                    "projection {}: sort index {s} out of range",
                    self.name
                )));
            }
        }
        for &s in self.seg_cols() {
            if s >= self.columns.len() {
                return Err(eon_types::EonError::Catalog(format!(
                    "projection {}: segmentation index {s} out of range",
                    self.name
                )));
            }
        }
        if let Some(lap) = &self.live_aggregate {
            if lap.group_by.is_empty() {
                return Err(eon_types::EonError::Catalog(format!(
                    "live aggregate projection {} needs group columns",
                    self.name
                )));
            }
            for &c in lap.group_by.iter().chain(lap.aggs.iter().map(|(_, c)| c)) {
                if c >= table_schema.len() {
                    return Err(eon_types::EonError::Catalog(format!(
                        "live aggregate projection {}: column {c} out of range",
                        self.name
                    )));
                }
            }
            for &(_, c) in lap.aggs.iter().filter(|(f, _)| *f == LapFunc::Sum) {
                let field = table_schema.field(c);
                if !matches!(field.dtype, DataType::Int | DataType::Float) {
                    return Err(eon_types::EonError::Catalog(format!(
                        "live aggregate projection {}: SUM over {} column {}",
                        self.name, field.dtype, field.name
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::schema;

    fn sales_schema() -> Schema {
        schema![("sale_id", Int), ("customer", Str), ("date", Date), ("price", Int)]
    }

    #[test]
    fn super_projection_covers_all_columns() {
        let s = sales_schema();
        let p = Projection::super_projection("p1", &s, &[2], &[0]);
        assert_eq!(p.columns, vec![0, 1, 2, 3]);
        assert!(p.validate(&s).is_ok());
        assert_eq!(p.schema(&s), s);
    }

    #[test]
    fn narrow_projection_like_fig2() {
        // Fig 2's projection 2: (customer, price) sorted by customer,
        // segmented by HASH(customer).
        let s = sales_schema();
        let p = Projection {
            name: "p2".into(),
            columns: vec![1, 3],
            sort: SortOrder(vec![0]),
            segmentation: Segmentation::Segmented { cols: vec![0] },
            live_aggregate: None,
        };
        assert!(p.validate(&s).is_ok());
        let row = vec![
            Value::Int(1),
            Value::Str("Grace".into()),
            Value::Date(17500),
            Value::Int(50),
        ];
        assert_eq!(
            p.project_row(&row),
            vec![Value::Str("Grace".into()), Value::Int(50)]
        );
    }

    #[test]
    fn sort_rows_respects_order() {
        let s = sales_schema();
        let p = Projection::super_projection("p", &s, &[1, 3], &[0]);
        let mut rows = vec![
            vec![Value::Int(1), Value::Str("b".into()), Value::Date(0), Value::Int(9)],
            vec![Value::Int(2), Value::Str("a".into()), Value::Date(0), Value::Int(5)],
            vec![Value::Int(3), Value::Str("a".into()), Value::Date(0), Value::Int(1)],
        ];
        p.sort_rows(&mut rows);
        assert_eq!(rows[0][0], Value::Int(3)); // (a, 1)
        assert_eq!(rows[1][0], Value::Int(2)); // (a, 5)
        assert_eq!(rows[2][0], Value::Int(1)); // (b, 9)
    }

    #[test]
    fn validate_rejects_bad_indices() {
        let s = sales_schema();
        let mut p = Projection::super_projection("p", &s, &[0], &[0]);
        p.columns.push(99);
        assert!(p.validate(&s).is_err());

        let p2 = Projection {
            name: "p2".into(),
            columns: vec![0],
            sort: SortOrder(vec![5]),
            segmentation: Segmentation::Replicated,
            live_aggregate: None,
        };
        assert!(p2.validate(&s).is_err());
    }

    #[test]
    fn replicated_has_no_seg_cols() {
        let s = sales_schema();
        let p = Projection::replicated("rep", &s, &[0]);
        assert!(p.is_replicated());
        assert!(p.seg_cols().is_empty());
    }
}
