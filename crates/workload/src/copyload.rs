//! The many-small-COPY workload of Fig 11b: "each bulk load or COPY
//! statement loads 50MB of input data. Many tables being loaded
//! concurrently with a small batch size produces this type of load; the
//! scenario is typical of an internet of things workload."
//!
//! We generate fixed-size batches of telemetry-shaped rows; the bench
//! harness scales the batch row count so a batch plays the role of the
//! paper's 50MB file at laptop scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eon_columnar::Projection;
use eon_types::{schema, Schema, Value};

pub fn telemetry_schema() -> Schema {
    schema![
        ("device_id", Int),
        ("ts", Int),
        ("metric", Str),
        ("value", Float),
    ]
}

/// Create the telemetry table on an Eon database.
pub fn create_telemetry_table(db: &eon_core::EonDb) -> eon_types::Result<()> {
    let s = telemetry_schema();
    db.create_table(
        "telemetry",
        s.clone(),
        vec![Projection::super_projection("telemetry_super", &s, &[1], &[0])],
    )
    .map(|_| ())
}

const METRICS: [&str; 4] = ["temp", "rpm", "volt", "amps"];

/// One COPY batch: `rows` telemetry rows, deterministic per
/// (seed, batch_index).
pub fn batch(rows: usize, seed: u64, batch_index: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed ^ batch_index.wrapping_mul(0x9e37));
    (0..rows)
        .map(|i| {
            vec![
                Value::Int(rng.gen_range(0..10_000)),
                Value::Int((batch_index as i64) * rows as i64 + i as i64),
                Value::Str(METRICS[rng.gen_range(0..METRICS.len())].into()),
                Value::Float(rng.gen_range(-50.0..150.0)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_columnar::Batch;
    use eon_core::{EonConfig, EonDb};
    use std::sync::Arc;

    #[test]
    fn batches_are_deterministic_and_distinct() {
        let a = batch(100, 1, 0);
        let b = batch(100, 1, 0);
        let c = batch(100, 1, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let schema = telemetry_schema();
        Batch::from_rows_checked(&a, schema.len()).unwrap().check_schema(&schema).unwrap();
    }

    #[test]
    fn concurrent_small_copies_load_cleanly() {
        let db = EonDb::create(
            Arc::new(eon_storage::MemFs::new()),
            EonConfig::new(3, 3),
        )
        .unwrap();
        create_telemetry_table(&db).unwrap();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let db = &db;
                handles.push(scope.spawn(move || {
                    db.copy_into("telemetry", batch(200, 42, t)).unwrap()
                }));
            }
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, 1600);
        });
        use eon_exec::{AggSpec, Plan, ScanSpec};
        let plan = Plan::scan(ScanSpec::new("telemetry"))
            .aggregate(vec![], vec![AggSpec::count_star()]);
        assert_eq!(db.query(&plan).unwrap()[0][0], Value::Int(1600));
    }
}
