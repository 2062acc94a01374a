//! Cross-architecture validation: every TPC-H query must produce the
//! same answer on Eon mode (shared storage, distributed local phases +
//! coordinator merge) and on the Enterprise baseline (shared nothing,
//! buddy projections). The two paths share the executor but nothing
//! about storage, pruning, caching, sharding, or distribution — so
//! agreement is strong evidence both are right.

use std::sync::Arc;

use eon_core::{EonConfig, EonDb};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_storage::MemFs;
use eon_workload::tpch::{load_tpch_enterprise, load_tpch_eon, TpchData};
use eon_workload::{tpch_query, TPCH_QUERY_COUNT};

/// Float aggregates are sensitive to summation order, which differs
/// across architectures and after mergeout re-sorts containers; compare
/// with a relative tolerance instead of bitwise.
fn rows_approx_eq(a: &[Vec<eon_types::Value>], b: &[Vec<eon_types::Value>]) -> bool {
    use eon_types::Value;
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() / scale < 1e-9
                }
                _ => va == vb,
            })
    })
}

fn setup() -> (Arc<EonDb>, Arc<EnterpriseDb>) {
    let data = TpchData::generate(0.002, 0xeee);
    let eon = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(4, 3)).unwrap();
    load_tpch_eon(&eon, &data).unwrap();
    let ent = EnterpriseDb::create(EnterpriseConfig {
        num_nodes: 4,
        exec_slots: 4,
        wos_threshold: 1_000_000, // force everything through the WOS path too
    });
    load_tpch_enterprise(&ent, &data).unwrap();
    (eon, ent)
}

#[test]
fn all_twenty_queries_agree_across_architectures() {
    let (eon, ent) = setup();
    let mut nonempty = 0;
    for q in 1..=TPCH_QUERY_COUNT {
        let plan = tpch_query(q);
        let a = eon.query(&plan).unwrap_or_else(|e| panic!("Q{q} failed on Eon: {e}"));
        let b = ent
            .query(&plan)
            .unwrap_or_else(|e| panic!("Q{q} failed on Enterprise: {e}"));
        assert!(
            rows_approx_eq(&a, &b),
            "Q{q}: Eon and Enterprise disagree\n eon: {a:?}\n ent: {b:?}"
        );
        if !a.is_empty() {
            nonempty += 1;
        }
    }
    // The tiny scale factor can legitimately leave a few highly
    // selective queries empty, but most must return rows or the
    // workload itself is broken.
    assert!(nonempty >= 14, "only {nonempty}/20 queries returned rows");
}

#[test]
fn eon_answers_stable_under_node_failure() {
    let (eon, _) = setup();
    let baseline: Vec<_> = (1..=6).map(|q| eon.query(&tpch_query(q)).unwrap()).collect();
    eon.kill_node(eon_types::NodeId(2)).unwrap();
    for (i, q) in (1..=6).enumerate() {
        assert!(
            rows_approx_eq(&eon.query(&tpch_query(q)).unwrap(), &baseline[i]),
            "Q{q} changed after node failure"
        );
    }
}

#[test]
fn eon_answers_stable_after_mergeout() {
    let (eon, _) = setup();
    let baseline: Vec<_> = (1..=6).map(|q| eon.query(&tpch_query(q)).unwrap()).collect();
    eon.run_mergeout().unwrap();
    for (i, q) in (1..=6).enumerate() {
        assert!(
            rows_approx_eq(&eon.query(&tpch_query(q)).unwrap(), &baseline[i]),
            "Q{q} changed after mergeout"
        );
    }
}
