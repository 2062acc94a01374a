//! The bytes a load writes, pinned: TPC-H SF 0.002 at a fixed seed,
//! loaded into Eon (3 nodes, 3 shards) and into Enterprise (every
//! bucket written to ROS directly, and every bucket buffered in the WOS
//! then moved out) on `MemFs`, every container's bytes digested in
//! catalog order. The generator, the shard split, the sort and the
//! encoder all feed these bytes, so a change to any of them that moves
//! a byte — a dictionary numbered in another order, ties sorted
//! unstably, a cell generated differently — fails here, however the
//! load path is built. The 20 TPC-H answers on one node and one shard
//! are pinned the same way, bit for bit.

use std::sync::Arc;

use eon_core::{EonConfig, EonDb};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_storage::{FileSystem, MemFs};
use eon_types::Value;
use eon_workload::tpch::{load_tpch_enterprise, load_tpch_eon, tpch_tables, TpchData};
use eon_workload::{tpch_query, TPCH_QUERY_COUNT};

/// FNV-1a, 64 bits.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn put_u64(&mut self, x: u64) {
        self.put(&x.to_le_bytes());
    }
}

fn data() -> TpchData {
    TpchData::generate(0.002, 0xb17e)
}

/// Every Eon container in catalog (OID) order: its shard, row count
/// and bytes.
fn eon_digest(data: &TpchData) -> (usize, u64) {
    let store = Arc::new(MemFs::new());
    let db = EonDb::create(store.clone(), EonConfig::new(3, 3)).unwrap();
    load_tpch_eon(&db, data).unwrap();
    let snapshot = db.snapshot().unwrap();
    let mut d = Digest::new();
    for c in snapshot.containers.values() {
        d.put_u64(c.shard.0);
        d.put_u64(c.rows);
        d.put(&store.read(&c.key).unwrap());
    }
    (snapshot.containers.len(), d.0)
}

/// Every Enterprise ROS container, node by node in write order: its
/// segment, row count and bytes.
fn enterprise_digest(db: &EnterpriseDb) -> (usize, u64) {
    let (mut n, mut d) = (0, Digest::new());
    for node in db.nodes() {
        for c in node.containers.read().iter() {
            d.put_u64(c.segment as u64);
            d.put_u64(c.rows);
            d.put(&node.disk.read(&c.key).unwrap());
            n += 1;
        }
    }
    (n, d.0)
}

fn enterprise(wos_threshold: usize) -> Arc<EnterpriseDb> {
    EnterpriseDb::create(EnterpriseConfig { num_nodes: 3, exec_slots: 4, wos_threshold })
}

#[test]
fn a_tpch_load_writes_the_pinned_bytes() {
    let data = data();
    assert_eq!(eon_digest(&data), (20, 0x20f6_85ce_9a34_9f0a), "Eon");

    let direct = enterprise(1);
    load_tpch_enterprise(&direct, &data).unwrap();
    assert_eq!(enterprise_digest(&direct), (46, 0x5b01_e81a_a35b_c1a3), "Enterprise, direct to ROS");

    // Everything buffered, then each segment's buffer on owner and buddy
    // moved out: one sort and encode over all of a buffer's rows.
    let buffered = enterprise(usize::MAX);
    load_tpch_enterprise(&buffered, &data).unwrap();
    assert_eq!(enterprise_digest(&buffered), (0, Digest::new().0));
    for (name, ..) in tpch_tables() {
        let t = buffered.table(name).unwrap();
        for seg in 0..3 {
            buffered.moveout(seg, &t, seg).unwrap();
            buffered.moveout(buffered.buddy_of(seg), &t, seg).unwrap();
        }
    }
    assert_eq!(enterprise_digest(&buffered), enterprise_digest(&direct), "moved out");
}

/// The 20 answers on one node and one shard — one participant, one
/// container order — digested by each cell's tag and bits.
#[test]
fn the_twenty_answers_are_pinned_bit_for_bit() {
    let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(1, 1)).unwrap();
    load_tpch_eon(&db, &data()).unwrap();
    let mut d = Digest::new();
    for q in 1..=TPCH_QUERY_COUNT {
        for row in db.query(&tpch_query(q)).unwrap() {
            for cell in row {
                match cell {
                    Value::Null => d.put(&[0]),
                    Value::Int(x) => d.put(&[&[1], &x.to_le_bytes()[..]].concat()),
                    Value::Float(x) => d.put(&[&[2], &x.to_bits().to_le_bytes()[..]].concat()),
                    Value::Str(s) => d.put(&[&[3], s.as_bytes(), &[0xff]].concat()),
                    Value::Bool(b) => d.put(&[4, u8::from(b)]),
                    Value::Date(x) => d.put(&[&[5], &x.to_le_bytes()[..]].concat()),
                }
            }
        }
        d.put(&[0xfe]);
    }
    assert_eq!(d.0, 0x63bf_4658_e636_5bc7);
}
