//! Properties of the catalog codec (`eon_catalog::codec`) over arbitrary
//! files of every kind: log files holding every `CatalogOp` variant,
//! checkpoints of non-empty states with LAP projections, and
//! `cluster_info`. Values include NaN, ±inf, -0.0, `i64::MIN` and
//! multi-byte strings. For every file:
//!
//! * decoding the encoding gives the same object, and re-encoding the
//!   decoded file gives the same bytes — compared as bytes, because
//!   `Value`'s `==` calls `Int(5)` and `Float(5.0)` equal;
//! * every proper prefix, and the file with a byte appended, is
//!   `Corrupt`;
//! * every single-bit flip is `Corrupt`: FNV-1a changes with any one
//!   byte of a frame of fixed length, and the header is checked field
//!   by field;
//! * decoding never panics — also when a payload byte changes and its
//!   checksum is recomputed, so the payload decoders see bad tags,
//!   counts and ranges.

use bytes::Bytes;
use eon_catalog::codec::{
    decode_checkpoint, decode_cluster_info, decode_log_file, encode_checkpoint,
    encode_cluster_info, encode_log_file,
};
use eon_catalog::{
    CatalogOp, CatalogState, Checkpoint, ClusterInfo, ContainerMeta, DeleteVectorMeta, ShardDef,
    ShardKind, SubState, Subscription, Table, TxnRecord,
};
use eon_columnar::format::{checksum, Reader};
use eon_columnar::{LapFunc, Projection};
use eon_types::{
    DataType, EonError, Field, HashRange, NodeId, Oid, Result, Schema, ShardId, TxnVersion, Value,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Arbitrary catalog objects from one seed.
struct Gen(StdRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }

    fn u64(&mut self) -> u64 {
        // Small, varint-boundary and full-width numbers alike.
        match self.below(4) {
            0 => self.below(200),
            1 => 1 << self.below(64),
            _ => self.0.gen(),
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 8] = ["a", "lineitem", "é", "日本", "🦀", "\"", "\0", " "];
        (0..self.below(5))
            .map(|_| PIECES[self.below(8) as usize])
            .collect()
    }

    fn float(&mut self) -> f64 {
        match self.below(7) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 5.0,
            _ => f64::from_bits(self.0.gen()),
        }
    }

    fn value(&mut self) -> Value {
        match self.below(7) {
            0 => Value::Null,
            1 => Value::Int([i64::MIN, i64::MAX, -1, 5][self.below(4) as usize]),
            2 => Value::Int(self.0.gen()),
            3 => Value::Float(self.float()),
            4 => Value::Str(self.string()),
            5 => Value::Bool(self.0.gen()),
            _ => Value::Date(self.0.gen::<u32>() as i32),
        }
    }

    fn oid(&mut self) -> Oid {
        Oid(self.u64())
    }

    fn shard(&mut self) -> ShardId {
        ShardId(self.below(8))
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.below(8))
    }

    fn indices(&mut self) -> Vec<usize> {
        (0..self.below(4)).map(|_| self.below(6) as usize).collect()
    }

    fn field(&mut self) -> Field {
        let dtype = [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
            DataType::Date,
        ][self.below(5) as usize];
        Field {
            name: self.string(),
            dtype,
            nullable: self.0.gen(),
        }
    }

    fn projection(&mut self) -> Projection {
        let schema = Schema::new((0..3).map(|_| self.field()).collect());
        let name = self.string();
        match self.below(3) {
            0 => Projection::super_projection(name, &schema, &self.indices(), &self.indices()),
            1 => Projection::replicated(name, &schema, &self.indices()),
            _ => {
                let funcs = [LapFunc::Sum, LapFunc::Min, LapFunc::Max, LapFunc::CountStar];
                let aggs = (0..self.below(4))
                    .map(|_| (funcs[self.below(4) as usize], self.below(6) as usize))
                    .collect();
                Projection::live_aggregate(name, &self.indices(), aggs)
            }
        }
    }

    fn table(&mut self) -> Table {
        let n = self.below(4);
        Table {
            oid: self.oid(),
            name: self.string(),
            schema: Schema::new((0..n).map(|_| self.field()).collect()),
            projections: (0..self.below(3))
                .map(|_| (self.oid(), self.projection()))
                .collect(),
            defaults: (0..n).map(|_| self.value()).collect(),
        }
    }

    fn container(&mut self) -> ContainerMeta {
        ContainerMeta {
            oid: self.oid(),
            key: self.string(),
            table: self.oid(),
            projection: self.oid(),
            shard: self.shard(),
            rows: self.u64(),
            size_bytes: self.u64(),
            col_minmax: (0..self.below(4))
                .map(|_| self.0.gen::<bool>().then(|| (self.value(), self.value())))
                .collect(),
        }
    }

    fn delete_vector(&mut self) -> DeleteVectorMeta {
        DeleteVectorMeta {
            oid: self.oid(),
            key: self.string(),
            container: self.oid(),
            shard: self.shard(),
            deleted_rows: self.u64(),
        }
    }

    fn subscription(&mut self) -> Subscription {
        let state = [
            SubState::Pending,
            SubState::Passive,
            SubState::Active,
            SubState::Removing,
        ][self.below(4) as usize];
        Subscription {
            node: self.node(),
            shard: self.shard(),
            state,
        }
    }

    fn shard_def(&mut self) -> ShardDef {
        let hi = self.below(1 << 33).min(1 << 32);
        ShardDef {
            id: self.shard(),
            kind: [ShardKind::Segment, ShardKind::Replica][self.below(2) as usize],
            range: HashRange::new(self.below(hi + 1), hi),
        }
    }

    /// Variant `i % 12` of `CatalogOp`: every variant, in turn.
    fn op(&mut self, i: u64) -> CatalogOp {
        match i % 12 {
            0 => CatalogOp::DefineShards((0..self.below(4)).map(|_| self.shard_def()).collect()),
            1 => CatalogOp::CreateTable(self.table()),
            2 => CatalogOp::DropTable(self.oid()),
            3 => CatalogOp::AddProjection {
                table: self.oid(),
                oid: self.oid(),
                projection: self.projection(),
            },
            4 => CatalogOp::AddColumn {
                table: self.oid(),
                field: self.field(),
                default: self.value(),
            },
            5 => CatalogOp::AddContainer(self.container()),
            6 => CatalogOp::DropContainer(self.oid()),
            7 => CatalogOp::AddDeleteVector(self.delete_vector()),
            8 => CatalogOp::DropDeleteVector(self.oid()),
            9 => CatalogOp::UpsertSubscription(self.subscription()),
            10 => CatalogOp::RemoveSubscription {
                node: self.node(),
                shard: self.shard(),
            },
            _ => CatalogOp::SetMergeoutCoordinator {
                shard: self.shard(),
                node: self.node(),
            },
        }
    }

    /// Consecutive records from an arbitrary first version; together
    /// they hold every op variant.
    fn records(&mut self) -> Vec<TxnRecord> {
        let first = self.u64().min(u64::MAX - 8);
        let n = 1 + self.below(4);
        let mut next_op = self.below(12);
        (first..first + n)
            .map(|v| TxnRecord {
                version: TxnVersion(v),
                ops: (0..12 / n + 1)
                    .map(|_| {
                        next_op += 1;
                        self.op(next_op)
                    })
                    .collect(),
            })
            .collect()
    }

    fn state(&mut self) -> CatalogState {
        let mut s = CatalogState {
            shards: (0..1 + self.below(3)).map(|_| self.shard_def()).collect(),
            ..Default::default()
        };
        for _ in 0..1 + self.below(2) {
            let t = self.table();
            s.tables.insert(t.oid, t);
        }
        for _ in 0..1 + self.below(3) {
            let c = self.container();
            s.containers.insert(c.oid, c);
            let d = self.delete_vector();
            s.delete_vectors.insert(d.oid, d);
            let sub = self.subscription();
            s.subscriptions.insert((sub.node, sub.shard), sub);
            s.mergeout_coord.insert(self.shard(), self.node());
            s.obj_versions.insert(self.oid(), TxnVersion(self.u64()));
        }
        s
    }

    fn checkpoint(&mut self) -> Checkpoint {
        Checkpoint {
            version: TxnVersion(self.u64()),
            state: self.state(),
        }
    }

    fn cluster_info(&mut self) -> ClusterInfo {
        ClusterInfo {
            truncation_version: TxnVersion(self.u64()),
            incarnation: self.string(),
            database: self.string(),
            timestamp_ms: self.u64(),
            lease_until_ms: self.u64(),
            nodes: (0..self.below(5)).map(|_| self.u64()).collect(),
        }
    }
}

fn is_corrupt<T>(r: Result<T>) -> bool {
    matches!(r, Err(EonError::Corrupt(_)))
}

/// Where each frame's payload sits in `bytes`: after the 22-byte header
/// (magic, format version, kind, lo, hi) and the record count, each
/// frame is `len varint | checksum u64 | payload`.
fn payload_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut r = Reader::new(bytes);
    r.take(22).unwrap();
    let n = r.get_varint().unwrap();
    (0..n)
        .map(|_| {
            let len = r.get_varint().unwrap() as usize;
            r.get_u64().unwrap();
            let start = bytes.len() - r.remaining();
            r.take(len).unwrap();
            (start, len)
        })
        .collect()
}

/// The four properties for one object `x`, its encoding and decoder.
fn check<T: std::fmt::Debug>(
    x: &T,
    encode: impl Fn(&T) -> Bytes,
    decode: impl Fn(&[u8]) -> Result<T>,
    rng: &mut Gen,
) {
    let bytes = encode(x);
    let back = decode(&bytes).expect("an encoded file decodes");
    assert_eq!(format!("{back:?}"), format!("{x:?}"));
    assert_eq!(encode(&back), bytes);

    for n in 0..bytes.len() {
        assert!(
            is_corrupt(decode(&bytes[..n])),
            "prefix of {n} bytes decoded"
        );
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(is_corrupt(decode(&longer)), "a trailing byte decoded");

    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(is_corrupt(decode(&flipped)), "flip of bit {bit} decoded");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }

    // A changed payload byte under a recomputed checksum: any result but
    // a panic.
    for (start, len) in payload_spans(&bytes) {
        for _ in 0..16.min(len) {
            let mut damaged = bytes.to_vec();
            damaged[start + rng.below(len as u64) as usize] ^= 1 + rng.below(255) as u8;
            let sum = checksum(&damaged[start..start + len]).to_le_bytes();
            damaged[start - 8..start].copy_from_slice(&sum);
            let _ = decode(&damaged);
        }
    }
}

proptest! {
    #[test]
    fn log_files_survive_only_intact(seed: u64) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let records = g.records();
        let range = (records[0].version, records[records.len() - 1].version);
        check(&records, |r| encode_log_file(r), |b| decode_log_file(b, range), &mut g);
    }

    #[test]
    fn checkpoints_survive_only_intact(seed: u64) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let ckpt = g.checkpoint();
        let v = ckpt.version;
        check(&ckpt, encode_checkpoint, |b| decode_checkpoint(b, v), &mut g);
    }

    #[test]
    fn cluster_info_survives_only_intact(seed: u64) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let info = g.cluster_info();
        check(&info, encode_cluster_info, decode_cluster_info, &mut g);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let range = (TxnVersion(1), TxnVersion(1));
        prop_assert!(is_corrupt(decode_log_file(&bytes, range)));
        prop_assert!(is_corrupt(decode_checkpoint(&bytes, TxnVersion(1))));
        prop_assert!(is_corrupt(decode_cluster_info(&bytes)));
    }
}

fn records(versions: std::ops::RangeInclusive<u64>) -> Vec<TxnRecord> {
    versions
        .map(|v| TxnRecord {
            version: TxnVersion(v),
            ops: vec![CatalogOp::DropTable(Oid(v))],
        })
        .collect()
}

fn v(n: u64) -> TxnVersion {
    TxnVersion(n)
}

#[test]
fn log_file_roundtrip() {
    let recs = records(1..=3);
    assert_eq!(
        decode_log_file(&encode_log_file(&recs), (v(1), v(3))).unwrap(),
        recs
    );
    // A lone commit is a file of exactly one record.
    let one = encode_log_file(&recs[..1]);
    assert_eq!(decode_log_file(&one, (v(1), v(1))).unwrap(), recs[..1]);
}

#[test]
fn ops_roundtrip() {
    let op = CatalogOp::UpsertSubscription(Subscription {
        node: NodeId(1),
        shard: ShardId(2),
        state: SubState::Active,
    });
    let rec = vec![TxnRecord {
        version: v(4),
        ops: vec![op],
    }];
    assert_eq!(
        decode_log_file(&encode_log_file(&rec), (v(4), v(4))).unwrap(),
        rec
    );
}

#[test]
fn checkpoint_roundtrip() {
    let c = Checkpoint {
        version: v(3),
        state: CatalogState::default(),
    };
    assert_eq!(decode_checkpoint(&encode_checkpoint(&c), v(3)).unwrap(), c);
}

#[test]
fn malformed_log_files_are_corrupt() {
    let range = (v(1), v(3));
    assert!(is_corrupt(decode_log_file(b"{not a log file", range)));
    // Empty or gapped files are corruption.
    assert!(is_corrupt(decode_log_file(
        &encode_log_file(&[]),
        (v(0), v(0))
    )));
    let recs = records(1..=3);
    let gapped = vec![recs[0].clone(), recs[2].clone()];
    assert!(is_corrupt(decode_log_file(
        &encode_log_file(&gapped),
        range
    )));
    assert!(is_corrupt(decode_checkpoint(b"", v(1))));
    // A file holds exactly the versions its key names.
    let file = encode_log_file(&recs);
    assert!(is_corrupt(decode_log_file(&file, (v(1), v(2)))));
    assert!(is_corrupt(decode_log_file(&file, (v(2), v(3)))));
    // One kind is never read as another.
    let info = ClusterInfo {
        truncation_version: v(1),
        incarnation: "a".into(),
        database: "d".into(),
        timestamp_ms: 0,
        lease_until_ms: 0,
        nodes: vec![],
    };
    assert!(is_corrupt(decode_checkpoint(
        &encode_cluster_info(&info),
        v(1)
    )));
}

/// `HashRange::new` asserts its bounds; decode checks them first.
#[test]
fn out_of_space_hash_ranges_are_corrupt() {
    for (lo, hi) in [(5, 1), (0, (1 << 32) + 1)] {
        let mut state = CatalogState::default();
        state.shards.push(ShardDef {
            id: ShardId(0),
            kind: ShardKind::Segment,
            range: HashRange { lo, hi },
        });
        let c = Checkpoint {
            version: v(1),
            state,
        };
        assert!(is_corrupt(decode_checkpoint(&encode_checkpoint(&c), v(1))));
    }
}
