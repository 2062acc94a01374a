//! The catalog at rest (paper §2.4, §3.5): log files, checkpoints and
//! `cluster_info` are written by `encode_file` and read by
//! `decode_file` — the one framing of every catalog file, over the
//! same `eon_columnar::format` writer and reader as every data file.
//!
//! ```text
//! file  := magic "EONC" | format version u8 | kind u8
//!          | lo u64 | hi u64 | record count varint | frame*
//! frame := len varint | FNV-1a checksum of the payload u64 | payload
//! ```
//!
//! `lo..=hi` is the version range the file holds: a log file's first
//! and last record, a checkpoint's version, the truncation version of
//! `cluster_info`. One frame holds one record, and record *i* must be
//! at version `lo + i`. Integers inside a payload are LEB128 varints;
//! values use the tagged cell encoding of data files, so a float keeps
//! its exact bits (NaN, ±inf and −0.0 included).
//!
//! Decoding never panics and never returns a shorter file: a short
//! read, a bad magic, version or kind, a checksum mismatch, an unknown
//! tag, a count the bytes cannot hold, trailing bytes, or a version
//! other than the one expected is [`EonError::Corrupt`]. A torn write
//! is corruption, not an earlier state.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use bytes::Bytes;
use eon_columnar::format::{checksum, Reader, Writer};
use eon_columnar::projection::Segmentation;
use eon_columnar::{LapFunc, LiveAggregate, Projection, SortOrder};
use eon_types::hashspace::HASH_SPACE_SIZE;
use eon_types::{
    DataType, EonError, Field, HashRange, NodeId, Oid, Result, Schema, ShardId, TxnVersion, Value,
};

use crate::cluster_info::ClusterInfo;
use crate::log::{Checkpoint, TxnRecord};
use crate::objects::{
    CatalogOp, ContainerMeta, DeleteVectorMeta, ShardDef, ShardKind, SubState, Subscription, Table,
};
use crate::state::CatalogState;

const MAGIC: u32 = u32::from_le_bytes(*b"EONC");
const FORMAT_VERSION: u8 = 1;

fn corrupt(what: impl std::fmt::Display) -> EonError {
    EonError::Corrupt(format!("catalog file: {what}"))
}

/// Encode a log file: consecutive committed records. A commit writes
/// one record; a catch-up writes its whole tail as one file.
pub fn encode_log_file(records: &[TxnRecord]) -> Bytes {
    encode_file(records)
}

/// Decode the log file whose key names the versions `lo..=hi`: it must
/// hold exactly those versions, in order.
pub fn decode_log_file(data: &[u8], range: (TxnVersion, TxnVersion)) -> Result<Vec<TxnRecord>> {
    decode_file(data, Some(range))
}

pub fn encode_checkpoint(ckpt: &Checkpoint) -> Bytes {
    encode_file(std::slice::from_ref(ckpt))
}

/// Decode the checkpoint whose key names `version`.
pub fn decode_checkpoint(data: &[u8], version: TxnVersion) -> Result<Checkpoint> {
    only(decode_file(data, Some((version, version)))?)
}

pub fn encode_cluster_info(info: &ClusterInfo) -> Bytes {
    encode_file(std::slice::from_ref(info))
}

pub fn decode_cluster_info(data: &[u8]) -> Result<ClusterInfo> {
    only(decode_file(data, None)?)
}

fn only<T>(records: Vec<T>) -> Result<T> {
    let [one]: [T; 1] = records
        .try_into()
        .map_err(|v: Vec<T>| corrupt(format!("{} records where one belongs", v.len())))?;
    Ok(one)
}

/// A record of a catalog file: its file kind and its place in the
/// version order.
trait Record: Codec {
    const KIND: u8;
    fn version(&self) -> TxnVersion;
}

impl Record for TxnRecord {
    const KIND: u8 = 1;
    fn version(&self) -> TxnVersion {
        self.version
    }
}

impl Record for Checkpoint {
    const KIND: u8 = 2;
    fn version(&self) -> TxnVersion {
        self.version
    }
}

impl Record for ClusterInfo {
    const KIND: u8 = 3;
    fn version(&self) -> TxnVersion {
        self.truncation_version
    }
}

/// Frame `records` as one file of `T`'s kind.
fn encode_file<T: Record>(records: &[T]) -> Bytes {
    let version = |r: Option<&T>| r.map_or(TxnVersion::ZERO, T::version);
    let mut w = Writer::new();
    w.put_u32(MAGIC);
    w.put_u8(FORMAT_VERSION);
    w.put_u8(T::KIND);
    w.put_u64(version(records.first()).0);
    w.put_u64(version(records.last()).0);
    w.put_varint(records.len() as u64);
    for record in records {
        let mut payload = Writer::new();
        record.put(&mut payload);
        w.put_varint(payload.len() as u64);
        w.put_u64(checksum(payload.as_slice()));
        w.put_raw(payload.as_slice());
    }
    w.into_bytes()
}

/// Read a file of `T`'s kind holding the versions `expect` names (any
/// range when `None`): at least one record, record *i* at `lo + i`,
/// the last at `hi`.
fn decode_file<T: Record>(data: &[u8], expect: Option<(TxnVersion, TxnVersion)>) -> Result<Vec<T>> {
    let mut r = Reader::new(data);
    if r.get_u32()? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.get_u8()?;
    if version != FORMAT_VERSION {
        return Err(corrupt(format!("unknown format version {version}")));
    }
    let kind = r.get_u8()?;
    if kind != T::KIND {
        return Err(corrupt(format!("file kind {kind}, expected {}", T::KIND)));
    }
    let (lo, hi) = (TxnVersion(r.get_u64()?), TxnVersion(r.get_u64()?));
    if let Some((want_lo, want_hi)) = expect {
        if (lo, hi) != (want_lo, want_hi) {
            return Err(corrupt(format!(
                "holds {lo}..={hi}, its key names {want_lo}..={want_hi}"
            )));
        }
    }
    let n = get_len(&mut r)?;
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let len = get_len(&mut r)?;
        let sum = r.get_u64()?;
        let payload = r.take(len)?;
        if checksum(payload) != sum {
            return Err(corrupt(format!("checksum mismatch in record {i}")));
        }
        let mut p = Reader::new(payload);
        let record = T::get(&mut p)?;
        if !p.is_exhausted() {
            return Err(corrupt(format!("trailing bytes in record {i}")));
        }
        if lo.0.checked_add(i as u64) != Some(record.version().0) {
            return Err(corrupt(format!(
                "record {i} is {}, file starts at {lo}",
                record.version()
            )));
        }
        records.push(record);
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes after the last record"));
    }
    match records.last() {
        Some(last) if last.version() == hi => Ok(records),
        _ => Err(corrupt(format!("{n} records do not reach {hi}"))),
    }
}

/// An element count, bounded by the bytes left (every element takes at
/// least one), so a corrupt count cannot allocate past the file.
fn get_len(r: &mut Reader<'_>) -> Result<usize> {
    let n = r.get_varint()?;
    match usize::try_from(n) {
        Ok(n) if n <= r.remaining() => Ok(n),
        _ => Err(corrupt(format!(
            "count {n} exceeds the {} bytes left",
            r.remaining()
        ))),
    }
}

/// Hand-written encoding of one catalog type.
trait Codec: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

fn bad_tag(ty: &str, tag: u8) -> EonError {
    corrupt(format!("unknown {ty} tag {tag}"))
}

impl Codec for u64 {
    fn put(&self, w: &mut Writer) {
        w.put_varint(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get_varint()
    }
}

impl Codec for usize {
    fn put(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.get_varint()?;
        usize::try_from(v).map_err(|_| corrupt(format!("index {v} out of range")))
    }
}

impl Codec for bool {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad_tag("bool", t)),
        }
    }
}

impl Codec for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get_str()
    }
}

impl Codec for Value {
    fn put(&self, w: &mut Writer) {
        w.put_value(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.get_value()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Writer) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = get_len(r)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.put_u8(self.is_some() as u8);
        if let Some(x) = self {
            x.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            t => Err(bad_tag("option", t)),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Structs field by field, in the order listed (`0` for a newtype).
macro_rules! struct_codec {
    ($($t:ident { $($f:tt),* }),* $(,)?) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Writer) {
                $(self.$f.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok($t { $($f: Codec::get(r)?),* })
            }
        }
    )*};
}

struct_codec! {
    Oid { 0 },
    NodeId { 0 },
    ShardId { 0 },
    TxnVersion { 0 },
    SortOrder { 0 },
    Field { name, dtype, nullable },
    Schema { fields },
    ShardDef { id, kind, range },
    Subscription { node, shard, state },
    LiveAggregate { group_by, aggs },
    Projection { name, columns, sort, segmentation, live_aggregate },
    Table { oid, name, schema, projections, defaults },
    ContainerMeta { oid, key, table, projection, shard, rows, size_bytes, col_minmax },
    DeleteVectorMeta { oid, key, container, shard, deleted_rows },
    TxnRecord { version, ops },
    Checkpoint { version, state },
    ClusterInfo { truncation_version, incarnation, database, timestamp_ms, lease_until_ms, nodes },
}

/// Enums: a tag byte, then the variant's fields in the order listed.
/// A variant is `Name`, `Name(field)` or `Name { fields }`.
macro_rules! enum_codec {
    ($t:ident { $($tag:literal => $v:ident $(($one:ident))? $({ $($f:ident),* })?),* $(,)? }) => {
        impl Codec for $t {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($t::$v $(($one))? $({ $($f),* })? => {
                        w.put_u8($tag);
                        $($one.put(w);)?
                        $($($f.put(w);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                Ok(match r.get_u8()? {
                    $($tag => {
                        $(let $one = Codec::get(r)?;)?
                        $($(let $f = Codec::get(r)?;)*)?
                        $t::$v $(($one))? $({ $($f),* })?
                    })*
                    tag => return Err(bad_tag(stringify!($t), tag)),
                })
            }
        }
    };
}

enum_codec! { DataType { 0 => Int, 1 => Float, 2 => Str, 3 => Bool, 4 => Date } }
enum_codec! { ShardKind { 0 => Segment, 1 => Replica } }
enum_codec! { SubState { 0 => Pending, 1 => Passive, 2 => Active, 3 => Removing } }
enum_codec! { LapFunc { 0 => Sum, 1 => Min, 2 => Max, 3 => CountStar } }
enum_codec! { Segmentation { 0 => Segmented { cols }, 1 => Replicated } }
enum_codec! {
    CatalogOp {
        0 => DefineShards(shards),
        1 => CreateTable(table),
        2 => DropTable(oid),
        3 => AddProjection { table, oid, projection },
        4 => AddColumn { table, field, default },
        5 => AddContainer(container),
        6 => DropContainer(oid),
        7 => AddDeleteVector(dv),
        8 => DropDeleteVector(oid),
        9 => UpsertSubscription(sub),
        10 => RemoveSubscription { node, shard },
        11 => SetMergeoutCoordinator { shard, node },
    }
}

impl Codec for HashRange {
    fn put(&self, w: &mut Writer) {
        self.lo.put(w);
        self.hi.put(w);
    }
    /// Checked here: `HashRange::new` asserts.
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let (lo, hi) = (u64::get(r)?, u64::get(r)?);
        if lo <= hi && hi <= HASH_SPACE_SIZE {
            Ok(HashRange::new(lo, hi))
        } else {
            Err(corrupt(format!("bad hash range {lo}..{hi}")))
        }
    }
}

/// A map written as a list of its entries; a key read twice is
/// corruption.
fn unique<K: Ord + std::fmt::Debug, V>(
    entries: impl IntoIterator<Item = (K, V)>,
) -> Result<BTreeMap<K, V>> {
    let mut map = BTreeMap::new();
    for (k, v) in entries {
        match map.entry(k) {
            Entry::Occupied(e) => return Err(corrupt(format!("duplicate key {:?}", e.key()))),
            Entry::Vacant(e) => e.insert(v),
        };
    }
    Ok(map)
}

/// Values that carry their own key, written without it.
fn keyed<K: Ord + std::fmt::Debug, V: Codec>(
    r: &mut Reader<'_>,
    key: impl Fn(&V) -> K,
) -> Result<BTreeMap<K, V>> {
    unique(Vec::<V>::get(r)?.into_iter().map(|v| (key(&v), v)))
}

fn put_pairs<K: Codec, V: Codec>(w: &mut Writer, map: &BTreeMap<K, V>) {
    w.put_varint(map.len() as u64);
    for (k, v) in map {
        k.put(w);
        v.put(w);
    }
}

fn put_seq<'a, T: Codec + 'a>(w: &mut Writer, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put_varint(items.len() as u64);
    items.for_each(|x| x.put(w));
}

impl Codec for CatalogState {
    fn put(&self, w: &mut Writer) {
        self.shards.put(w);
        put_seq(w, self.tables.values());
        put_seq(w, self.containers.values());
        put_seq(w, self.delete_vectors.values());
        put_seq(w, self.subscriptions.values());
        put_pairs(w, &self.mergeout_coord);
        put_pairs(w, &self.obj_versions);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CatalogState {
            shards: Vec::get(r)?,
            tables: keyed(r, |t: &Table| t.oid)?,
            containers: keyed(r, |c: &ContainerMeta| c.oid)?,
            delete_vectors: keyed(r, |d: &DeleteVectorMeta| d.oid)?,
            subscriptions: keyed(r, |s: &Subscription| (s.node, s.shard))?,
            mergeout_coord: unique(Vec::<(ShardId, NodeId)>::get(r)?)?,
            obj_versions: unique(Vec::<(Oid, TxnVersion)>::get(r)?)?,
        })
    }
}
