//! S3-Select-style pushdown (DESIGN.md "Pushdown execution").
//!
//! The store exposes a `select` verb ([`eon_storage::FileSystem::select`])
//! that runs a [`SelectRequest`] against one ROS container *inside* the
//! store and returns only surviving rows — or merged partial aggregates —
//! instead of whole column blocks. This module supplies both halves of
//! the contract:
//!
//! * the wire format ([`SelectRequest`] / [`SelectResponse`]), encoded
//!   with the same checked binary codec as the container format itself
//!   (`eon_columnar::format`), so `Float` bit patterns — NaNs included —
//!   round-trip exactly;
//! * the compute engine ([`RosSelectEngine`]), installed into the shared
//!   store at `EonDb` construction. It runs the very same
//!   `RosReader::filter_blocks` kernel and `aggregate_partial` fold the
//!   scan path runs locally, over the same typed column batches, which
//!   is what makes pushdown-on output *byte identical* to pushdown-off
//!   output.
//!
//! The engine answers (`Ok(Some)`), declines (`Ok(None)` — the caller
//! falls back to plain GETs, nothing is charged), or errors (corrupt
//! object / malformed request — surfaced through the retry loop and the
//! circuit breaker like any other storage failure). Declines are a pure
//! function of (object, request), so they never perturb the fault-dice
//! schedule of the simulated store.

use bytes::Bytes;
use eon_columnar::container::RosFooter;
use eon_columnar::format::{Reader, Writer};
use eon_columnar::pruning::CmpOp;
use eon_columnar::{Batch, BlockFilter, BlockRows, Column, Predicate, ReadStats, RosReader};
use eon_exec::agg::{aggregate_partial, AggState, PartialGroup, Partials};
use eon_exec::{AggFunc, AggSpec, Expr};
use eon_storage::{FileSystem, FsStats, SelectEngine, SelectOutput};
use eon_types::{EonError, Result, Value};

/// Bumped whenever the request/response layout changes; the engine
/// rejects versions it does not speak instead of misparsing them.
pub const WIRE_VERSION: u8 = 1;

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

/// Partial-aggregate half of a select request: fold predicate survivors
/// into per-group [`AggState`]s inside the store and ship the states.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRequest {
    /// Group-key columns, in the same row space as the predicate.
    pub group_by: Vec<usize>,
    /// Aggregates; every spec must satisfy [`agg_pushable`].
    pub aggs: Vec<AggSpec>,
    /// The engine declines (rather than answers) when the container
    /// produces more groups than this — shipping a huge group table
    /// would cost more than the blocks themselves.
    pub max_groups: u64,
}

/// One pushed-down unit of scan work against a single ROS container.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectRequest {
    /// Row width the predicate's column indices are resolved against
    /// (the projection width node-side). Columns without data evaluate
    /// as `Null`, exactly as in the node-local scan.
    pub width: usize,
    pub predicate: Predicate,
    /// Per-block keep mask after node-side min/max pruning; the engine
    /// never touches a pruned block.
    pub keep: Vec<bool>,
    /// Columns to return (rows mode) or to materialize for aggregation
    /// (agg mode). Must be physically present in the container — the
    /// node keeps columns that need table defaults on the local path.
    pub read_cols: Vec<usize>,
    /// `Some` switches the request to partial-aggregate mode.
    pub agg: Option<AggRequest>,
}

/// `(wire tag, input column)` for a pushable aggregate, `None` when the
/// spec cannot go below the GET. Pushable: SUM/COUNT/MIN/MAX over a bare
/// column, plus COUNT(*). AVG and COUNT(DISTINCT) stay node-side (their
/// states are pushable in principle, but keeping the eligible set small
/// keeps the byte-exactness argument auditable), and float SUMs are
/// declined by the engine after the fold (non-associative).
pub fn agg_wire(spec: &AggSpec) -> Option<(u8, usize)> {
    match (spec.func, &spec.expr) {
        (AggFunc::Sum, Expr::Col(c)) => Some((0, *c)),
        (AggFunc::Count, Expr::Col(c)) => Some((1, *c)),
        (AggFunc::CountStar, _) => Some((2, 0)),
        (AggFunc::Min, Expr::Col(c)) => Some((3, *c)),
        (AggFunc::Max, Expr::Col(c)) => Some((4, *c)),
        _ => None,
    }
}

/// Whether a whole aggregate list can be pushed below the GET.
pub fn agg_pushable(aggs: &[AggSpec]) -> bool {
    !aggs.is_empty() && aggs.iter().all(|s| agg_wire(s).is_some())
}

fn agg_from_wire(tag: u8, col: usize) -> Result<AggSpec> {
    Ok(match tag {
        0 => AggSpec::sum(Expr::col(col)),
        1 => AggSpec::new(AggFunc::Count, Expr::col(col)),
        2 => AggSpec::count_star(),
        3 => AggSpec::min(Expr::col(col)),
        4 => AggSpec::max(Expr::col(col)),
        t => return Err(EonError::Corrupt(format!("bad aggregate tag {t}"))),
    })
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from_tag(t: u8) -> Result<CmpOp> {
    Ok(match t {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(EonError::Corrupt(format!("bad cmp tag {t}"))),
    })
}

fn encode_predicate(w: &mut Writer, p: &Predicate) {
    match p {
        Predicate::True => w.put_u8(0),
        Predicate::Cmp { col, op, lit } => {
            w.put_u8(1);
            w.put_varint(*col as u64);
            w.put_u8(cmp_tag(*op));
            w.put_value(lit);
        }
        Predicate::IsNull(c) => {
            w.put_u8(2);
            w.put_varint(*c as u64);
        }
        Predicate::IsNotNull(c) => {
            w.put_u8(3);
            w.put_varint(*c as u64);
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            w.put_u8(if matches!(p, Predicate::And(_)) { 4 } else { 5 });
            w.put_varint(ps.len() as u64);
            for q in ps {
                encode_predicate(w, q);
            }
        }
    }
}

fn decode_predicate(r: &mut Reader, depth: usize) -> Result<Predicate> {
    if depth > 64 {
        return Err(EonError::Corrupt("predicate nesting too deep".into()));
    }
    Ok(match r.get_u8()? {
        0 => Predicate::True,
        1 => Predicate::Cmp {
            col: r.get_varint()? as usize,
            op: cmp_from_tag(r.get_u8()?)?,
            lit: r.get_value()?,
        },
        2 => Predicate::IsNull(r.get_varint()? as usize),
        3 => Predicate::IsNotNull(r.get_varint()? as usize),
        t @ (4 | 5) => {
            let n = r.get_varint()? as usize;
            if n > r.remaining() {
                return Err(EonError::Corrupt("predicate arity exceeds buffer".into()));
            }
            let ps = (0..n)
                .map(|_| decode_predicate(r, depth + 1))
                .collect::<Result<Vec<_>>>()?;
            if t == 4 {
                Predicate::And(ps)
            } else {
                Predicate::Or(ps)
            }
        }
        t => return Err(EonError::Corrupt(format!("bad predicate tag {t}"))),
    })
}

fn decode_index_list(r: &mut Reader) -> Result<Vec<usize>> {
    let n = r.get_varint()? as usize;
    if n > r.remaining() {
        return Err(EonError::Corrupt("index list exceeds buffer".into()));
    }
    (0..n).map(|_| Ok(r.get_varint()? as usize)).collect()
}

impl SelectRequest {
    pub fn encode(&self) -> Result<Bytes> {
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        w.put_u8(self.agg.is_some() as u8);
        w.put_varint(self.width as u64);
        encode_predicate(&mut w, &self.predicate);
        w.put_varint(self.keep.len() as u64);
        for &k in &self.keep {
            w.put_u8(k as u8);
        }
        w.put_varint(self.read_cols.len() as u64);
        for &c in &self.read_cols {
            w.put_varint(c as u64);
        }
        if let Some(agg) = &self.agg {
            w.put_varint(agg.group_by.len() as u64);
            for &g in &agg.group_by {
                w.put_varint(g as u64);
            }
            w.put_varint(agg.aggs.len() as u64);
            for spec in &agg.aggs {
                let (tag, col) = agg_wire(spec)
                    .ok_or_else(|| EonError::Internal("aggregate is not pushable".into()))?;
                w.put_u8(tag);
                w.put_varint(col as u64);
            }
            w.put_varint(agg.max_groups);
        }
        Ok(w.into_bytes())
    }

    pub fn decode(buf: &[u8]) -> Result<SelectRequest> {
        let mut r = Reader::new(buf);
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(EonError::Corrupt(format!(
                "select request version {version}, engine speaks {WIRE_VERSION}"
            )));
        }
        let has_agg = r.get_u8()? != 0;
        let width = r.get_varint()? as usize;
        let predicate = decode_predicate(&mut r, 0)?;
        let nblocks = r.get_varint()? as usize;
        if nblocks > r.remaining() {
            return Err(EonError::Corrupt("keep mask exceeds buffer".into()));
        }
        let keep = (0..nblocks)
            .map(|_| Ok(r.get_u8()? != 0))
            .collect::<Result<Vec<_>>>()?;
        let read_cols = decode_index_list(&mut r)?;
        let agg = if has_agg {
            let group_by = decode_index_list(&mut r)?;
            let naggs = r.get_varint()? as usize;
            if naggs > r.remaining() {
                return Err(EonError::Corrupt("aggregate list exceeds buffer".into()));
            }
            let aggs = (0..naggs)
                .map(|_| {
                    let tag = r.get_u8()?;
                    let col = r.get_varint()? as usize;
                    agg_from_wire(tag, col)
                })
                .collect::<Result<Vec<_>>>()?;
            Some(AggRequest {
                group_by,
                aggs,
                max_groups: r.get_varint()?,
            })
        } else {
            None
        };
        Ok(SelectRequest {
            width,
            predicate,
            keep,
            read_cols,
            agg,
        })
    }
}

// ---------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------

/// What comes back over the wire from a select.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectResponse {
    /// Rows mode: per-block survivor indices plus gathered values.
    /// Blocks with no survivors are simply absent.
    Rows(Vec<BlockRows>),
    /// Agg mode: this container's groups, already merged and sorted by
    /// key — exactly what [`aggregate_partial`] returns.
    Partials(Partials),
}

fn encode_state(w: &mut Writer, s: &AggState) -> Result<()> {
    match s {
        AggState::Sum { acc } => {
            w.put_u8(0);
            w.put_value(acc);
        }
        AggState::Count { n } => {
            w.put_u8(1);
            w.put_signed_varint(*n);
        }
        AggState::Min { acc } => {
            w.put_u8(2);
            w.put_value(acc);
        }
        AggState::Max { acc } => {
            w.put_u8(3);
            w.put_value(acc);
        }
        AggState::Avg { .. } | AggState::Distinct { .. } => {
            return Err(EonError::Internal(
                "avg/distinct states never cross the select wire".into(),
            ))
        }
    }
    Ok(())
}

fn decode_state(r: &mut Reader) -> Result<AggState> {
    Ok(match r.get_u8()? {
        0 => AggState::Sum { acc: r.get_value()? },
        1 => AggState::Count {
            n: r.get_signed_varint()?,
        },
        2 => AggState::Min { acc: r.get_value()? },
        3 => AggState::Max { acc: r.get_value()? },
        t => return Err(EonError::Corrupt(format!("bad agg state tag {t}"))),
    })
}

impl SelectResponse {
    pub fn encode(&self) -> Result<Bytes> {
        let mut w = Writer::new();
        w.put_u8(WIRE_VERSION);
        match self {
            SelectResponse::Rows(blocks) => {
                w.put_u8(0);
                w.put_varint(blocks.len() as u64);
                for b in blocks {
                    w.put_varint(b.block as u64);
                    w.put_varint(b.rows.len() as u64);
                    // Survivor indices ascend: delta-encode them.
                    let mut prev = 0u64;
                    for &r in &b.rows {
                        w.put_varint(r as u64 - prev);
                        prev = r as u64;
                    }
                    w.put_varint(b.cols.len() as u64);
                    for col in &b.cols {
                        col.iter().for_each(|v| w.put_value(v));
                    }
                }
            }
            SelectResponse::Partials(groups) => {
                w.put_u8(1);
                w.put_varint(groups.len() as u64);
                for g in groups {
                    w.put_varint(g.key.len() as u64);
                    for v in &g.key {
                        w.put_value(v);
                    }
                    w.put_varint(g.states.len() as u64);
                    for s in &g.states {
                        encode_state(&mut w, s)?;
                    }
                }
            }
        }
        Ok(w.into_bytes())
    }

    pub fn decode(buf: &[u8]) -> Result<SelectResponse> {
        let mut r = Reader::new(buf);
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(EonError::Corrupt(format!(
                "select response version {version}, caller speaks {WIRE_VERSION}"
            )));
        }
        Ok(match r.get_u8()? {
            0 => {
                let nblocks = r.get_varint()? as usize;
                if nblocks > r.remaining() {
                    return Err(EonError::Corrupt("block list exceeds buffer".into()));
                }
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    let block = r.get_varint()? as usize;
                    let nrows = r.get_varint()? as usize;
                    if nrows > r.remaining() {
                        return Err(EonError::Corrupt("row list exceeds buffer".into()));
                    }
                    let mut rows = Vec::with_capacity(nrows);
                    let mut acc = 0u64;
                    for i in 0..nrows {
                        let d = r.get_varint()?;
                        acc = if i == 0 { d } else { acc + d };
                        rows.push(acc as usize);
                    }
                    let ncols = r.get_varint()? as usize;
                    if ncols > 100_000 {
                        return Err(EonError::Corrupt("absurd column count".into()));
                    }
                    let cols = (0..ncols).map(|_| r.get_cells(nrows)).collect::<Result<_>>()?;
                    blocks.push(BlockRows { block, rows, cols });
                }
                SelectResponse::Rows(blocks)
            }
            1 => {
                let ngroups = r.get_varint()? as usize;
                if ngroups > r.remaining() {
                    return Err(EonError::Corrupt("group list exceeds buffer".into()));
                }
                let mut groups = Vec::with_capacity(ngroups);
                for _ in 0..ngroups {
                    let nkey = r.get_varint()? as usize;
                    if nkey > r.remaining() {
                        return Err(EonError::Corrupt("group key exceeds buffer".into()));
                    }
                    let key = (0..nkey).map(|_| r.get_value()).collect::<Result<Vec<_>>>()?;
                    let nstates = r.get_varint()? as usize;
                    if nstates > r.remaining() {
                        return Err(EonError::Corrupt("state list exceeds buffer".into()));
                    }
                    let states = (0..nstates)
                        .map(|_| decode_state(&mut r))
                        .collect::<Result<Vec<_>>>()?;
                    groups.push(PartialGroup { key, states });
                }
                SelectResponse::Partials(groups)
            }
            t => return Err(EonError::Corrupt(format!("bad response tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------
// Selectivity estimation (the crossover policy's input)
// ---------------------------------------------------------------------

/// Estimated fraction of a block's rows a predicate keeps, from footer
/// min/max stats alone. Integer ranges get a uniform-distribution
/// estimate; anything the stats can't bound is assumed to keep
/// everything (conservative: overestimating selectivity only suppresses
/// pushdown, never correctness). Deterministic — same footer, same
/// estimate, every run.
fn block_selectivity(p: &Predicate, footer: &RosFooter, b: usize) -> f64 {
    match p {
        Predicate::True => 1.0,
        Predicate::Cmp { col, op, lit } => {
            let Some(meta) = footer.columns.get(*col).and_then(|c| c.blocks.get(b)) else {
                return 1.0;
            };
            let (Value::Int(mn), Value::Int(mx), Value::Int(v)) = (&meta.min, &meta.max, lit)
            else {
                return 1.0;
            };
            let (mn, mx, v) = (*mn as i128, *mx as i128, *v as i128);
            if mx < mn {
                return 1.0; // all-null or empty block: stats say nothing
            }
            let span = (mx - mn + 1) as f64;
            let frac = |n: i128| (n.max(0) as f64 / span).clamp(0.0, 1.0);
            match op {
                CmpOp::Eq => {
                    if v < mn || v > mx {
                        0.0
                    } else {
                        1.0 / span
                    }
                }
                CmpOp::Ne => 1.0 - if v < mn || v > mx { 0.0 } else { 1.0 / span },
                CmpOp::Lt => frac(v - mn),
                CmpOp::Le => frac(v - mn + 1),
                CmpOp::Gt => frac(mx - v),
                CmpOp::Ge => frac(mx - v + 1),
            }
        }
        // Null fractions aren't in the stats; split the difference.
        Predicate::IsNull(_) => 0.5,
        Predicate::IsNotNull(_) => 1.0,
        Predicate::And(ps) => ps
            .iter()
            .map(|q| block_selectivity(q, footer, b))
            .product::<f64>()
            .clamp(0.0, 1.0),
        Predicate::Or(ps) => ps
            .iter()
            .map(|q| block_selectivity(q, footer, b))
            .sum::<f64>()
            .clamp(0.0, 1.0),
    }
}

/// Row-weighted selectivity estimate over the unpruned blocks of a
/// container. `0.0` when nothing survives pruning.
pub fn estimate_selectivity(p: &Predicate, footer: &RosFooter, keep: &[bool]) -> f64 {
    let Some(first) = footer.columns.first() else {
        return 1.0;
    };
    let mut total = 0u64;
    let mut est = 0.0;
    for (b, bm) in first.blocks.iter().enumerate() {
        if !keep.get(b).copied().unwrap_or(false) {
            continue;
        }
        total += bm.rows;
        est += bm.rows as f64 * block_selectivity(p, footer, b);
    }
    if total == 0 {
        0.0
    } else {
        est / total as f64
    }
}

/// Bytes a plain-GET scan would fetch for `cols` under `keep` (ignoring
/// coalescing gaps): the "scanned" side of the crossover decision and
/// the baseline for bytes-saved accounting.
pub fn kept_bytes(footer: &RosFooter, keep: &[bool], cols: &[usize]) -> u64 {
    cols.iter()
        .filter_map(|&c| footer.columns.get(c))
        .map(|col| {
            col.blocks
                .iter()
                .enumerate()
                .filter(|(b, _)| keep.get(*b).copied().unwrap_or(false))
                .map(|(_, bm)| bm.len)
                .sum::<u64>()
        })
        .sum()
}

/// Whether any state is a `Float` sum — the one pushable aggregate whose
/// per-container partials do not merge bit-identically (float addition
/// is order-sensitive).
pub(crate) fn has_float_sum(partials: &Partials) -> bool {
    partials.iter().any(|g| {
        g.states
            .iter()
            .any(|s| matches!(s, AggState::Sum { acc: Value::Float(_) }))
    })
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// A read-only filesystem over one in-memory object, so the engine can
/// reuse `RosReader` verbatim.
struct SingleObjectFs {
    object: Bytes,
}

impl FileSystem for SingleObjectFs {
    fn write(&self, _path: &str, _data: Bytes) -> Result<()> {
        Err(EonError::Storage("select engine object is read-only".into()))
    }

    fn read(&self, _path: &str) -> Result<Bytes> {
        Ok(self.object.clone())
    }

    fn read_range(&self, _path: &str, offset: u64, len: u64) -> Result<Bytes> {
        let start = (offset as usize).min(self.object.len());
        let end = ((offset + len) as usize).min(self.object.len());
        Ok(self.object.slice(start..end))
    }

    fn size(&self, _path: &str) -> Result<u64> {
        Ok(self.object.len() as u64)
    }

    fn list(&self, _prefix: &str) -> Result<Vec<String>> {
        Ok(Vec::new())
    }

    fn delete(&self, _path: &str) -> Result<()> {
        Err(EonError::Storage("select engine object is read-only".into()))
    }

    fn stats(&self) -> FsStats {
        FsStats::default()
    }

    fn kind(&self) -> &'static str {
        "select-object"
    }
}

/// The container-format-aware compute installed into the simulated
/// store. Stateless; one instance serves every node's requests.
pub struct RosSelectEngine;

const OBJECT_KEY: &str = "object";

impl RosSelectEngine {
    fn run(&self, object: &Bytes, request: &[u8]) -> Result<Option<SelectOutput>> {
        let req = SelectRequest::decode(request)?;
        let fs = SingleObjectFs {
            object: object.clone(),
        };
        let reader = RosReader::open(&fs, OBJECT_KEY)?;
        let present = reader.column_count();
        let nblocks = reader.footer().columns.first().map_or(0, |col| col.blocks.len());
        if req.keep.len() != nblocks {
            return Err(EonError::Query(format!(
                "select keep mask has {} entries for {nblocks} blocks",
                req.keep.len()
            )));
        }
        // Requests referencing columns this container lacks (or a row
        // width too small for the predicate) are declined, not errors:
        // the node falls back to the local path, which knows how to
        // materialize table defaults.
        if req.read_cols.iter().any(|&c| c >= present || c >= req.width) {
            return Ok(None);
        }
        if req.predicate.columns().iter().any(|&c| c >= req.width) {
            return Ok(None);
        }
        let agg_cols = req.agg.iter().flat_map(|a| {
            let inputs = a.aggs.iter().filter_map(|s| match &s.expr {
                Expr::Col(c) => Some(c),
                _ => None,
            });
            a.group_by.iter().chain(inputs)
        });
        if agg_cols.into_iter().any(|&c| c >= req.width) {
            return Ok(None);
        }

        // The node's own kernel, over the object's bytes: no delete
        // mask or defaults (the node applies those), and gap 0 — bytes
        // here are billed, not waited for, so the engine reads exactly
        // the kept blocks.
        let filter = BlockFilter {
            width: req.width,
            pred: &req.predicate,
            read_cols: &req.read_cols,
            consts: &[],
            row_mask: None,
        };
        let mut rstats = ReadStats::default();
        let blocks = reader.filter_blocks(&fs, &filter, &req.keep, 0, &mut rstats)?;
        let response = match &req.agg {
            None => SelectResponse::Rows(blocks),
            Some(aggreq) => {
                // The survivors as one batch `width` wide (untyped Nulls
                // outside `read_cols`), blocks in block order — the rows
                // the node-local scan would feed `aggregate_partial`,
                // in the same order, so states match bit-for-bit.
                let mut read = Batch::nulls(req.read_cols.len(), 0);
                for br in blocks {
                    let rows = br.rows.len();
                    read.append(Batch::new(br.cols, rows));
                }
                let mut cols = vec![Column::nulls(read.rows()); req.width];
                let rows = read.rows();
                for (&c, col) in req.read_cols.iter().zip(read.into_cols()) {
                    cols[c] = col;
                }
                let partials =
                    aggregate_partial(&Batch::new(cols, rows), &aggreq.group_by, &aggreq.aggs)?;
                // Float sums are order-sensitive: merging per-container
                // accumulators is not bit-identical to one sequential
                // fold. Decline; the node re-scans locally.
                if partials.len() as u64 > aggreq.max_groups || has_float_sum(&partials) {
                    return Ok(None);
                }
                SelectResponse::Partials(partials)
            }
        };
        // "Bytes scanned" is what the store bills for: the position
        // index plus every block the engine read. Taken from the
        // reader's own accounting rather than from the bytes the open's
        // tail read happened to move, which on a small object overlap
        // the blocks and would be billed twice.
        Ok(Some(SelectOutput {
            response: response.encode()?,
            scanned_bytes: reader.index_bytes() + rstats.bytes_read,
        }))
    }
}

impl SelectEngine for RosSelectEngine {
    fn select(&self, object: &Bytes, request: &[u8]) -> Result<Option<SelectOutput>> {
        self.run(object, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_columnar::RosWriter;

    fn container(cols: &[Vec<Value>], block_rows: usize) -> Bytes {
        let (bytes, _) = RosWriter::with_block_rows(block_rows).encode(cols).unwrap();
        bytes
    }

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    fn pred_gt(col: usize, v: i64) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Gt,
            lit: Value::Int(v),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = SelectRequest {
            width: 3,
            predicate: Predicate::And(vec![
                pred_gt(0, 5),
                Predicate::Or(vec![Predicate::IsNull(1), pred_gt(2, -1)]),
            ]),
            keep: vec![true, false, true],
            read_cols: vec![0, 2],
            agg: Some(AggRequest {
                group_by: vec![0],
                aggs: vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()],
                max_groups: 64,
            }),
        };
        let got = SelectRequest::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(got, req);
    }

    #[test]
    fn response_roundtrip_preserves_float_bits() {
        let resp = SelectResponse::Rows(vec![BlockRows {
            block: 2,
            rows: vec![0, 3, 9],
            cols: [
                vec![Value::Float(f64::NAN), Value::Float(-0.0), Value::Int(7)],
                vec![Value::Null, Value::Str("x".into()), Value::Bool(true)],
                vec![Value::Null, Value::Float(-0.0), Value::Float(f64::NAN)],
            ]
            .iter()
            .map(|vals| Column::from_values(vals.iter().map(Value::as_ref)))
            .collect(),
        }]);
        let got = SelectResponse::decode(&resp.encode().unwrap()).unwrap();
        // Debug formatting distinguishes NaN payloads and -0.0.
        assert_eq!(format!("{got:?}"), format!("{resp:?}"));

        let parts = SelectResponse::Partials(vec![PartialGroup {
            key: vec![Value::Int(1)],
            states: vec![
                AggState::Sum { acc: Value::Int(-9) },
                AggState::Count { n: 4 },
                AggState::Min { acc: Value::Null },
                AggState::Max {
                    acc: Value::Str("z".into()),
                },
            ],
        }]);
        let got = SelectResponse::decode(&parts.encode().unwrap()).unwrap();
        assert_eq!(got, parts);
    }

    #[test]
    fn rows_mode_matches_local_filter() {
        let col0: Vec<i64> = (0..40).collect();
        let col1: Vec<i64> = (0..40).map(|i| i * 10).collect();
        let obj = container(&[ints(&col0), ints(&col1)], 8);
        let req = SelectRequest {
            width: 2,
            predicate: pred_gt(0, 33),
            keep: vec![true; 5],
            read_cols: vec![0, 1],
            agg: None,
        };
        let out = RosSelectEngine
            .select(&obj, &req.encode().unwrap())
            .unwrap()
            .unwrap();
        // What the store bills: the position index plus every block of
        // both columns.
        assert_eq!(out.scanned_bytes, 246);
        let SelectResponse::Rows(blocks) = SelectResponse::decode(&out.response).unwrap() else {
            panic!("expected rows response");
        };
        // Rows 34..40 live in block 4 (rows 32..40) at offsets 2..8.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].block, 4);
        assert_eq!(blocks[0].rows, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(blocks[0].cols[1].to_values(), ints(&[340, 350, 360, 370, 380, 390]));
    }

    #[test]
    fn pruned_blocks_are_never_scanned() {
        let col0: Vec<i64> = (0..40).collect();
        let obj = container(&[ints(&col0)], 8);
        let all = SelectRequest {
            width: 1,
            predicate: Predicate::IsNotNull(0),
            keep: vec![true; 5],
            read_cols: vec![0],
            agg: None,
        };
        let one = SelectRequest {
            keep: vec![true, false, false, false, false],
            ..all.clone()
        };
        let full = RosSelectEngine.select(&obj, &all.encode().unwrap()).unwrap().unwrap();
        let part = RosSelectEngine.select(&obj, &one.encode().unwrap()).unwrap().unwrap();
        assert_eq!((full.scanned_bytes, part.scanned_bytes), (149, 105));
        let SelectResponse::Rows(blocks) = SelectResponse::decode(&part.response).unwrap() else {
            panic!();
        };
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].rows.len(), 8);
    }

    /// A rows-mode response is the kernel's output, encoded: the store
    /// and the node run one filter.
    #[test]
    fn rows_mode_response_is_the_kernels_output() {
        let col0: Vec<i64> = (0..40).map(|i| i / 3).collect(); // RLE-friendly
        let col1: Vec<i64> = (0..40).map(|i| i * 10).collect();
        let tags: Vec<Value> = (0..40).map(|i| Value::Str(format!("t{}", i % 3))).collect();
        let obj = container(&[ints(&col0), ints(&col1), tags], 8);
        let req = SelectRequest {
            width: 3,
            predicate: Predicate::Or(vec![pred_gt(0, 9), Predicate::eq(2, "t1")]),
            keep: vec![true, false, true, true, true],
            read_cols: vec![2, 0],
            agg: None,
        };
        let out = RosSelectEngine.select(&obj, &req.encode().unwrap()).unwrap().unwrap();

        let fs = eon_storage::MemFs::new();
        fs.write("c", obj).unwrap();
        let reader = RosReader::open(&fs, "c").unwrap();
        let filter = BlockFilter {
            width: req.width,
            pred: &req.predicate,
            read_cols: &req.read_cols,
            consts: &[],
            row_mask: None,
        };
        let mut stats = ReadStats::default();
        let want = reader.filter_blocks(&fs, &filter, &req.keep, 0, &mut stats).unwrap();
        assert!(!want.is_empty());
        assert_eq!(SelectResponse::decode(&out.response).unwrap(), SelectResponse::Rows(want));
        assert_eq!(out.scanned_bytes, reader.index_bytes() + stats.bytes_read);
    }

    #[test]
    fn agg_mode_matches_aggregate_partial() {
        let groups: Vec<i64> = (0..30).map(|i| i % 3).collect();
        let vals: Vec<i64> = (0..30).map(|i| i * 7 - 50).collect();
        let obj = container(&[ints(&groups), ints(&vals)], 8);
        let aggs = vec![
            AggSpec::sum(Expr::col(1)),
            AggSpec::count_star(),
            AggSpec::min(Expr::col(1)),
            AggSpec::max(Expr::col(1)),
        ];
        let req = SelectRequest {
            width: 2,
            predicate: pred_gt(1, -20),
            keep: vec![true; 4],
            read_cols: vec![0, 1],
            agg: Some(AggRequest {
                group_by: vec![0],
                aggs: aggs.clone(),
                max_groups: 64,
            }),
        };
        let out = RosSelectEngine
            .select(&obj, &req.encode().unwrap())
            .unwrap()
            .unwrap();
        let SelectResponse::Partials(got) = SelectResponse::decode(&out.response).unwrap() else {
            panic!("expected partials");
        };
        // Reference: the local fold over the same filtered rows.
        let rows: Vec<Vec<Value>> = groups
            .iter()
            .zip(&vals)
            .filter(|(_, &v)| v > -20)
            .map(|(&g, &v)| vec![Value::Int(g), Value::Int(v)])
            .collect();
        let want = aggregate_partial(&Batch::from_rows(&rows, 2), &[0], &aggs).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn float_sum_declines() {
        let col: Vec<Value> = (0..10).map(|i| Value::Float(i as f64 * 0.1)).collect();
        let obj = container(&[col], 4);
        let req = SelectRequest {
            width: 1,
            predicate: Predicate::True,
            keep: vec![true; 3],
            read_cols: vec![0],
            agg: Some(AggRequest {
                group_by: vec![],
                aggs: vec![AggSpec::sum(Expr::col(0))],
                max_groups: 64,
            }),
        };
        assert!(RosSelectEngine
            .select(&obj, &req.encode().unwrap())
            .unwrap()
            .is_none());
        // MIN over the same floats is order-insensitive: answered.
        let req_min = SelectRequest {
            agg: Some(AggRequest {
                group_by: vec![],
                aggs: vec![AggSpec::min(Expr::col(0))],
                max_groups: 64,
            }),
            ..req
        };
        assert!(RosSelectEngine
            .select(&obj, &req_min.encode().unwrap())
            .unwrap()
            .is_some());
    }

    #[test]
    fn group_cardinality_cap_declines() {
        let col: Vec<i64> = (0..50).collect(); // 50 distinct groups
        let obj = container(&[ints(&col)], 8);
        let req = |cap: u64| SelectRequest {
            width: 1,
            predicate: Predicate::True,
            keep: vec![true; 7],
            read_cols: vec![0],
            agg: Some(AggRequest {
                group_by: vec![0],
                aggs: vec![AggSpec::count_star()],
                max_groups: cap,
            }),
        };
        assert!(RosSelectEngine
            .select(&obj, &req(10).encode().unwrap())
            .unwrap()
            .is_none());
        assert!(RosSelectEngine
            .select(&obj, &req(64).encode().unwrap())
            .unwrap()
            .is_some());
    }

    #[test]
    fn missing_column_declines_instead_of_erroring() {
        let obj = container(&[ints(&[1, 2, 3])], 4);
        let req = SelectRequest {
            width: 2,
            predicate: pred_gt(0, 1),
            keep: vec![true],
            read_cols: vec![0, 1], // column 1 not in the container
            agg: None,
        };
        assert!(RosSelectEngine
            .select(&obj, &req.encode().unwrap())
            .unwrap()
            .is_none());
    }

    #[test]
    fn corrupt_object_is_an_error() {
        let req = SelectRequest {
            width: 1,
            predicate: Predicate::True,
            keep: vec![],
            read_cols: vec![0],
            agg: None,
        };
        let garbage = Bytes::from_static(b"not a ros container at all....");
        assert!(RosSelectEngine
            .select(&garbage, &req.encode().unwrap())
            .is_err());
    }

    #[test]
    fn selectivity_estimates_are_sane() {
        let col: Vec<i64> = (0..100).collect();
        let (_, footer) = RosWriter::with_block_rows(10).encode(&[ints(&col)]).unwrap();
        let keep = vec![true; 10];
        let sel = |p: &Predicate| estimate_selectivity(p, &footer, &keep);
        assert!(sel(&pred_gt(0, 89)) < 0.15);
        assert!(sel(&pred_gt(0, 9)) > 0.8);
        assert_eq!(sel(&Predicate::True), 1.0);
        let eq = Predicate::Cmp {
            col: 0,
            op: CmpOp::Eq,
            lit: Value::Int(42),
        };
        assert!(sel(&eq) < 0.15);
        // Unknown (string literal) stays conservative.
        let s = Predicate::Cmp {
            col: 0,
            op: CmpOp::Eq,
            lit: Value::Str("x".into()),
        };
        assert_eq!(sel(&s), 1.0);
    }

    #[test]
    fn kept_bytes_counts_only_kept_blocks() {
        let col: Vec<i64> = (0..40).collect();
        let (_, footer) = RosWriter::with_block_rows(10).encode(&[ints(&col)]).unwrap();
        let all = kept_bytes(&footer, &[true; 4], &[0]);
        let half = kept_bytes(&footer, &[true, false, true, false], &[0]);
        assert!(all > 0 && half < all);
    }
}
