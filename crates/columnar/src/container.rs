//! ROS container format (paper §2.3).
//!
//! One immutable object per container:
//!
//! ```text
//! [col 0: block, block, …][col 1: …] … [footer][footer_len u32][crc u64][magic u32]
//! ```
//!
//! The footer is the *position index*: per column, per block — byte
//! offset, length, row count, and min/max values used by the engine for
//! block pruning (§2.1's "tracking minimum and maximum values of
//! columns in each storage"). Column data is independently retrievable
//! (true column store) via ranged reads, and trailer-last layout means a
//! reader that knows the object size (the catalog records it) opens a
//! container of any width with one read of the object's tail.

use bytes::Bytes;
use eon_types::{EonError, Result, Value};

use crate::batch::Column;
use crate::encoding::{block_stats, decode_column_view, encode_block, EncodedBlock, Encoding};
use crate::format::{checksum, Reader, Writer};
use crate::pruning::{ColumnStats, Predicate};

const MAGIC: u32 = 0x524f_5331; // "ROS1"
const TRAILER_LEN: u64 = 4 + 8 + 4;
/// How much of the object's tail an open fetches in its one read. A
/// 16-column, 50-block footer is about 12 KiB; a longer footer costs
/// one follow-up read.
pub const TAIL_READ: u64 = 16 * 1024;

/// Rows per encoded block. Small enough that min/max pruning has
/// resolution, large enough to amortize per-block headers.
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

/// Metadata for one encoded block of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Byte offset of the block within the container object.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Number of rows in the block.
    pub rows: u64,
    /// Minimum non-null value (`Null` iff the block is all null).
    pub min: Value,
    /// Maximum non-null value (`Null` iff the block is all null).
    pub max: Value,
    /// Whether the block contains any nulls.
    pub has_null: bool,
}

/// Metadata for one column of a container.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnMeta {
    pub blocks: Vec<BlockMeta>,
}

impl ColumnMeta {
    /// Column-level min over block minimums (None if all-null).
    pub fn min(&self) -> Option<&Value> {
        self.blocks
            .iter()
            .map(|b| &b.min)
            .filter(|v| !v.is_null())
            .min()
    }

    pub fn max(&self) -> Option<&Value> {
        self.blocks
            .iter()
            .map(|b| &b.max)
            .filter(|v| !v.is_null())
            .max()
    }
}

/// The parsed footer of a ROS container.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RosFooter {
    pub total_rows: u64,
    pub columns: Vec<ColumnMeta>,
}

impl RosFooter {
    /// Block-level pruning on the footer's min/max statistics: `false`
    /// for each block `pred` cannot match. All columns share block
    /// boundaries, so one mask covers the container.
    pub fn keep_blocks(&self, pred: &Predicate) -> Vec<bool> {
        let nblocks = self.columns.first().map_or(0, |col| col.blocks.len());
        (0..nblocks)
            .map(|b| {
                pred.could_match(&|col: usize| {
                    let meta = self.columns.get(col)?.blocks.get(b)?;
                    Some(ColumnStats { min: &meta.min, max: &meta.max, has_null: meta.has_null })
                })
            })
            .collect()
    }
}

/// Encodes column-major data into the container format.
pub struct RosWriter {
    block_rows: usize,
    force: Option<Encoding>,
}

impl Default for RosWriter {
    fn default() -> Self {
        RosWriter {
            block_rows: DEFAULT_BLOCK_ROWS,
            force: None,
        }
    }
}

impl RosWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_block_rows(block_rows: usize) -> Self {
        assert!(block_rows > 0);
        RosWriter {
            block_rows,
            ..Self::default()
        }
    }

    /// Force every block onto one encoding instead of the per-block
    /// heuristic (A/B testing and encoding-equivalence tests). Blocks
    /// the encoding cannot represent (e.g. Delta over a mixed-type
    /// block) silently fall back to the heuristic choice, so any data
    /// remains writable under any forced encoding.
    pub fn force_encoding(mut self, force: Option<Encoding>) -> Self {
        self.force = force;
        self
    }

    /// Encode typed `columns` (equal lengths, already sorted by the
    /// projection sort order) into one container object, each block
    /// through [`encode_block`] and [`block_stats`].
    pub fn encode(&self, columns: &[Column]) -> Result<(Bytes, RosFooter)> {
        let total_rows = columns.first().map_or(0, Column::len) as u64;
        for (i, c) in columns.iter().enumerate() {
            if c.len() as u64 != total_rows {
                return Err(EonError::Internal(format!(
                    "column {i} has {} rows, expected {total_rows}",
                    c.len()
                )));
            }
        }

        let mut w = Writer::with_capacity(1024);
        let mut footer = RosFooter {
            total_rows,
            columns: Vec::with_capacity(columns.len()),
        };

        for col in columns {
            let mut meta = ColumnMeta::default();
            for lo in (0..col.len()).step_by(self.block_rows) {
                let rows = lo..(lo + self.block_rows).min(col.len());
                let offset = w.len() as u64;
                encode_block(col, rows.clone(), self.force, &mut w);
                let (min, max, has_null) = block_stats(col, rows.clone());
                meta.blocks.push(BlockMeta {
                    offset,
                    len: w.len() as u64 - offset,
                    rows: rows.len() as u64,
                    min,
                    max,
                    has_null,
                });
            }
            // Zero-row container still records the column.
            footer.columns.push(meta);
        }

        // Footer.
        let footer_start = w.len();
        w.put_varint(footer.total_rows);
        w.put_varint(footer.columns.len() as u64);
        for col in &footer.columns {
            w.put_varint(col.blocks.len() as u64);
            for b in &col.blocks {
                w.put_u64(b.offset);
                w.put_varint(b.len);
                w.put_varint(b.rows);
                w.put_value(&b.min);
                w.put_value(&b.max);
                w.put_u8(b.has_null as u8);
            }
        }
        let footer_len = (w.len() - footer_start) as u32;
        let crc = checksum(&w.as_slice()[footer_start..]);
        w.put_u32(footer_len);
        w.put_u64(crc);
        w.put_u32(MAGIC);
        Ok((w.into_bytes(), footer))
    }
}

fn parse_footer(buf: &[u8]) -> Result<RosFooter> {
    let mut r = Reader::new(buf);
    let total_rows = r.get_varint()?;
    let ncols = r.get_varint()? as usize;
    if ncols > 100_000 {
        return Err(EonError::Corrupt("absurd column count".into()));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let nblocks = r.get_varint()? as usize;
        // Each block entry costs ≥ 13 bytes; a corrupt count past the
        // buffer must not become a huge upfront allocation.
        if nblocks > r.remaining() {
            return Err(EonError::Corrupt("block count exceeds footer".into()));
        }
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(BlockMeta {
                offset: r.get_u64()?,
                len: r.get_varint()?,
                rows: r.get_varint()?,
                min: r.get_value()?,
                max: r.get_value()?,
                has_null: r.get_u8()? != 0,
            });
        }
        columns.push(ColumnMeta { blocks });
    }
    Ok(RosFooter {
        total_rows,
        columns,
    })
}

/// Read access to one container object through any UDFS filesystem.
///
/// The reader keeps no data, only the footer; every `read_*` call goes
/// back to the filesystem, so placing the depot (`eon-cache`) in front
/// is what makes repeated scans fast (§5.2).
pub struct RosReader {
    key: String,
    footer: RosFooter,
    index_bytes: u64,
}

impl RosReader {
    /// Open a container whose size the caller does not know: one
    /// `size` request, then [`open_sized`](Self::open_sized).
    pub fn open(fs: &dyn eon_storage::FileSystem, key: &str) -> Result<Self> {
        Self::open_sized(fs, key, fs.size(key)?)
    }

    /// Open a container of exactly `size` bytes (the catalog's
    /// `ContainerMeta::size_bytes`) with one read of its tail, which
    /// holds the trailer and — unless the footer is longer than
    /// [`TAIL_READ`] — the whole footer.
    pub fn open_sized(fs: &dyn eon_storage::FileSystem, key: &str, size: u64) -> Result<Self> {
        if size < TRAILER_LEN {
            return Err(EonError::Corrupt(format!("{key}: too small ({size}B)")));
        }
        let tail_len = size.min(TAIL_READ);
        let tail = fs.read_range(key, size - tail_len, tail_len)?;
        if (tail.len() as u64) < tail_len {
            return Err(EonError::Corrupt(format!("{key}: short tail read")));
        }
        let mut tr = Reader::new(&tail[(tail_len - TRAILER_LEN) as usize..]);
        let footer_len = tr.get_u32()? as u64;
        let crc = tr.get_u64()?;
        let magic = tr.get_u32()?;
        if magic != MAGIC {
            return Err(EonError::Corrupt(format!("{key}: bad magic {magic:#x}")));
        }
        let index_bytes = footer_len + TRAILER_LEN;
        if index_bytes > size {
            return Err(EonError::Corrupt(format!("{key}: bad footer length")));
        }
        let footer_buf = if index_bytes <= tail_len {
            tail.slice((tail_len - index_bytes) as usize..(tail_len - TRAILER_LEN) as usize)
        } else {
            fs.read_range(key, size - index_bytes, footer_len)?
        };
        if checksum(&footer_buf) != crc {
            return Err(EonError::Corrupt(format!("{key}: footer checksum mismatch")));
        }
        let footer = parse_footer(&footer_buf)?;
        // Every block lies in the data region: the range planner and the
        // part splitter below it do arithmetic on these extents.
        let data_end = size - index_bytes;
        let mut blocks = footer.columns.iter().flat_map(|c| &c.blocks);
        if let Some(b) = blocks.find(|b| b.offset.checked_add(b.len).is_none_or(|end| end > data_end)) {
            return Err(EonError::Corrupt(format!(
                "{key}: block at {} (+{}) outside the {data_end}-byte data region",
                b.offset, b.len
            )));
        }
        Ok(RosReader {
            key: key.to_owned(),
            footer,
            index_bytes,
        })
    }

    pub fn key(&self) -> &str {
        &self.key
    }

    pub fn footer(&self) -> &RosFooter {
        &self.footer
    }

    /// Bytes of the object that are position index (footer + trailer),
    /// not column data.
    pub fn index_bytes(&self) -> u64 {
        self.index_bytes
    }

    pub fn total_rows(&self) -> u64 {
        self.footer.total_rows
    }

    pub fn column_count(&self) -> usize {
        self.footer.columns.len()
    }

    /// Read one whole column, decoded: its blocks' rows concatenated.
    pub fn read_column(&self, fs: &dyn eon_storage::FileSystem, col: usize) -> Result<Column> {
        let keep = vec![true; self.footer.columns.first().map_or(0, |c| c.blocks.len())];
        let mut cols = self.read_columns_encoded(fs, &[col], &keep, 0, &mut ReadStats::default())?;
        let blocks = cols.pop().expect("one column requested");
        Ok(Column::concat(blocks.into_iter().flatten().map(|view| view.decode()).collect()))
    }

    /// The container's one range planner: the kept blocks of every
    /// column in `cols` (distinct indices; all columns share block
    /// boundaries, hence one `keep` mask), sorted by file offset and
    /// coalesced into runs — blocks that are adjacent or separated by at
    /// most `gap` dead bytes, whether a pruned block or an unrequested
    /// column, share a run — and every run fetched in one
    /// [`read_ranges`](eon_storage::FileSystem::read_ranges) call, one
    /// wave. Returns each kept block's raw bytes, one list per entry of
    /// `cols`, `None` in the slots `keep` skips.
    fn fetch_blocks(
        &self,
        fs: &dyn eon_storage::FileSystem,
        cols: &[usize],
        keep: &[bool],
        gap: u64,
        stats: &mut ReadStats,
    ) -> Result<Vec<Vec<Option<Bytes>>>> {
        let mut out = Vec::with_capacity(cols.len());
        let mut wanted: Vec<KeptBlock> = Vec::new();
        for (slot, &col) in cols.iter().enumerate() {
            let meta = self
                .footer
                .columns
                .get(col)
                .ok_or_else(|| EonError::Query(format!("column {col} out of range")))?;
            if keep.len() != meta.blocks.len() {
                return Err(EonError::Internal("keep mask length mismatch".into()));
            }
            out.push(vec![None; meta.blocks.len()]);
            let kept = meta.blocks.iter().enumerate().filter(|(i, _)| keep[*i]);
            wanted.extend(kept.map(|(i, b)| (slot, i, b)));
        }
        wanted.sort_by_key(|(_, _, b)| b.offset);

        // Each run is the span [start, end) of one ranged read and the
        // blocks it carries.
        let mut runs: Vec<(u64, u64, &[KeptBlock])> = Vec::new();
        let mut rest = wanted.as_slice();
        while let Some((_, _, first)) = rest.first() {
            let (start, mut end) = (first.offset, first.offset + first.len);
            let mut n = 1;
            while let Some((_, _, b)) = rest.get(n) {
                if b.offset.saturating_sub(end) > gap {
                    break;
                }
                end = end.max(b.offset + b.len);
                n += 1;
            }
            let (run, tail) = rest.split_at(n);
            rest = tail;
            runs.push((start, end, run));
        }

        let ranges: Vec<(u64, u64)> = runs.iter().map(|&(start, end, _)| (start, end - start)).collect();
        let fetched = fs.read_ranges(&self.key, &ranges).into_iter().collect::<Result<Vec<_>>>()?;
        for (&(start, end, run), raw) in runs.iter().zip(fetched) {
            if (raw.len() as u64) < end - start {
                return Err(EonError::Corrupt(format!(
                    "{}: short ranged read ({} < {})",
                    self.key,
                    raw.len(),
                    end - start
                )));
            }
            let kept: u64 = run.iter().map(|(_, _, b)| b.len).sum();
            let gap_bytes = (end - start).saturating_sub(kept);
            stats.requests += 1;
            stats.bytes_read += end - start;
            stats.requests_saved += run.len() as u64 - 1;
            stats.gap_bytes += gap_bytes;
            stats.waste_bytes += gap_bytes;
            for &(slot, i, b) in run {
                let lo = (b.offset - start) as usize;
                out[slot][i] = Some(raw.slice(lo..lo + b.len as usize));
            }
        }
        Ok(out)
    }

    /// Decode block `block` of column `col` from its raw bytes into an
    /// [`EncodedBlock`] view, checking its row count against the footer.
    fn decode_block(
        &self,
        raw: &[u8],
        col: usize,
        block: usize,
        stats: &mut ReadStats,
    ) -> Result<EncodedBlock> {
        let view = decode_column_view(&mut Reader::new(raw))?;
        let rows = self.footer.columns[col].blocks[block].rows;
        if view.rows() as u64 != rows {
            return Err(EonError::Corrupt(format!(
                "{}: block decoded {} rows, footer says {rows}",
                self.key,
                view.rows(),
            )));
        }
        stats.encoded_blocks += view.is_encoded() as u64;
        Ok(view)
    }

    /// The kept blocks of every column in `cols` through the range
    /// planner, decoded as [`EncodedBlock`] views: RLE runs and
    /// dictionary codes are *not* expanded to rows. Returns one block
    /// list per entry of `cols`, `None` in the slots `keep` skips.
    pub fn read_columns_encoded(
        &self,
        fs: &dyn eon_storage::FileSystem,
        cols: &[usize],
        keep: &[bool],
        gap: u64,
        stats: &mut ReadStats,
    ) -> Result<Vec<Vec<Option<EncodedBlock>>>> {
        let raw = self.fetch_blocks(fs, cols, keep, gap, stats)?;
        let mut out = Vec::with_capacity(cols.len());
        for (&col, blocks) in cols.iter().zip(&raw) {
            let decoded = blocks.iter().enumerate().map(|(b, raw)| {
                raw.as_ref().map(|raw| self.decode_block(raw, col, b, stats)).transpose()
            });
            out.push(decoded.collect::<Result<Vec<_>>>()?);
        }
        Ok(out)
    }

    /// The block-filter kernel every scan runs: fetch the kept blocks of
    /// every column it reads, predicate and output alike, in one wave of
    /// the range planner; evaluate the predicate on the predicate
    /// columns' encoded views — once per RLE run / dictionary entry —
    /// AND in the row mask, and materialize the columns the caller keeps
    /// only for blocks with a surviving row, column-major. A predicate
    /// column the caller does not keep is tested and goes no further.
    /// `Predicate::True` is the all-true selection; blocks come back in
    /// block order, rows in position order.
    pub fn filter_blocks(
        &self,
        fs: &dyn eon_storage::FileSystem,
        f: &BlockFilter<'_>,
        keep: &[bool],
        gap: u64,
        stats: &mut ReadStats,
    ) -> Result<Vec<BlockRows>> {
        let block_meta = self.footer.columns.first().map_or(&[][..], |c| &c.blocks);
        if keep.len() != block_meta.len() {
            return Err(EonError::Internal("keep mask length mismatch".into()));
        }
        let touched = f.pred.columns();
        let consts = f.consts.iter().map(|(c, _)| c);
        if let Some(c) = touched.iter().chain(f.read_cols).chain(consts).find(|&&c| c >= f.width) {
            return Err(EonError::Query(format!("column {c} outside row width {}", f.width)));
        }
        // The slot of `read_cols` each kept column is read into.
        let kept_slots = (f.keep_cols.iter())
            .map(|c| f.read_cols.iter().position(|r| r == c))
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| EonError::Internal("a kept column is not read".into()))?;
        let raw = self.fetch_blocks(fs, f.read_cols, keep, gap, stats)?;
        // Slots of `read_cols` the predicate reads.
        let pslots: Vec<usize> =
            (0..f.read_cols.len()).filter(|&s| touched.binary_search(&f.read_cols[s]).is_ok()).collect();

        // What the predicate sees of a column it touches but no read
        // fetched: the constant for a column the container lacks, Null
        // for one nobody reads.
        let unfetched: Vec<(usize, &Value)> = touched
            .iter()
            .filter(|c| !f.read_cols.contains(c))
            .map(|&c| (c, f.consts.iter().find(|(k, _)| *k == c).map_or(&Value::Null, |(_, v)| v)))
            .collect();
        let untouched = EncodedBlock::constant(Value::Null.as_ref(), 0);
        let mut out = Vec::new();
        let mut start = 0usize;
        for (b, meta) in block_meta.iter().enumerate() {
            let rows = meta.rows as usize;
            let first = start;
            start += rows;
            if !keep[b] {
                continue;
            }
            let block = |slot: usize| raw[slot][b].as_deref().expect("kept block");
            let pviews = pslots
                .iter()
                .map(|&s| self.decode_block(block(s), f.read_cols[s], b, stats))
                .collect::<Result<Vec<_>>>()?;
            let consts: Vec<EncodedBlock> =
                unfetched.iter().map(|(_, v)| EncodedBlock::constant(v.as_ref(), rows)).collect();
            let mut view = vec![&untouched; f.width];
            for ((c, _), block) in unfetched.iter().zip(&consts) {
                view[*c] = block;
            }
            for (&s, fetched) in pslots.iter().zip(&pviews) {
                stats.rows_short_circuited += fetched.short_circuit_rows();
                view[f.read_cols[s]] = fetched;
            }
            let mut sel = f.pred.eval_block(&view, rows);
            if let Some(mask) = f.row_mask {
                for (s, m) in sel.iter_mut().zip(&mask[first..first + rows]) {
                    *s &= m;
                }
            }
            let surv: Vec<usize> = (0..rows).filter(|&r| sel[r]).collect();
            if surv.is_empty() {
                // Every byte fetched for this block contributed no row.
                stats.blocks_late_skipped += 1;
                stats.waste_bytes +=
                    f.read_cols.iter().map(|&c| self.footer.columns[c].blocks[b].len).sum::<u64>();
                continue;
            }
            // Each view is consumed: a block whose every row survives
            // hands over its decoded column instead of a copy.
            let mut pviews: Vec<Option<EncodedBlock>> = pviews.into_iter().map(Some).collect();
            let mut cols = Vec::with_capacity(kept_slots.len());
            for &s in &kept_slots {
                let view = match pslots.iter().position(|&p| p == s) {
                    Some(k) => pviews[k].take().ok_or_else(|| {
                        EonError::Internal("a column is kept twice".into())
                    })?,
                    None => self.decode_block(block(s), f.read_cols[s], b, stats)?,
                };
                cols.push(view.select(&surv));
            }
            out.push(BlockRows { block: b, first: first as u64, rows: surv, cols });
        }
        Ok(out)
    }
}

/// (slot in the requested columns, block index, block) of one block the
/// range planner fetches.
type KeptBlock<'a> = (usize, usize, &'a BlockMeta);

/// What [`RosReader::filter_blocks`] keeps of a container: which rows
/// (predicate, optional position mask) and which columns.
pub struct BlockFilter<'a> {
    /// Row width the predicate's column indices are resolved against.
    pub width: usize,
    pub pred: &'a Predicate,
    /// Columns to read, all physically present in the container. A
    /// predicate column outside this list evaluates as `Null`.
    pub read_cols: &'a [usize],
    /// The columns of `read_cols` the caller keeps, each once:
    /// [`BlockRows::cols`] holds these, in this order. A column read
    /// only for the predicate is left out, so it is tested on its
    /// encoded view and never materialized.
    pub keep_cols: &'a [usize],
    /// Columns the container lacks (added to the table after it was
    /// written, §6.3) with the value every row carries; the predicate
    /// sees them as constants.
    pub consts: &'a [(usize, Value)],
    /// Per-position keep mask over the whole container — the delete
    /// vector — ANDed into each block's selection.
    pub row_mask: Option<&'a [bool]>,
}

/// The surviving rows of one block, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRows {
    /// Block index within the container.
    pub block: usize,
    /// Container position of the block's first row: a survivor's
    /// position is `first + rows[k]`.
    pub first: u64,
    /// Surviving in-block row indices, ascending.
    pub rows: Vec<usize>,
    /// One column per kept column ([`BlockFilter::keep_cols`]), each
    /// parallel to `rows`.
    pub cols: Vec<Column>,
}

/// Accounting for one container's reads: what the range planner
/// fetched and what the filter kernel got out of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Ranged GETs issued.
    pub requests: u64,
    /// Requests avoided versus one-GET-per-surviving-block.
    pub requests_saved: u64,
    /// Total bytes fetched (including gap bytes).
    pub bytes_read: u64,
    /// Bytes fetched that belong to skipped blocks inside a coalesced
    /// run (the price paid for fewer requests).
    pub gap_bytes: u64,
    /// Bytes fetched and then discarded without contributing a row:
    /// coalescing gap bytes, plus every column's bytes of blocks whose
    /// every row was filtered out after the fetch.
    pub waste_bytes: u64,
    /// Blocks served in compressed form (RLE / dictionary views).
    pub encoded_blocks: u64,
    /// Predicate comparisons avoided by testing runs and dictionary
    /// entries instead of rows.
    pub rows_short_circuited: u64,
    /// Blocks that passed min/max pruning but kept no row, so their
    /// non-predicate columns were fetched but never decoded.
    pub blocks_late_skipped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_storage::{FileSystem, MemFs};

    fn sample_columns() -> Vec<Vec<Value>> {
        let n = 10_000i64;
        vec![
            (0..n).map(Value::Int).collect(),
            (0..n).map(|i| Value::Str(format!("cust{}", i % 13))).collect(),
            (0..n).map(|i| Value::Float(i as f64 * 0.5)).collect(),
        ]
    }

    /// `cols` as typed columns, as the writer takes them.
    fn typed(cols: &[Vec<Value>]) -> Vec<Column> {
        cols.iter().map(|c| Column::from_values(c.iter().map(Value::as_ref))).collect()
    }

    fn write_sample(fs: &MemFs, key: &str) -> RosFooter {
        let (bytes, footer) = RosWriter::new().encode(&typed(&sample_columns())).unwrap();
        fs.write(key, bytes).unwrap();
        footer
    }

    #[test]
    fn roundtrip_all_columns() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        assert_eq!(r.total_rows(), 10_000);
        assert_eq!(r.column_count(), 3);
        let cols = sample_columns();
        for (i, expect) in cols.iter().enumerate() {
            assert_eq!(&r.read_column(&fs, i).unwrap().to_values(), expect);
        }
    }

    #[test]
    fn open_is_one_tail_read_or_two_for_a_long_footer() {
        let fs = MemFs::new();
        let footer = write_sample(&fs, "short");
        let size = fs.size("short").unwrap();
        let before = fs.stats();
        let r = RosReader::open_sized(&fs, "short", size).unwrap();
        let after = fs.stats();
        assert_eq!((after.gets - before.gets, after.lists - before.lists), (1, 0));
        assert_eq!(after.bytes_read - before.bytes_read, TAIL_READ.min(size));
        assert_eq!(r.footer(), &footer);
        // `open` is the same plus one size request.
        RosReader::open(&fs, "short").unwrap();
        assert_eq!(fs.stats().lists - after.lists, 1);

        // 2 000 ten-row blocks: the footer alone outgrows the tail.
        let cols: Vec<Vec<Value>> = vec![(0..20_000i64).map(Value::Int).collect()];
        let (bytes, footer) = RosWriter::with_block_rows(10).encode(&typed(&cols)).unwrap();
        let size = bytes.len() as u64;
        fs.write("long", bytes).unwrap();
        let before = fs.stats();
        let r = RosReader::open_sized(&fs, "long", size).unwrap();
        assert!(r.index_bytes() > TAIL_READ);
        assert_eq!(fs.stats().gets - before.gets, 2);
        assert_eq!(r.footer(), &footer);
        assert_eq!(r.read_column(&fs, 0).unwrap().to_values(), cols[0]);
        // A wrong size reads the wrong tail: typed corruption, no panic.
        assert!(matches!(
            RosReader::open_sized(&fs, "long", size - 1),
            Err(EonError::Corrupt(_))
        ));
    }

    #[test]
    fn footer_matches_reader() {
        let fs = MemFs::new();
        let footer = write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        assert_eq!(r.footer(), &footer);
    }

    #[test]
    fn block_minmax_enable_pruning() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let col0 = &r.footer().columns[0];
        // 10k rows / 4096 per block = 3 blocks
        assert_eq!(col0.blocks.len(), 3);
        assert_eq!(col0.blocks[0].min, Value::Int(0));
        assert_eq!(col0.blocks[0].max, Value::Int(4095));
        assert_eq!(col0.blocks[2].max, Value::Int(9999));
        assert_eq!(col0.min(), Some(&Value::Int(0)));
        assert_eq!(col0.max(), Some(&Value::Int(9999)));
        let footer = r.footer();
        let ge = |v: i64| Predicate::cmp(0, crate::pruning::CmpOp::Ge, v);
        assert_eq!(footer.keep_blocks(&ge(5000)), [false, true, true]);
        assert_eq!(footer.keep_blocks(&ge(10_000)), [false, false, false]);
        assert_eq!(footer.keep_blocks(&Predicate::True), [true, true, true]);
        // A column the footer lacks has no stats, so it cannot prune.
        assert_eq!(footer.keep_blocks(&Predicate::eq(7, 1i64)), [true, true, true]);
    }

    #[test]
    fn pruned_read_skips_blocks() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let blocks = planned(&r, &fs, &[false, true, false], 0, &mut ReadStats::default());
        assert!(blocks[0].is_none());
        assert!(blocks[2].is_none());
        let mid = blocks[1].as_ref().unwrap();
        assert_eq!(mid[0], Value::Int(4096));
        assert_eq!(mid.len(), 4096);
    }

    #[test]
    fn empty_container() {
        let fs = MemFs::new();
        let (bytes, _) = RosWriter::new()
            .encode(&[Column::nulls(0), Column::nulls(0)])
            .unwrap();
        fs.write("empty", bytes).unwrap();
        let r = RosReader::open(&fs, "empty").unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.column_count(), 2);
        assert!(r.read_column(&fs, 0).unwrap().to_values().is_empty());
    }

    #[test]
    fn ragged_columns_rejected() {
        let cols = vec![vec![Value::Int(1)], vec![]];
        assert!(RosWriter::new().encode(&typed(&cols)).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let mut data = fs.read("c1").unwrap().to_vec();
        let n = data.len();
        data[n - 1] ^= 0xff;
        fs.write("c1", Bytes::from(data)).unwrap();
        assert!(matches!(
            RosReader::open(&fs, "c1"),
            Err(EonError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_footer_checksum_rejected() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let mut data = fs.read("c1").unwrap().to_vec();
        let n = data.len();
        // Flip a byte inside the footer (just before the trailer).
        data[n - 20] ^= 0x01;
        fs.write("c1", Bytes::from(data)).unwrap();
        assert!(RosReader::open(&fs, "c1").is_err());
    }

    /// A footer whose checksum matches but whose block lies past the
    /// data region is `Corrupt` at open, never an overflow or an
    /// out-of-range slice when the block is read.
    #[test]
    fn forged_block_extent_rejected_at_open() {
        let fs = MemFs::new();
        let (bytes, footer) = RosWriter::new().encode(&typed(&[vec![Value::Int(1), Value::Int(2)]])).unwrap();
        assert_eq!(footer.columns[0].blocks.len(), 1);
        let mut data = bytes.to_vec();
        let n = data.len();
        let trailer = n - TRAILER_LEN as usize;
        let footer_len = u32::from_le_bytes(data[trailer..trailer + 4].try_into().unwrap()) as usize;
        let start = trailer - footer_len;
        // total_rows 2, one column, one block: each a one-byte varint,
        // then the block's u64 offset.
        assert_eq!(&data[start..start + 3], &[2, 1, 1]);
        data[start + 3..start + 11].copy_from_slice(&(u64::MAX - 5).to_le_bytes());
        let crc = checksum(&data[start..trailer]);
        data[trailer + 4..trailer + 12].copy_from_slice(&crc.to_le_bytes());
        fs.write("forged", Bytes::from(data)).unwrap();
        let opened = RosReader::open(&fs, "forged");
        assert!(matches!(opened, Err(EonError::Corrupt(_))), "{:?}", opened.map(|r| r.footer().clone()));
    }

    #[test]
    fn nulls_tracked_in_block_meta() {
        let cols = vec![vec![Value::Null, Value::Int(5), Value::Null]];
        let (bytes, footer) = RosWriter::new().encode(&typed(&cols)).unwrap();
        let b = &footer.columns[0].blocks[0];
        assert!(b.has_null);
        assert_eq!(b.min, Value::Int(5));
        assert_eq!(b.max, Value::Int(5));
        let fs = MemFs::new();
        fs.write("n", bytes).unwrap();
        let r = RosReader::open(&fs, "n").unwrap();
        assert_eq!(r.read_column(&fs, 0).unwrap().to_values(), cols[0]);
    }

    #[test]
    fn all_null_block_meta() {
        let cols = vec![vec![Value::Null, Value::Null]];
        let (_, footer) = RosWriter::new().encode(&typed(&cols)).unwrap();
        let b = &footer.columns[0].blocks[0];
        assert!(b.min.is_null() && b.max.is_null() && b.has_null);
    }

    /// One column's kept blocks through the range planner, decoded.
    fn planned(
        r: &RosReader,
        fs: &MemFs,
        keep: &[bool],
        gap: u64,
        stats: &mut ReadStats,
    ) -> Vec<Option<Vec<Value>>> {
        let mut cols = r.read_columns_encoded(fs, &[0], keep, gap, stats).unwrap();
        let blocks = cols.pop().unwrap();
        blocks.into_iter().map(|b| b.map(|view| view.decode().to_values())).collect()
    }

    #[test]
    fn adjacent_blocks_share_one_read() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let gets = fs.stats().gets;
        let mut stats = ReadStats::default();
        let blocks = planned(&r, &fs, &[true, true, true], 0, &mut stats);
        let rows: Vec<Value> = blocks.into_iter().flatten().flatten().collect();
        assert_eq!(rows, sample_columns()[0]);
        // Three adjacent blocks → one ranged read.
        assert_eq!(fs.stats().gets - gets, 1);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.requests_saved, 2);
        assert_eq!(stats.gap_bytes, 0);
    }

    #[test]
    fn coalescing_bridges_small_gaps_only() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let keep = [true, false, true]; // a pruned block in the middle
        let gap = r.footer().columns[0].blocks[1].len;

        // Gap tolerance below the skipped block: two separate reads,
        // and the skipped slot stays None.
        let mut tight = ReadStats::default();
        let split = planned(&r, &fs, &keep, gap - 1, &mut tight);
        assert_eq!(tight.requests, 2);
        assert_eq!(tight.gap_bytes, 0);
        assert!(split[1].is_none());

        // Gap tolerance covering it: one read, gap bytes accounted.
        let mut wide = ReadStats::default();
        let merged = planned(&r, &fs, &keep, gap, &mut wide);
        assert_eq!(wide.requests, 1);
        assert_eq!(wide.requests_saved, 1);
        assert_eq!(wide.gap_bytes, gap);
        assert_eq!(merged, split);
        let whole = r.read_column(&fs, 0).unwrap().to_values();
        let block = |b: usize| {
            let end = ((b + 1) * DEFAULT_BLOCK_ROWS).min(whole.len());
            Some(whole[b * DEFAULT_BLOCK_ROWS..end].to_vec())
        };
        assert_eq!(merged, vec![block(0), None, block(2)]);
    }

    #[test]
    fn reading_a_column_past_the_last_is_a_typed_error() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let past = r.column_count();
        assert!(matches!(r.read_column(&fs, past), Err(EonError::Query(_))));
    }

    #[test]
    fn forced_encoding_roundtrips_with_fallback() {
        let cols = sample_columns();
        let plain = {
            let fs = MemFs::new();
            write_sample(&fs, "auto");
            let r = RosReader::open(&fs, "auto").unwrap();
            (0..3)
                .map(|c| r.read_column(&fs, c).unwrap().to_values())
                .collect::<Vec<_>>()
        };
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
            let fs = MemFs::new();
            let (bytes, _) = RosWriter::new()
                .force_encoding(Some(enc))
                .encode(&typed(&cols))
                .unwrap();
            fs.write("f", bytes).unwrap();
            let r = RosReader::open(&fs, "f").unwrap();
            for (c, expect) in plain.iter().enumerate() {
                // Delta can't hold the Str/Float columns — the writer
                // falls back, and the data still round-trips.
                assert_eq!(&r.read_column(&fs, c).unwrap().to_values(), expect, "{enc:?} col {c}");
            }
        }
    }

    #[test]
    fn encoded_reads_keep_compressed_shape() {
        let fs = MemFs::new();
        let cols = sample_columns();
        let (bytes, _) = RosWriter::new()
            .force_encoding(Some(Encoding::Dict))
            .encode(&typed(&cols))
            .unwrap();
        fs.write("d", bytes).unwrap();
        let r = RosReader::open(&fs, "d").unwrap();
        let mut stats = ReadStats::default();
        let keep = vec![true; r.footer().columns[1].blocks.len()];
        let blocks = r.read_columns_encoded(&fs, &[1], &keep, 0, &mut stats).unwrap().remove(0);
        assert_eq!(stats.encoded_blocks, blocks.len() as u64);
        for b in blocks.iter().flatten() {
            assert!(matches!(b, EncodedBlock::Dict { dict, .. } if dict.len() == 13));
            assert!(b.is_encoded());
        }
        let decoded: Vec<Value> =
            blocks.into_iter().flatten().flat_map(|b| b.decode().to_values()).collect();
        assert_eq!(decoded, cols[1]);
    }

    proptest::proptest! {
        /// The kernel against the naive scan: decode every column, zip
        /// to rows, `eval_row`, apply the keep and row masks. Whatever
        /// the stored encoding, predicate shape, column subset and gap,
        /// `filter_blocks` returns those rows in block/row order, and
        /// its `ReadStats` describe exactly the one wave it fetched.
        #[test]
        fn filter_blocks_matches_naive_scan(
            seed in 0u64..1_000_000,
            n in 1usize..200,
            force_idx in 0usize..5,
            pred_idx in 0usize..9,
            col_bits in 0usize..16,
            keep_bits in proptest::prelude::any::<u16>(),
            masked in proptest::prelude::any::<bool>(),
            gap_idx in 0usize..3,
        ) {
            use crate::pruning::CmpOp;
            use proptest::prelude::*;
            use rand::{Rng, SeedableRng, StdRng};

            const BLOCK: usize = 16;
            const WIDTH: usize = 6; // 4 stored columns, 4 and 5 absent
            let mut rng = StdRng::seed_from_u64(seed);
            let stored: Vec<Vec<Value>> = vec![
                (0..n).map(|i| Value::Int(i as i64)).collect(),
                (0..n).map(|i| Value::Int((i / 7 % 3) as i64)).collect(),
                (0..n).map(|_| Value::Str(format!("t{}", rng.gen_range(0..3u32)))).collect(),
                (0..n)
                    .map(|_| match rng.gen_range(0..5i64) {
                        0 => Value::Null,
                        v => Value::Int(v * 11),
                    })
                    .collect(),
            ];
            let force = [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta]
                .get(force_idx)
                .copied(); // index 4: the writer's own heuristic
            let (bytes, footer) =
                RosWriter::with_block_rows(BLOCK).force_encoding(force).encode(&typed(&stored)).unwrap();
            let fs = MemFs::new();
            fs.write("c", bytes).unwrap();
            let reader = RosReader::open(&fs, "c").unwrap();

            let consts = [(4usize, Value::Int(rng.gen_range(0..2i64)))];
            let pred = match pred_idx {
                0 => Predicate::True,
                1 => Predicate::cmp(0, CmpOp::Ge, rng.gen_range(0..n as i64)),
                2 => Predicate::cmp(1, CmpOp::Le, rng.gen_range(0..3i64)),
                3 => Predicate::eq(2, "t1"),
                4 => Predicate::IsNull(3),
                5 => Predicate::Or(vec![Predicate::eq(1, 2i64), Predicate::eq(2, "t0")]),
                // A column the container lacks, fed by a constant.
                6 => Predicate::And(vec![
                    Predicate::cmp(0, CmpOp::Lt, (n / 2) as i64),
                    Predicate::eq(4, 1i64),
                ]),
                7 => Predicate::cmp(3, CmpOp::Gt, 20i64),
                // Neither stored nor a constant: Null on every row.
                _ => Predicate::Or(vec![Predicate::IsNotNull(5), Predicate::eq(1, 0i64)]),
            };
            // Any subset of the stored columns, in either order, so
            // predicate columns fall outside `read_cols` too.
            let mut read_cols: Vec<usize> = (0..4).filter(|c| col_bits & (1 << c) != 0).collect();
            if seed % 2 == 1 {
                read_cols.reverse();
            }
            // Any subset of those kept, in any order: the others are
            // read for the predicate only.
            let mut keep_cols: Vec<usize> =
                read_cols.iter().copied().filter(|_| rng.gen_range(0..4u32) != 0).collect();
            for i in (1..keep_cols.len()).rev() {
                keep_cols.swap(i, rng.gen_range(0..=i));
            }
            let nblocks = n.div_ceil(BLOCK);
            let keep: Vec<bool> = (0..nblocks).map(|b| keep_bits & (1 << b) != 0).collect();
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4u32) != 0).collect();
            let row_mask = masked.then_some(mask.as_slice());
            let gap = [0, 64 << 10, 1 << 20][gap_idx];

            // The naive answer, from whole decoded columns.
            let decoded: Vec<Vec<Value>> =
                (0..4).map(|c| reader.read_column(&fs, c).unwrap().to_values()).collect();
            // (block, in-block rows, one value vector per kept column)
            let mut want: Vec<(usize, Vec<usize>, Vec<Vec<Value>>)> = Vec::new();
            for i in 0..n {
                let mut row = vec![Value::Null; WIDTH];
                for &c in &read_cols {
                    row[c] = decoded[c][i].clone();
                }
                row[consts[0].0] = consts[0].1.clone();
                if !keep[i / BLOCK] || !pred.eval_row(&row) || row_mask.is_some_and(|m| !m[i]) {
                    continue;
                }
                if want.last().map(|br| br.0) != Some(i / BLOCK) {
                    want.push((i / BLOCK, vec![], vec![vec![]; keep_cols.len()]));
                }
                let br = want.last_mut().unwrap();
                br.1.push(i % BLOCK);
                for (vals, &c) in br.2.iter_mut().zip(&keep_cols) {
                    vals.push(row[c].clone());
                }
            }

            let filter = BlockFilter {
                width: WIDTH,
                pred: &pred,
                read_cols: &read_cols,
                keep_cols: &keep_cols,
                consts: &consts,
                row_mask,
            };
            let mut stats = ReadStats::default();
            let gets = fs.stats().gets;
            let got: Vec<_> = reader
                .filter_blocks(&fs, &filter, &keep, gap, &mut stats)
                .unwrap()
                .into_iter()
                .map(|br| (br.block, br.rows, br.cols.iter().map(Column::to_values).collect::<Vec<_>>()))
                .collect();
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));

            // One wave: every column read is fetched for every kept
            // block, predicate or not, in one request per run — the
            // kept blocks in file order, a new run wherever more than
            // `gap` dead bytes separate neighbours.
            let mut spans: Vec<(u64, u64)> = read_cols
                .iter()
                .flat_map(|&c| footer.columns[c].blocks.iter().zip(&keep))
                .filter(|(_, &k)| k)
                .map(|(bm, _)| (bm.offset, bm.offset + bm.len))
                .collect();
            spans.sort();
            let runs = spans.windows(2).filter(|w| w[1].0 - w[0].1 > gap).count()
                + usize::from(!spans.is_empty());
            let kept_bytes: u64 = spans.iter().map(|(lo, hi)| hi - lo).sum();
            prop_assert_eq!(stats.requests, runs as u64);
            prop_assert_eq!(fs.stats().gets - gets, stats.requests);
            prop_assert_eq!(stats.requests + stats.requests_saved, spans.len() as u64);
            prop_assert_eq!(stats.bytes_read, kept_bytes + stats.gap_bytes);
            if gap == 0 {
                prop_assert_eq!(stats.gap_bytes, 0);
            }
            // A late-skipped block's bytes, every column's, are waste.
            let survived = |b: usize| want.iter().any(|br| br.0 == b);
            let late: Vec<usize> = (0..nblocks).filter(|&b| keep[b] && !survived(b)).collect();
            let block_bytes =
                |b: usize| read_cols.iter().map(|&c| footer.columns[c].blocks[b].len).sum::<u64>();
            let late_bytes: u64 = late.iter().map(|&b| block_bytes(b)).sum();
            prop_assert_eq!(stats.blocks_late_skipped, late.len() as u64);
            prop_assert_eq!(stats.waste_bytes, stats.gap_bytes + late_bytes);
        }
    }

    #[test]
    fn custom_block_size() {
        let cols: Vec<Vec<Value>> = vec![(0..100i64).map(Value::Int).collect()];
        let (bytes, footer) = RosWriter::with_block_rows(10).encode(&typed(&cols)).unwrap();
        assert_eq!(footer.columns[0].blocks.len(), 10);
        let fs = MemFs::new();
        fs.write("k", bytes).unwrap();
        let r = RosReader::open(&fs, "k").unwrap();
        assert_eq!(r.read_column(&fs, 0).unwrap().to_values(), cols[0]);
    }
}
