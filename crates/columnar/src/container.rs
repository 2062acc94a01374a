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

use crate::encoding::{
    decode_column_view, encode_column, encode_with, encoding_fits, EncodedBlock, Encoding,
};
use crate::format::{checksum, Reader, Writer};

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

fn minmax(values: &[Value]) -> (Value, Value, bool) {
    let mut min: Option<&Value> = None;
    let mut max: Option<&Value> = None;
    let mut has_null = false;
    for v in values {
        if v.is_null() {
            has_null = true;
            continue;
        }
        if min.map(|m| v < m).unwrap_or(true) {
            min = Some(v);
        }
        if max.map(|m| v > m).unwrap_or(true) {
            max = Some(v);
        }
    }
    (
        min.cloned().unwrap_or(Value::Null),
        max.cloned().unwrap_or(Value::Null),
        has_null,
    )
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

    /// Encode `columns` (column-major, equal lengths, already sorted by
    /// the projection sort order) into one container object.
    pub fn encode(&self, columns: &[Vec<Value>]) -> Result<(Bytes, RosFooter)> {
        let total_rows = columns.first().map(|c| c.len()).unwrap_or(0) as u64;
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
            for chunk in col.chunks(self.block_rows.max(1)) {
                let offset = w.len() as u64;
                match self.force {
                    Some(enc) if encoding_fits(chunk, enc) => encode_with(chunk, enc, &mut w),
                    _ => {
                        encode_column(chunk, &mut w);
                    }
                }
                let (min, max, has_null) = minmax(chunk);
                meta.blocks.push(BlockMeta {
                    offset,
                    len: w.len() as u64 - offset,
                    rows: chunk.len() as u64,
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
/// back to the filesystem, so placing a [`eon_storage::PosixFs`]-backed
/// cache in front is what makes repeated scans fast (§5.2).
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
        Ok(RosReader {
            key: key.to_owned(),
            footer: parse_footer(&footer_buf)?,
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

    /// Read one whole column.
    pub fn read_column(&self, fs: &dyn eon_storage::FileSystem, col: usize) -> Result<Vec<Value>> {
        let keep = vec![true; self.footer.columns[col].blocks.len()];
        let blocks = self.read_column_blocks(fs, col, &keep)?;
        Ok(blocks.into_iter().flatten().flatten().collect())
    }

    /// Read a column with block pruning: `keep[i] == false` skips block
    /// `i` (returning `None` in its slot so positions stay alignable).
    /// One ranged read per surviving block.
    pub fn read_column_blocks(
        &self,
        fs: &dyn eon_storage::FileSystem,
        col: usize,
        keep: &[bool],
    ) -> Result<Vec<Option<Vec<Value>>>> {
        let mut stats = ReadStats::default();
        self.read_column_blocks_with(fs, col, keep, None, &mut stats)
    }

    /// Like [`read_column_blocks`](Self::read_column_blocks), but with
    /// request coalescing: surviving blocks whose byte ranges are
    /// adjacent — or separated by a skipped gap of at most
    /// `coalesce_gap` bytes — are fetched with one ranged read and
    /// sliced locally. `None` disables coalescing (one GET per block).
    /// I/O accounting lands in `stats`.
    pub fn read_column_blocks_with(
        &self,
        fs: &dyn eon_storage::FileSystem,
        col: usize,
        keep: &[bool],
        coalesce_gap: Option<u64>,
        stats: &mut ReadStats,
    ) -> Result<Vec<Option<Vec<Value>>>> {
        let blocks = self.read_column_blocks_encoded(fs, col, keep, coalesce_gap, stats)?;
        Ok(blocks
            .into_iter()
            .map(|b| b.map(|view| view.decode()))
            .collect())
    }

    /// The encoded-view mode of
    /// [`read_column_blocks_with`](Self::read_column_blocks_with):
    /// same pruning and coalescing, but surviving blocks come back as
    /// [`EncodedBlock`] views — RLE runs and dictionary codes are *not*
    /// expanded to rows, so predicates can short-circuit on them and
    /// late materialization can gather survivors only.
    pub fn read_column_blocks_encoded(
        &self,
        fs: &dyn eon_storage::FileSystem,
        col: usize,
        keep: &[bool],
        coalesce_gap: Option<u64>,
        stats: &mut ReadStats,
    ) -> Result<Vec<Option<EncodedBlock>>> {
        let mut cols = self.read_columns_encoded(fs, &[col], keep, coalesce_gap, stats)?;
        Ok(cols.pop().expect("one column requested"))
    }

    /// The container's one range planner: the kept blocks of every
    /// column in `cols` (distinct indices; all columns share block
    /// boundaries, hence one `keep` mask), sorted by file offset and
    /// fetched in as few ranged reads as `coalesce_gap` allows — blocks
    /// that are adjacent or separated by at most that many dead bytes,
    /// whether a pruned block or an unrequested column, share a read.
    /// `None` reads every block on its own. Returns one block list per
    /// entry of `cols`, `None` in the slots `keep` skips.
    pub fn read_columns_encoded(
        &self,
        fs: &dyn eon_storage::FileSystem,
        cols: &[usize],
        keep: &[bool],
        coalesce_gap: Option<u64>,
        stats: &mut ReadStats,
    ) -> Result<Vec<Vec<Option<EncodedBlock>>>> {
        let mut out = Vec::with_capacity(cols.len());
        // (slot in `cols`, block index, block) for every kept block.
        let mut wanted: Vec<(usize, usize, &BlockMeta)> = Vec::new();
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

        let mut rest = wanted.as_slice();
        while let Some((_, _, first)) = rest.first() {
            // A run is the span [start, end) of one ranged read.
            let (start, mut end) = (first.offset, first.offset + first.len);
            let mut n = 1;
            while let (Some(gap), Some((_, _, b))) = (coalesce_gap, rest.get(n)) {
                if b.offset.saturating_sub(end) > gap {
                    break;
                }
                end = end.max(b.offset + b.len);
                n += 1;
            }
            let (run, tail) = rest.split_at(n);
            rest = tail;

            let raw = fs.read_range(&self.key, start, end - start)?;
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
            stats.requests_saved += n as u64 - 1;
            stats.gap_bytes += gap_bytes;
            stats.waste_bytes += gap_bytes;
            for &(slot, i, b) in run {
                let lo = (b.offset - start) as usize;
                let hi = lo + b.len as usize;
                let view = decode_column_view(&mut Reader::new(&raw[lo..hi]))?;
                if view.rows() as u64 != b.rows {
                    return Err(EonError::Corrupt(format!(
                        "{}: block decoded {} rows, footer says {}",
                        self.key,
                        view.rows(),
                        b.rows
                    )));
                }
                out[slot][i] = Some(view);
            }
        }
        Ok(out)
    }
}

/// I/O accounting for coalesced column reads.
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
    /// coalescing gap bytes, plus (added by the scan layer) predicate
    /// column blocks whose every row was filtered out after the fetch.
    /// This is the measurable side of the pushdown-vs-coalesce
    /// tradeoff — a select returns none of these bytes.
    pub waste_bytes: u64,
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

    fn write_sample(fs: &MemFs, key: &str) -> RosFooter {
        let (bytes, footer) = RosWriter::new().encode(&sample_columns()).unwrap();
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
            assert_eq!(&r.read_column(&fs, i).unwrap(), expect);
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
        let (bytes, footer) = RosWriter::with_block_rows(10).encode(&cols).unwrap();
        let size = bytes.len() as u64;
        fs.write("long", bytes).unwrap();
        let before = fs.stats();
        let r = RosReader::open_sized(&fs, "long", size).unwrap();
        assert!(r.index_bytes() > TAIL_READ);
        assert_eq!(fs.stats().gets - before.gets, 2);
        assert_eq!(r.footer(), &footer);
        assert_eq!(r.read_column(&fs, 0).unwrap(), cols[0]);
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
    }

    #[test]
    fn pruned_read_skips_blocks() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let blocks = r
            .read_column_blocks(&fs, 0, &[false, true, false])
            .unwrap();
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
            .encode(&[Vec::new(), Vec::new()])
            .unwrap();
        fs.write("empty", bytes).unwrap();
        let r = RosReader::open(&fs, "empty").unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.column_count(), 2);
        assert!(r.read_column(&fs, 0).unwrap().is_empty());
    }

    #[test]
    fn ragged_columns_rejected() {
        let cols = vec![vec![Value::Int(1)], vec![]];
        assert!(RosWriter::new().encode(&cols).is_err());
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

    #[test]
    fn nulls_tracked_in_block_meta() {
        let cols = vec![vec![Value::Null, Value::Int(5), Value::Null]];
        let (bytes, footer) = RosWriter::new().encode(&cols).unwrap();
        let b = &footer.columns[0].blocks[0];
        assert!(b.has_null);
        assert_eq!(b.min, Value::Int(5));
        assert_eq!(b.max, Value::Int(5));
        let fs = MemFs::new();
        fs.write("n", bytes).unwrap();
        let r = RosReader::open(&fs, "n").unwrap();
        assert_eq!(r.read_column(&fs, 0).unwrap(), cols[0]);
    }

    #[test]
    fn all_null_block_meta() {
        let cols = vec![vec![Value::Null, Value::Null]];
        let (_, footer) = RosWriter::new().encode(&cols).unwrap();
        let b = &footer.columns[0].blocks[0];
        assert!(b.min.is_null() && b.max.is_null() && b.has_null);
    }

    #[test]
    fn coalesced_read_matches_per_block_read() {
        let fs = MemFs::new();
        write_sample(&fs, "c1");
        let r = RosReader::open(&fs, "c1").unwrap();
        let keep = [true, true, true];
        let plain = r.read_column_blocks(&fs, 0, &keep).unwrap();
        let gets = fs.stats().gets;
        let mut stats = ReadStats::default();
        let coalesced = r
            .read_column_blocks_with(&fs, 0, &keep, Some(0), &mut stats)
            .unwrap();
        assert_eq!(coalesced, plain);
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
        let split = r
            .read_column_blocks_with(&fs, 0, &keep, Some(gap - 1), &mut tight)
            .unwrap();
        assert_eq!(tight.requests, 2);
        assert_eq!(tight.gap_bytes, 0);
        assert!(split[1].is_none());

        // Gap tolerance covering it: one read, gap bytes accounted.
        let mut wide = ReadStats::default();
        let merged = r
            .read_column_blocks_with(&fs, 0, &keep, Some(gap), &mut wide)
            .unwrap();
        assert_eq!(wide.requests, 1);
        assert_eq!(wide.requests_saved, 1);
        assert_eq!(wide.gap_bytes, gap);
        assert_eq!(merged, split);
        assert_eq!(merged, r.read_column_blocks(&fs, 0, &keep).unwrap());
    }

    #[test]
    fn forced_encoding_roundtrips_with_fallback() {
        let cols = sample_columns();
        let plain = {
            let fs = MemFs::new();
            write_sample(&fs, "auto");
            let r = RosReader::open(&fs, "auto").unwrap();
            (0..3)
                .map(|c| r.read_column(&fs, c).unwrap())
                .collect::<Vec<_>>()
        };
        for enc in [Encoding::Plain, Encoding::Rle, Encoding::Dict, Encoding::Delta] {
            let fs = MemFs::new();
            let (bytes, _) = RosWriter::new()
                .force_encoding(Some(enc))
                .encode(&cols)
                .unwrap();
            fs.write("f", bytes).unwrap();
            let r = RosReader::open(&fs, "f").unwrap();
            for (c, expect) in plain.iter().enumerate() {
                // Delta can't hold the Str/Float columns — the writer
                // falls back, and the data still round-trips.
                assert_eq!(&r.read_column(&fs, c).unwrap(), expect, "{enc:?} col {c}");
            }
        }
    }

    #[test]
    fn encoded_reads_keep_compressed_shape() {
        let fs = MemFs::new();
        let cols = sample_columns();
        let (bytes, _) = RosWriter::new()
            .force_encoding(Some(Encoding::Dict))
            .encode(&cols)
            .unwrap();
        fs.write("d", bytes).unwrap();
        let r = RosReader::open(&fs, "d").unwrap();
        let mut stats = ReadStats::default();
        let keep = vec![true; r.footer().columns[1].blocks.len()];
        let blocks = r
            .read_column_blocks_encoded(&fs, 1, &keep, Some(0), &mut stats)
            .unwrap();
        for b in blocks.iter().flatten() {
            assert!(matches!(b, EncodedBlock::Dict { dict, .. } if dict.len() == 13));
            assert!(b.is_encoded());
        }
        let decoded: Vec<Value> = blocks.into_iter().flatten().flat_map(|b| b.decode()).collect();
        assert_eq!(decoded, cols[1]);
    }

    #[test]
    fn custom_block_size() {
        let cols: Vec<Vec<Value>> = vec![(0..100i64).map(Value::Int).collect()];
        let (bytes, footer) = RosWriter::with_block_rows(10).encode(&cols).unwrap();
        assert_eq!(footer.columns[0].blocks.len(), 10);
        let fs = MemFs::new();
        fs.write("k", bytes).unwrap();
        let r = RosReader::open(&fs, "k").unwrap();
        assert_eq!(r.read_column(&fs, 0).unwrap(), cols[0]);
    }
}
