//! Compact binary codec for on-disk structures: a little-endian writer
//! over `Vec<u8>` and a checked cursor over `Bytes`. All ROS container
//! payloads, footers, and delete vectors flow through this module so the
//! wire format lives in exactly one place; the catalog's files frame
//! their records with it too (`eon-catalog::codec`).

use bytes::Bytes;
use eon_types::{EonError, Result, Value, ValueRef};

use crate::batch::{Column, Data, StrVec};

/// Append-only binary writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// LEB128 unsigned varint; the workhorse for delta encoding.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_signed_varint(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.put_raw(b);
    }

    /// Bytes with no length prefix: the reader must know how many.
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Tagged value (a `&Value` or a borrowed cell). Tags: 0 null,
    /// 1 int, 2 float, 3 str, 4 bool, 5 date.
    pub fn put_value<'a>(&mut self, v: impl Into<ValueRef<'a>>) {
        match v.into() {
            ValueRef::Null => self.put_u8(0),
            ValueRef::Int(i) => {
                self.put_u8(1);
                self.put_signed_varint(i);
            }
            ValueRef::Float(f) => {
                self.put_u8(2);
                self.put_f64(f);
            }
            ValueRef::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            ValueRef::Bool(b) => {
                self.put_u8(4);
                self.put_u8(b as u8);
            }
            ValueRef::Date(d) => {
                self.put_u8(5);
                self.put_signed_varint(d as i64);
            }
        }
    }

    /// Raw access for checksums and length back-patching.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Checked binary reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes, or `Corrupt` when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(EonError::Corrupt(format!(
                "short read: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// LEB128 unsigned varint, decoded from the slice. A `u64` takes at
    /// most ten bytes, and the tenth holds bit 63 alone: a tenth byte
    /// above 1 (more bits, or a continuation) is `Corrupt`, never a
    /// value with its high bits dropped.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for (k, &byte) in self.buf[self.pos..].iter().take(10).enumerate() {
            if k == 9 && byte > 1 {
                return Err(EonError::Corrupt("varint overflow".into()));
            }
            v |= ((byte & 0x7f) as u64) << (7 * k);
            if byte & 0x80 == 0 {
                self.pos += k + 1;
                return Ok(v);
            }
        }
        Err(EonError::Corrupt("short read: varint runs past the buffer".into()))
    }

    pub fn get_signed_varint(&mut self) -> Result<i64> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_varint()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<String> {
        Ok(self.get_str_ref()?.to_owned())
    }

    fn get_str_ref(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| EonError::Corrupt("invalid utf8".into()))
    }

    pub fn get_value(&mut self) -> Result<Value> {
        Ok(self.get_value_ref()?.to_value())
    }

    /// `n` tagged values straight into a typed column: no `Value`, no
    /// allocation per string, and — while the cells are of one type or
    /// NULL, which a stored column's are — one typed loop. The caller
    /// bounds `n` by the buffer.
    pub fn get_cells(&mut self, n: usize) -> Result<Column> {
        // Cells tagged `$tag` (read by `$read`) or NULL, appended to
        // `$cells` until there are `n` or a cell of another type shows.
        // `$run` reads a run of cells in one loop, where it can.
        macro_rules! typed {
            ($tag:literal, $cells:expr, $null:expr, $read:expr, $data:path, $run:expr) => {{
                let mut cells = $cells;
                // NULLs are rare: their positions, not a flag per cell.
                let mut nulls: Vec<usize> = (0..cells.len()).collect();
                while cells.len() < n {
                    match self.buf.get(self.pos) {
                        Some($tag) => {
                            let before = cells.len();
                            $run(self.buf, &mut self.pos, &mut cells, n);
                            if cells.len() == before {
                                self.pos += 1;
                                cells.push($read);
                            }
                        }
                        Some(0) => {
                            self.pos += 1;
                            nulls.push(cells.len());
                            cells.push($null);
                        }
                        _ => break,
                    }
                }
                let mut valid = (!nulls.is_empty()).then(|| vec![true; cells.len()]);
                nulls.iter().for_each(|&i| valid.as_mut().expect("has nulls")[i] = false);
                Column::new($data(cells), valid)
            }};
        }
        let lead = self.buf[self.pos..].iter().take(n).take_while(|&&tag| tag == 0).count();
        self.pos += lead;
        let mut out = match self.buf.get(self.pos).filter(|_| lead < n) {
            Some(1) => typed!(1, vec![0i64; lead], 0, self.get_signed_varint()?, Data::Int, no_run),
            Some(2) => typed!(2, vec![0f64; lead], 0.0, self.get_f64()?, Data::Float, float_run),
            Some(3) => typed!(3, StrVec::nulls(lead), "", self.get_str_ref()?, Data::Str, no_run),
            Some(4) => typed!(4, vec![false; lead], false, self.get_u8()? != 0, Data::Bool, no_run),
            Some(5) => typed!(5, vec![0i32; lead], 0, self.get_signed_varint()? as i32, Data::Date, no_run),
            _ => Column::nulls(lead),
        };
        // A block of mixed types (or a bad tag, reported here): cell by cell.
        for _ in out.len()..n {
            out.push(self.get_value_ref()?);
        }
        Ok(out)
    }

    /// One tagged value, a string borrowed from the buffer.
    pub fn get_value_ref(&mut self) -> Result<ValueRef<'a>> {
        Ok(match self.get_u8()? {
            0 => ValueRef::Null,
            1 => ValueRef::Int(self.get_signed_varint()?),
            2 => ValueRef::Float(self.get_f64()?),
            3 => ValueRef::Str(self.get_str_ref()?),
            4 => ValueRef::Bool(self.get_u8()? != 0),
            5 => ValueRef::Date(self.get_signed_varint()? as i32),
            t => return Err(EonError::Corrupt(format!("bad value tag {t}"))),
        })
    }
}

/// The non-NULL Float cells at `buf[*pos..]`, while `cells` holds fewer
/// than `n`: whole 9-byte cells (tag 2, then the little-endian bits)
/// read in one loop, stopping at the first cell of another tag.
fn float_run(buf: &[u8], pos: &mut usize, cells: &mut Vec<f64>, n: usize) {
    let run = buf[*pos..].chunks_exact(9).take(n - cells.len()).take_while(|c| c[0] == 2);
    let before = cells.len();
    cells.extend(run.map(|c| f64::from_le_bytes(c[1..].try_into().expect("8 bytes"))));
    *pos += 9 * (cells.len() - before);
}

/// No run reader: cells of this type are read one at a time.
fn no_run<C>(_: &[u8], _: &mut usize, _: &mut C, _: usize) {}

/// FNV-1a content checksum used by container footers.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-12345);
        w.put_f64(2.5);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn short_read_is_error_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let b = w.into_bytes();
            assert_eq!(Reader::new(&b).get_varint().unwrap(), v);
        }
    }

    /// A tenth varint byte carries bit 63 only: anything above 1 there
    /// is `Corrupt`, as is a varint with no end; the extremes round-trip.
    #[test]
    fn overlong_varints_are_corrupt() {
        let mut overlong = vec![0xff; 9];
        overlong.push(0x02);
        for bad in [overlong, [0xff; 10].to_vec(), [0x80; 11].to_vec(), vec![0x80, 0x80]] {
            let got = Reader::new(&bad).get_varint();
            assert!(matches!(got, Err(EonError::Corrupt(_))), "{bad:?}: {got:?}");
        }
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        w.put_signed_varint(i64::MIN);
        w.put_signed_varint(i64::MAX);
        let b = w.into_bytes();
        let mut r = Reader::new(&b);
        assert_eq!(r.get_varint().unwrap(), u64::MAX);
        assert_eq!(r.get_signed_varint().unwrap(), i64::MIN);
        assert_eq!(r.get_signed_varint().unwrap(), i64::MAX);
        assert!(r.is_exhausted());
    }

    proptest! {
        #[test]
        fn prop_signed_varint_roundtrip(v: i64) {
            let mut w = Writer::new();
            w.put_signed_varint(v);
            let b = w.into_bytes();
            prop_assert_eq!(Reader::new(&b).get_signed_varint().unwrap(), v);
        }

        #[test]
        fn prop_value_roundtrip(tag in 0u8..6, i: i64, f: f64, s in ".{0,40}", b: bool, d: i32) {
            let v = match tag {
                0 => Value::Null,
                1 => Value::Int(i),
                2 => Value::Float(f),
                3 => Value::Str(s),
                4 => Value::Bool(b),
                _ => Value::Date(d),
            };
            let mut w = Writer::new();
            w.put_value(&v);
            let bytes = w.into_bytes();
            let got = Reader::new(&bytes).get_value().unwrap();
            // Compare via the total order so NaN == NaN.
            prop_assert_eq!(got.cmp(&v), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn checksum_detects_flips() {
        let a = checksum(b"hello world");
        let b = checksum(b"hello worle");
        assert_ne!(a, b);
        assert_eq!(a, checksum(b"hello world"));
    }
}
