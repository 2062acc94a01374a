//! Seeded inputs: the SQL texts, the operation streams and the row
//! batches of the four workloads. `--seed` drives every parameter and
//! the program under test sees only what is made here. Sizes are
//! constants of the benchmark, the same on every commit.

// ---------------------------------------------------------------- sizes

/// `dash_short`: fact rows of the star schema (2 000 products, 4 geos).
pub const DASH_EVENTS: usize = 200_000;
/// Distinct `ts` floors per seed; each keeps 0.5–2 % of the events.
pub const DASH_FLOORS: usize = 16;
/// `scan_*`: TPC-H scale factor (≈ 120 000 `lineitem` rows).
pub const TPCH_SF: f64 = 0.02;
/// Distinct parameter sets per query type and seed.
pub const SCAN_VARIANTS: usize = 4;
/// `scan_cold`: depot bytes per node, about a tenth of what a node stores.
pub const COLD_CACHE_BYTES: u64 = 300_000;
/// `ingest_mix`: rows in `events` before the window.
pub const INGEST_INITIAL_ROWS: i64 = 100_000;
pub const BATCH_ROWS: i64 = 2_500;
/// One COPY is due every 125 ms: 20 000 rows/s whatever the system does.
pub const BATCH_PERIOD_S: f64 = 0.125;
/// The loader runs mergeout after every 8th batch, on the schedule.
/// A pass then takes 40–90 ms and fits before the next batch is due;
/// every 16th took longer than a period, put 6–12 % of the batches
/// behind a mergeout and so `copy_p90_ms` on the edge of a cliff.
pub const MERGEOUT_EVERY: u64 = 8;
/// A read covers 16 000–20 000 rows and ends at most 20 000 rows
/// below the acknowledged high-water mark.
pub const READ_WIDTH: (i64, i64) = (16_000, 20_000);
pub const READ_BACK_MAX: i64 = 20_000;
// The widest, furthest-back read still starts at a loaded row.
const _: () = assert!(INGEST_INITIAL_ROWS >= READ_WIDTH.1 + READ_BACK_MAX);
/// Idle COPY probe (see README): batches per block, one block per set-up.
pub const COPY_PROBE_BATCHES: i64 = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DashShort,
    ScanWarm,
    ScanCold,
    IngestMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DashShort,
        Workload::ScanWarm,
        Workload::ScanCold,
        Workload::IngestMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashShort => "dash_short",
            Workload::ScanWarm => "scan_warm",
            Workload::ScanCold => "scan_cold",
            Workload::IngestMix => "ingest_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations the single-threaded traced replay covers at most.
    pub fn replay_ops(self) -> usize {
        match self {
            Workload::DashShort => 200,
            Workload::ScanWarm | Workload::ScanCold => 60,
            Workload::IngestMix => 200,
        }
    }
}

// ------------------------------------------------------------------ rng

/// splitmix64: the benchmark's own generator, so an input never
/// changes because a library's stream did.
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

// ---------------------------------------------------------------- dates

/// Days since 1970-01-01 (Howard Hinnant's `days_from_civil`).
pub fn days_from_ymd(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * ((m + 9) % 12) + 2) / 5 + d - 1;
    era * 146_097 + yoe * 365 + yoe / 4 - yoe / 100 + doy - 719_468
}

/// `DATE 'YYYY-MM-DD'` for a day count.
pub fn date_literal(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("DATE '{y:04}-{m:02}-{d:02}'")
}

// ------------------------------------------------------- closed-loop SQL

#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Operation type, for per-type reporting.
    pub kind: &'static str,
    pub sql: String,
}

/// The distinct statements of a closed-loop workload. Few enough that
/// set-up can record and cross-check the answer of each one.
pub fn queries(workload: Workload, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    match workload {
        Workload::DashShort => (0..DASH_FLOORS)
            .map(|_| {
                let keep = rng.range(DASH_EVENTS as i64 / 200, DASH_EVENTS as i64 / 50);
                dash_query(DASH_EVENTS as i64 - keep)
            })
            .collect(),
        Workload::ScanWarm | Workload::ScanCold => {
            let mut out = Vec::with_capacity(3 * SCAN_VARIANTS);
            for _ in 0..SCAN_VARIANTS {
                out.push(q1(days_from_ymd(1998, 12, 1) - rng.range(60, 120)));
            }
            for _ in 0..SCAN_VARIANTS {
                let segment = SEGMENTS[rng.range(0, SEGMENTS.len() as i64 - 1) as usize];
                out.push(q3(segment, days_from_ymd(1995, 3, 1) + rng.range(0, 30)));
            }
            let (first, last) = (days_from_ymd(1992, 3, 1), days_from_ymd(1998, 6, 1));
            for _ in 0..SCAN_VARIANTS {
                out.push(export(rng.range(first, last)));
            }
            out
        }
        Workload::IngestMix => Vec::new(),
    }
}

/// The Fig 11a query as SQL text. The two trailing sort keys make the
/// top 10 unique when revenues tie.
fn dash_query(ts_floor: i64) -> Query {
    Query {
        kind: "dash",
        sql: format!(
            "SELECT p.category, g.region, SUM(e.amount * p.price) AS revenue, COUNT(*) \
             FROM events e \
             JOIN product p ON e.product_id = p.product_id \
             JOIN geo g ON e.geo_id = g.geo_id \
             WHERE e.ts >= {ts_floor} \
             GROUP BY p.category, g.region \
             ORDER BY revenue DESC, 1, 2 LIMIT 10"
        ),
    }
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

fn q1(cutoff: i64) -> Query {
    Query {
        kind: "q1",
        sql: format!(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
             SUM(l_extendedprice * (1 - l_discount)), \
             SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
             AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
             FROM lineitem WHERE l_shipdate <= {} \
             GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
            date_literal(cutoff)
        ),
    }
}

fn q3(segment: &str, day: i64) -> Query {
    let date = date_literal(day);
    Query {
        kind: "q3",
        sql: format!(
            "SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority, \
             SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue \
             FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE c.c_mktsegment = '{segment}' AND o.o_orderdate < {date} \
             AND l.l_shipdate > {date} \
             GROUP BY l.l_orderkey, o.o_orderdate, o.o_shippriority \
             ORDER BY revenue DESC, 2 ASC, 1 ASC LIMIT 10"
        ),
    }
}

/// The only operation whose `ROWS` frame is large: six columns of a
/// 90-day ship-date window, about 4 000 rows.
fn export(first_day: i64) -> Query {
    Query {
        kind: "export",
        sql: format!(
            "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate, l_shipmode \
             FROM lineitem WHERE l_shipdate >= {} AND l_shipdate < {} \
             ORDER BY l_orderkey, l_linenumber",
            date_literal(first_day),
            date_literal(first_day + 90)
        ),
    }
}

/// One connection's endless stream of indexes into [`queries`].
/// `dash_short` draws a floor per operation. The scan workloads cycle
/// Q1, Q3, export, so the three types have exactly equal shares and
/// the mixed median stays inside one type; the two connections start
/// at different types.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    next: usize,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, connection: usize) -> OpStream {
        OpStream {
            workload,
            rng: Rng::new(seed, 100 + connection as u64),
            next: connection,
        }
    }
}

impl Iterator for OpStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.next;
        self.next += 1;
        Some(match self.workload {
            Workload::DashShort => self.rng.range(0, DASH_FLOORS as i64 - 1) as usize,
            Workload::ScanWarm | Workload::ScanCold => {
                (i % 3) * SCAN_VARIANTS + self.rng.range(0, SCAN_VARIANTS as i64 - 1) as usize
            }
            Workload::IngestMix => 0,
        })
    }
}

// ----------------------------------------------------------- ingest_mix

/// `(event_id, product_id, geo_id, amount, ts)`, the column order of
/// the star schema's fact table.
pub type EventRow = [i64; 5];

/// Geo dimension rows, `geo_id` = index.
pub const REGIONS: [&str; 4] = ["NA", "EU", "APAC", "LATAM"];

/// Every event is a pure function of `(seed, id)`, so any id range has
/// a sum the benchmark can state without asking the database.
pub fn event_row(seed: u64, id: i64) -> EventRow {
    let h = mix(seed ^ mix(id as u64 ^ 0x5bd1_e995));
    [
        id,
        (h % 1_000) as i64,
        ((h >> 20) % REGIONS.len() as u64) as i64,
        1 + ((h >> 32) % 99) as i64,
        id,
    ]
}

pub fn batch(seed: u64, first_id: i64, rows: i64) -> Vec<EventRow> {
    (first_id..first_id + rows)
        .map(|id| event_row(seed, id))
        .collect()
}

/// `(region, COUNT(*), SUM(amount))` over ids `lo..hi`, ordered by
/// region name like the read's `ORDER BY`; regions without a row are
/// absent, as they are from a `GROUP BY`.
pub fn region_sums(seed: u64, lo: i64, hi: i64) -> Vec<(String, i64, i64)> {
    let mut acc = [(0i64, 0i64); REGIONS.len()];
    for id in lo..hi {
        let row = event_row(seed, id);
        acc[row[2] as usize].0 += 1;
        acc[row[2] as usize].1 += row[3];
    }
    let mut out: Vec<(String, i64, i64)> = REGIONS
        .iter()
        .zip(acc)
        .filter(|(_, (count, _))| *count > 0)
        .map(|(region, (count, sum))| (region.to_string(), count, sum))
        .collect();
    out.sort();
    out
}

/// Shape of one read: `width` rows ending `back` rows below whatever
/// the acknowledged high-water mark is when the read is sent. The
/// shapes are seeded; only their anchor moves with the load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadShape {
    pub width: i64,
    pub back: i64,
}

impl ReadShape {
    /// The id range `lo..hi` when `acked` rows are acknowledged.
    pub fn window(self, acked: i64) -> (i64, i64) {
        let hi = acked - self.back;
        (hi - self.width, hi)
    }
}

pub struct ReadStream(Rng);

impl ReadStream {
    pub fn new(seed: u64) -> ReadStream {
        ReadStream(Rng::new(seed, 200))
    }
}

impl Iterator for ReadStream {
    type Item = ReadShape;

    fn next(&mut self) -> Option<ReadShape> {
        Some(ReadShape {
            width: self.0.range(READ_WIDTH.0, READ_WIDTH.1),
            back: self.0.range(0, READ_BACK_MAX),
        })
    }
}

pub fn ingest_read(lo: i64, hi: i64) -> Query {
    Query {
        kind: "window",
        sql: format!(
            "SELECT g.region, COUNT(*), SUM(e.amount) \
             FROM events e JOIN geo g ON e.geo_id = g.geo_id \
             WHERE e.ts >= {lo} AND e.ts < {hi} \
             GROUP BY g.region ORDER BY g.region"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(w: Workload, seed: u64, conn: usize) -> Vec<usize> {
        OpStream::new(w, seed, conn).take(500).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::DashShort, Workload::ScanWarm] {
            assert_eq!(queries(w, 7), queries(w, 7));
            assert_ne!(queries(w, 7), queries(w, 8));
            assert_eq!(ops(w, 7, 0), ops(w, 7, 0));
            assert_ne!(ops(w, 7, 0), ops(w, 8, 0));
            assert_ne!(ops(w, 7, 0), ops(w, 7, 1));
        }
        // The cold workload replays the warm one's inputs exactly.
        assert_eq!(
            queries(Workload::ScanWarm, 3),
            queries(Workload::ScanCold, 3)
        );
        assert_eq!(ops(Workload::ScanWarm, 3, 1), ops(Workload::ScanCold, 3, 1));

        let shapes = |seed| ReadStream::new(seed).take(100).collect::<Vec<_>>();
        assert_eq!(shapes(1), shapes(1));
        assert_ne!(shapes(1), shapes(2));
        assert_eq!(batch(5, 100, 50), batch(5, 100, 50));
        assert_ne!(batch(5, 100, 50), batch(6, 100, 50));
    }

    #[test]
    fn scan_types_have_equal_shares() {
        let mut per_kind = [0usize; 3];
        for i in ops(Workload::ScanWarm, 11, 0).into_iter().take(300) {
            per_kind[i / SCAN_VARIANTS] += 1;
        }
        assert_eq!(per_kind, [100, 100, 100]);
        let qs = queries(Workload::ScanWarm, 11);
        assert_eq!(qs.len(), 3 * SCAN_VARIANTS);
        assert_eq!(qs[0].kind, "q1");
        assert_eq!(qs[SCAN_VARIANTS].kind, "q3");
        assert_eq!(qs[2 * SCAN_VARIANTS].kind, "export");
    }

    #[test]
    fn dash_floors_keep_half_to_two_percent() {
        for q in queries(Workload::DashShort, 42) {
            let floor: i64 = q
                .sql
                .split("e.ts >= ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .expect("floor in the text");
            let keep = DASH_EVENTS as i64 - floor;
            assert!((1_000..=4_000).contains(&keep), "{keep}");
        }
    }

    #[test]
    fn dates_round_trip() {
        assert_eq!(days_from_ymd(1970, 1, 1), 0);
        assert_eq!(days_from_ymd(1995, 3, 15), 9_204);
        assert_eq!(date_literal(0), "DATE '1970-01-01'");
        assert_eq!(date_literal(9_204), "DATE '1995-03-15'");
        assert_eq!(
            date_literal(days_from_ymd(1996, 2, 29)),
            "DATE '1996-02-29'"
        );
        assert_eq!(
            date_literal(days_from_ymd(1998, 12, 1) - 90),
            "DATE '1998-09-02'"
        );
    }

    #[test]
    fn region_sums_add_up_and_split() {
        let all = region_sums(9, 1_000, 3_000);
        assert_eq!(all.iter().map(|r| r.1).sum::<i64>(), 2_000);
        let names: Vec<&str> = all.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(names, ["APAC", "EU", "LATAM", "NA"]);
        let (a, b) = (region_sums(9, 1_000, 2_000), region_sums(9, 2_000, 3_000));
        for (i, whole) in all.iter().enumerate() {
            assert_eq!(whole.1, a[i].1 + b[i].1);
            assert_eq!(whole.2, a[i].2 + b[i].2);
        }
        let one = event_row(9, 1_234);
        assert_eq!((one[0], one[4]), (1_234, 1_234));
        assert!((1..=99).contains(&one[3]) && (0..4).contains(&one[2]));
    }

    #[test]
    fn reads_end_below_the_high_water_mark() {
        let shape = ReadShape {
            width: 18_000,
            back: 5_000,
        };
        assert_eq!(shape.window(100_000), (77_000, 95_000));
        for s in ReadStream::new(4).take(200) {
            let (lo, hi) = s.window(INGEST_INITIAL_ROWS);
            assert!(0 <= lo && hi <= INGEST_INITIAL_ROWS, "{lo}..{hi}");
            assert!((READ_WIDTH.0..=READ_WIDTH.1).contains(&(hi - lo)));
        }
    }
}
