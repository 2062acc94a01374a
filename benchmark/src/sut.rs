//! The program under test, behind one file. This is the only module
//! that names an `eon_*` crate: an API change there is fixed here and
//! nowhere else. Everything handed out is the benchmark's own types
//! (`Answer`, `Counters`, plain numbers) and every error is a string.
//!
//! The cluster is what a user gets from the defaults: 3 nodes, 3
//! shards, 4 slots per node (`EonConfig::new(3, 3)`) on the simulated
//! S3 at its default 2 ms first byte and 100 MB/s, with only the depot
//! size ever set, behind a real `EonServer` on loopback TCP.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use eon_catalog::CatalogState;
use eon_columnar::{Projection, RosReader, RosWriter};
use eon_core::{EonConfig, EonDb, SessionOpts, SqlResult};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_net::{EonClient, EonServer, Request, Response, ServerHandle, ServerOpts, SqlOutcome};
use eon_obs::QueryProfile;
use eon_shard::{select_participants, AssignmentProblem};
use eon_storage::{FileSystem, MemFs, S3Config, S3SimFs};
use eon_types::{EonError, Schema, Value};
use eon_workload::dashboard::{self, DashboardData};
use eon_workload::tpch::{self, TpchData};

use crate::check::{Answer, Cell};
use crate::gen::{self, EventRow, Workload};

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn cell(v: Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Int(i) => Cell::Int(i),
        Value::Float(f) => Cell::Float(f),
        Value::Str(s) => Cell::Str(s),
        Value::Bool(b) => Cell::Bool(b),
        Value::Date(d) => Cell::Int(d.into()),
    }
}

fn answer(rows: Vec<Vec<Value>>) -> Answer {
    rows.into_iter()
        .map(|r| r.into_iter().map(cell).collect())
        .collect()
}

fn event_values(rows: &[EventRow]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

// ------------------------------------------------------------------ data

/// A workload's tables, generated once per run from the seed and
/// loaded into every cluster the run builds.
pub enum Dataset {
    Dashboard(DashboardData),
    Tpch(TpchData),
    /// `ingest_mix`: the benchmark's own events, so sums are known.
    Events(Vec<Vec<Value>>),
}

impl Dataset {
    pub fn generate(workload: Workload, seed: u64) -> Dataset {
        match workload {
            Workload::DashShort => Dataset::Dashboard(dashboard::generate(gen::DASH_EVENTS, seed)),
            Workload::ScanWarm | Workload::ScanCold => {
                Dataset::Tpch(TpchData::generate(gen::TPCH_SF, seed))
            }
            Workload::IngestMix => {
                Dataset::Events(event_values(&gen::batch(seed, 0, gen::INGEST_INITIAL_ROWS)))
            }
        }
    }

    pub fn rows(&self) -> usize {
        match self {
            Dataset::Dashboard(d) => d.events.len() + d.products.len() + d.geos.len(),
            Dataset::Tpch(d) => d.total_rows(),
            Dataset::Events(e) => e.len() + gen::REGIONS.len(),
        }
    }

    fn schemas(&self) -> HashMap<String, Schema> {
        let named = |pairs: Vec<(&str, Schema)>| {
            pairs.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
        };
        match self {
            Dataset::Dashboard(_) => named(vec![
                ("events", dashboard::events_schema()),
                ("product", dashboard::product_schema()),
                ("geo", dashboard::geo_schema()),
            ]),
            Dataset::Tpch(_) => tpch::tpch_tables()
                .into_iter()
                .map(|(name, schema, ..)| (name.to_string(), schema))
                .collect(),
            Dataset::Events(_) => named(vec![
                ("events", dashboard::events_schema()),
                ("geo", dashboard::geo_schema()),
            ]),
        }
    }
}

fn geo_rows() -> Vec<Vec<Value>> {
    gen::REGIONS
        .iter()
        .enumerate()
        .map(|(i, r)| vec![Value::Int(i as i64), Value::Str(r.to_string())])
        .collect()
}

// --------------------------------------------------------------- cluster

pub struct Sut {
    db: Arc<EonDb>,
    server: ServerHandle,
}

/// One wire session.
pub struct Conn(EonClient);

/// Registry readings under the benchmark's own names.
pub type Counters = BTreeMap<&'static str, f64>;

/// The program's series (summed over labels; `.get` etc. pick one S3
/// verb, `.sum`/`.count` one side of a histogram) and what the
/// benchmark calls each. A series the program no longer registers is
/// simply absent from [`Sut::counters`], and its metric reads `null`.
const SERIES: [(&str, &str); 24] = [
    ("depot_hits_total", "cache.hits"),
    ("depot_misses_total", "cache.misses"),
    ("depot_evictions_total", "cache.evictions"),
    ("depot_singleflight_waits_total", "cache.singleflight_waits"),
    ("depot_used_bytes", "cache.used_bytes"),
    ("s3_requests_total.get", "storage.s3_gets"),
    ("s3_requests_total.list", "storage.s3_lists"),
    ("s3_requests_total.select", "storage.s3_selects"),
    ("s3_requests_total.put", "storage.s3_puts"),
    ("s3_cost_nanodollars_total", "storage.s3_cost_nusd"),
    ("s3_retries_total", "storage.retries"),
    ("scan_blocks_pruned_total", "columnar.blocks_pruned"),
    (
        "scan_blocks_late_skipped_total",
        "columnar.blocks_late_skipped",
    ),
    ("scan_encoded_blocks_total", "columnar.encoded_blocks"),
    (
        "scan_rows_short_circuited_total",
        "columnar.rows_short_circuited",
    ),
    ("scan_pushdown_selects_total", "core.pushdown_selects"),
    ("scan_pushdown_fallbacks_total", "core.pushdown_fallbacks"),
    ("coordinator_failovers_total", "core.failovers"),
    ("exec_slot_acquisitions_total", "cluster.slot_acquisitions"),
    ("exec_slot_queue_wait_us.sum", "cluster.slot_wait_us_sum"),
    ("exec_slot_queue_wait_us.count", "cluster.slot_waits"),
    ("commit_appends_total", "catalog.log_appends"),
    ("tm_mergeout_jobs_total", "tm.mergeout_jobs"),
    ("tm_mergeout_rows_rewritten_total", "tm.mergeout_rows"),
];

impl Sut {
    /// Build the cluster, load `data` with COPY, start the server.
    /// `cache_bytes` is the one setting a workload may change.
    pub fn start(data: &Dataset, cache_bytes: Option<u64>) -> Res<Sut> {
        let mut config = EonConfig::new(3, 3);
        if let Some(bytes) = cache_bytes {
            config = config.cache_bytes(bytes);
        }
        // The store counts into the database's registry, so one
        // snapshot covers every layer.
        let store = Arc::new(S3SimFs::with_metrics(S3Config::default(), &config.obs));
        let db = EonDb::create(store, config).map_err(err)?;
        match data {
            Dataset::Dashboard(d) => dashboard::load_eon(&db, d).map_err(err)?,
            Dataset::Tpch(d) => tpch::load_tpch_eon(&db, d).map_err(err)?,
            Dataset::Events(events) => {
                create_events_table(&db, "events")?;
                let gs = dashboard::geo_schema();
                db.create_table(
                    "geo",
                    gs.clone(),
                    vec![Projection::replicated("geo_rep", &gs, &[0])],
                )
                .map_err(err)?;
                db.copy_into("geo", geo_rows()).map_err(err)?;
                db.copy_into("events", events.clone()).map_err(err)?;
            }
        }
        let server = EonServer::bind(db.clone(), "127.0.0.1:0", ServerOpts::default())
            .map_err(err)?
            .spawn();
        Ok(Sut { db, server })
    }

    pub fn connect(&self) -> Res<Conn> {
        EonClient::connect(self.server.addr())
            .map(Conn)
            .map_err(err)
    }

    /// The same statement without the wire: `EonDb::sql_query`, which
    /// is what the server calls per request.
    pub fn sql_query(&self, sql: &str) -> Res<LocalRows> {
        let result = self.db.sql_query(sql, &SessionOpts::default());
        result.map(LocalRows).map_err(err)
    }

    /// COPY is a library call: the wire accepts only SELECT and EXPLAIN.
    pub fn copy_events(&self, table: &str, rows: &[EventRow]) -> Res<u64> {
        self.db.copy_into(table, event_values(rows)).map_err(err)
    }

    pub fn create_events_table(&self, name: &str) -> Res<()> {
        create_events_table(&self.db, name)
    }

    /// One tuple-mover pass; returns the jobs it ran.
    pub fn mergeout(&self) -> Res<usize> {
        self.db.run_mergeout().map_err(err)
    }

    /// The series of [`SERIES`] under the benchmark's names, plus the
    /// store's own byte counts and the number of series registered.
    pub fn counters(&self) -> Counters {
        let mut raw: BTreeMap<String, f64> = BTreeMap::new();
        let snapshot = self.db.metrics().snapshot();
        let series = snapshot
            .as_object()
            .expect("a registry snapshot is an object");
        for (key, value) in series {
            let mut name = key.split('{').next().unwrap_or(key).to_string();
            if name == "s3_requests_total" {
                let verb = key
                    .split("verb=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next());
                name = format!("s3_requests_total.{}", verb.unwrap_or("other"));
            }
            if let Some(n) = value.as_f64() {
                *raw.entry(name).or_default() += n;
            } else {
                for part in ["count", "sum"] {
                    if let Some(n) = value.get(part).and_then(|v| v.as_f64()) {
                        *raw.entry(format!("{name}.{part}")).or_default() += n;
                    }
                }
            }
        }
        let mut out: Counters = SERIES
            .iter()
            .filter_map(|(theirs, ours)| raw.get(*theirs).map(|v| (*ours, *v)))
            .collect();
        out.insert("obs.series_count", series.len() as f64);
        let fs = self.db.shared().stats();
        out.insert("storage.s3_bytes_read", fs.bytes_read as f64);
        out.insert("storage.stored_bytes", fs.bytes_written as f64);
        out
    }

    /// Bytes of the live containers in the shared store and the rows
    /// they hold, from the catalog.
    pub fn stored(&self) -> Res<(u64, u64)> {
        let snapshot = self.db.snapshot().map_err(err)?;
        let containers = snapshot.containers.values();
        Ok(containers.fold((0, 0), |(b, r), c| (b + c.size_bytes, r + c.rows)))
    }

    /// Depot capacity per node and the bytes each node's shards hold.
    pub fn depot_and_node_bytes(&self) -> Res<(u64, Vec<u64>)> {
        let snapshot = self.db.snapshot().map_err(err)?;
        let per_node = self
            .db
            .membership()
            .all()
            .iter()
            .map(|node| {
                let shards: Vec<_> = snapshot
                    .subscriptions_of(node.id)
                    .iter()
                    .map(|s| s.shard)
                    .collect();
                let held = snapshot
                    .containers
                    .values()
                    .filter(|c| shards.contains(&c.shard));
                held.map(|c| c.size_bytes).sum()
            })
            .collect();
        Ok((self.db.config().cache_bytes, per_node))
    }

    /// Durability: kill every node, recover each from its own log, and
    /// count `events` again.
    pub fn restart_and_count_events(&self) -> Res<i64> {
        self.db.cold_restart_all().map_err(err)?;
        let counted = self.sql_query("SELECT COUNT(*) FROM events")?.answer();
        if let [row] = counted.as_slice() {
            if let [Cell::Int(n)] = row.as_slice() {
                return Ok(*n);
            }
        }
        Err(format!("COUNT(*) returned {counted:?}"))
    }
}

fn create_events_table(db: &EonDb, name: &str) -> Res<()> {
    let es = dashboard::events_schema();
    let projection = Projection::super_projection(format!("{name}_super"), &es, &[4], &[0]);
    db.create_table(name, es, vec![projection])
        .map(|_| ())
        .map_err(err)
}

impl Conn {
    /// `EonClient::sql`: send, wait, decode the rows.
    pub fn sql(&mut self, sql: &str) -> Res<Answer> {
        match self.0.sql(sql).map_err(err)? {
            SqlOutcome::Rows { rows, .. } => Ok(answer(rows)),
            other => Err(format!("expected rows, got {other:?}")),
        }
    }

    pub fn ping(&mut self) -> Res<()> {
        self.0.ping().map_err(err)
    }
}

// ---------------------------------------------------------------- oracle

/// `eon-enterprise` loaded with the same rows: a second architecture
/// that must give the same answers.
pub struct Oracle {
    db: Arc<EnterpriseDb>,
    schemas: Schemas,
}

struct Schemas(HashMap<String, Schema>);

impl eon_sql::SchemaSource for Schemas {
    fn table_schema(&self, name: &str) -> eon_types::Result<Schema> {
        let found = self.0.get(name).cloned();
        found.ok_or_else(|| eon_types::EonError::UnknownTable(name.to_owned()))
    }
}

impl Oracle {
    pub fn load(data: &Dataset) -> Res<Oracle> {
        let db = EnterpriseDb::create(EnterpriseConfig {
            wos_threshold: 100_000,
            ..EnterpriseConfig::default()
        });
        match data {
            Dataset::Dashboard(d) => dashboard::load_enterprise(&db, d).map_err(err)?,
            Dataset::Tpch(d) => tpch::load_tpch_enterprise(&db, d).map_err(err)?,
            Dataset::Events(_) => {
                return Err("ingest_mix is checked by sums, not by an oracle".into())
            }
        }
        Ok(Oracle {
            db,
            schemas: Schemas(data.schemas()),
        })
    }

    pub fn answer(&self, sql: &str) -> Res<Answer> {
        let plan = eon_sql::compile(sql, &self.schemas).map_err(err)?;
        self.db.query(&plan).map(answer).map_err(err)
    }
}

// ------------------------------------------------- the traced replay's calls
//
// One public call of the program per function, so the replay can put
// a span of its own around each. None of them keeps time itself.

/// Rows as `EonDb::sql_query` returned them.
pub struct LocalRows(SqlResult);

impl LocalRows {
    pub fn answer(&self) -> Answer {
        answer(self.0.rows.clone())
    }

    /// The `ROWS` frame the server would send for them.
    pub fn into_frame(self) -> RowsFrame {
        RowsFrame(Response::Rows {
            columns: self.0.columns,
            rows: self.0.rows,
        })
    }
}

pub struct RowsFrame(Response);

impl RowsFrame {
    /// `Response::encode`.
    pub fn encode(&self) -> Vec<u8> {
        self.0.encode()
    }
}

/// `Response::decode`.
pub fn decode_response(payload: &[u8]) -> Res<()> {
    Response::decode(payload).map(|_| ()).map_err(err)
}

/// `Request::encode` then `Request::decode` of one SQL request.
pub fn request_round_trip(sql: &str) -> Res<()> {
    let payload = Request::Sql {
        sql: sql.to_owned(),
    }
    .encode();
    Request::decode(&payload).map(|_| ()).map_err(err)
}

/// `eon_sql::parse`.
pub fn parse(sql: &str) -> Res<()> {
    eon_sql::parse(sql).map(|_| ()).map_err(err)
}

pub struct Compiled(eon_exec::Plan);

pub struct Assignment(AssignmentProblem);

/// A span the program recorded in a `QueryProfile`, under the
/// benchmark's name for it; `node` says whose it is, where it is
/// anyone's.
pub struct ProfileSpan {
    pub name: &'static str,
    pub node: String,
    pub micros: f64,
}

fn profile_spans(profile: &QueryProfile) -> Vec<ProfileSpan> {
    let known = |name: &str| {
        Some(match name {
            "admission_wait" => "core.admission_wait",
            "slot_wait" => "cluster.slot_wait",
            "local_phase" => "core.local_phase",
            "scan_pipeline" => "core.scan_pipeline",
            "coordinator_merge" => "exec.merge",
            "load_pipeline" => "core.load_pipeline",
            "load_upload_fanout" => "core.load_upload",
            "load_commit" => "catalog.commit",
            _ => return None,
        })
    };
    let spans = profile.spans().into_iter();
    spans
        .filter_map(|s| {
            Some(ProfileSpan {
                name: known(&s.name)?,
                // `node0` for a phase, `node0:lineitem` for a scan.
                node: s.label.split(':').next().unwrap_or_default().to_string(),
                micros: s.micros as f64,
            })
        })
        .collect()
}

struct LiveSchemas(Arc<CatalogState>);

impl eon_sql::SchemaSource for LiveSchemas {
    fn table_schema(&self, name: &str) -> eon_types::Result<Schema> {
        let table = self.0.table_by_name(name);
        table
            .map(|t| t.schema.clone())
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }
}

impl Sut {
    /// `EonDb::snapshot`.
    pub fn snapshot(&self) -> Res<()> {
        self.db.snapshot().map(|_| ()).map_err(err)
    }

    /// `eon_sql::compile_with_columns` against the live catalog.
    pub fn compile(&self, sql: &str) -> Res<Compiled> {
        let schemas = LiveSchemas(self.db.snapshot().map_err(err)?);
        let compiled = eon_sql::compile_with_columns(sql, &schemas);
        compiled.map(|(plan, _)| Compiled(plan)).map_err(err)
    }

    /// `EonDb::participation`: snapshot, eligibility, max-flow.
    pub fn participation(&self) -> Res<()> {
        let p = self.db.participation(&SessionOpts::default());
        p.map(|_| ()).map_err(err)
    }

    /// The max-flow input `participation` builds, built ahead so that
    /// [`Sut::select_participants`] times the solver alone.
    pub fn assignment(&self) -> Res<Assignment> {
        let snapshot = self.db.snapshot().map_err(err)?;
        let up = self.db.membership().up_ids();
        let shards = self.db.segment_shards();
        let mut can_serve = Vec::new();
        for &shard in &shards {
            let serving = snapshot.serving_subscribers(shard).into_iter();
            can_serve.extend(serving.filter(|n| up.contains(n)).map(|n| (n, shard)));
        }
        Ok(Assignment(AssignmentProblem::flat(shards, up, can_serve)))
    }

    /// `eon_shard::select_participants`.
    pub fn select_participants(&self, problem: &Assignment, seed: u64) -> Res<()> {
        select_participants(&problem.0, seed)
            .map(|_| ())
            .map_err(err)
    }

    /// `EonDb::query_with`.
    pub fn query_plain(&self, plan: &Compiled) -> Res<Answer> {
        let rows = self.db.query_with(&plan.0, &SessionOpts::default());
        rows.map(answer).map_err(err)
    }

    /// `EonDb::query_profiled`.
    pub fn query_profiled(&self, plan: &Compiled) -> Res<(Answer, Vec<ProfileSpan>)> {
        let (rows, profile) = self
            .db
            .query_profiled(&plan.0, &SessionOpts::default())
            .map_err(err)?;
        Ok((answer(rows), profile_spans(&profile)))
    }

    /// `EonDb::copy_into_profiled`.
    pub fn copy_profiled(&self, table: &str, rows: &[EventRow]) -> Res<Vec<ProfileSpan>> {
        let loaded = self.db.copy_into_profiled(table, event_values(rows));
        loaded
            .map(|(_, profile)| profile_spans(&profile))
            .map_err(err)
    }

    /// `Registry::snapshot`; returns the number of series.
    pub fn metrics_snapshot(&self) -> usize {
        let snapshot = self.db.metrics().snapshot();
        snapshot.as_object().map_or(0, |series| series.len())
    }

    /// Unit costs measured in isolation on the workload's own data,
    /// keyed by metric name, each the median of a few repeats: a whole
    /// GET of one container from the store; decoding and re-encoding
    /// that container on a `MemFs` copy; a depot hit and a depot
    /// miss-and-fill for it; one slot acquire-and-release.
    pub fn unit_costs(&self) -> Res<BTreeMap<&'static str, f64>> {
        let snapshot = self.db.snapshot().map_err(err)?;
        // The largest container that half a depot still holds, so the
        // hit probe works on the small depot too.
        let fits = self.db.config().cache_bytes / 2;
        let sized = snapshot
            .containers
            .values()
            .filter(|c| c.size_bytes <= fits);
        let container = sized
            .max_by_key(|c| c.size_bytes)
            .ok_or("no container fits the depot")?;
        let key = container.key.as_str();
        let nodes = self.db.membership().all();
        let subscribes = |n: &&Arc<eon_cluster::NodeRuntime>| {
            let subs = snapshot.subscriptions_of(n.id);
            subs.iter().any(|s| s.shard == container.shard)
        };
        let node = nodes
            .iter()
            .find(subscribes)
            .ok_or("no node subscribes to the shard")?;

        let mut out = BTreeMap::new();
        let store = self.db.shared();
        let mut bytes = store.read(key).map_err(err)?;
        let get_us = median_us(5, || {
            bytes = store.read(key).map_err(err)?;
            Ok(())
        })?;
        out.insert("storage.get_us", get_us);

        let mem = MemFs::new();
        mem.write(key, bytes).map_err(err)?;
        let reader = RosReader::open(&mem, key).map_err(err)?;
        let krows = reader.total_rows() as f64 / 1e3;
        let mut columns = Vec::new();
        let decode_us = median_us(5, || {
            let all = (0..reader.column_count()).map(|c| reader.read_column(&mem, c));
            columns = all.collect::<eon_types::Result<_>>().map_err(err)?;
            Ok(())
        })?;
        out.insert("columnar.decode_us_per_krow", decode_us / krows);
        let encode_us = median_us(5, || {
            RosWriter::new().encode(&columns).map(|_| ()).map_err(err)
        })?;
        out.insert("columnar.encode_us_per_krow", encode_us / krows);

        let cached = || {
            node.cache
                .read_with(key, eon_cache::CacheMode::Normal)
                .map(|_| ())
                .map_err(err)
        };
        cached()?;
        out.insert("cache.hit_read_us", median_us(21, cached)?);
        let mut fills = Vec::new();
        for _ in 0..5 {
            node.cache.evict(key).map_err(err)?;
            fills.push(micros_of(cached)?);
        }
        out.insert(
            "cache.miss_fill_us",
            crate::stats::median(&fills).ok_or("no fills")?,
        );

        const CYCLES: u32 = 1_000;
        let cycles_us = micros_of(|| {
            for _ in 0..CYCLES {
                drop(node.slots.acquire(1).map_err(err)?);
            }
            Ok(())
        })?;
        out.insert("cluster.slot_cycle_us", cycles_us / f64::from(CYCLES));
        Ok(out)
    }
}

/// Median time of `repeats` calls, in microseconds.
fn median_us(repeats: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let times: Vec<f64> = (0..repeats)
        .map(|_| micros_of(&mut f))
        .collect::<Res<_>>()?;
    crate::stats::median(&times).ok_or_else(|| "no repeats".to_string())
}

fn micros_of(f: impl FnOnce() -> Res<()>) -> Res<f64> {
    let began = std::time::Instant::now();
    f()?;
    Ok(began.elapsed().as_secs_f64() * 1e6)
}
