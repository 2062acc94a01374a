//! Property test of the plan rules (DESIGN.md "Plan rules"),
//! `push_predicates`, `prune_columns`, `co_locate_joins` and their
//! composition in the order `optimize` applies them.
//!
//! On one node, for seeded random plans over four small tables — filters
//! with conjuncts a scan can and cannot evaluate, over all four join
//! kinds and on their nullable sides, computed projects, aggregates with
//! computed inputs and `COUNT(*)`, sorts on columns the output drops,
//! limits, scans that already carry a predicate or a column list, and
//! pinned scans —
//!
//! * each rule's output answers like its input, row for row in order
//!   (floats by bits), same width, same names at a `Project` root;
//! * each rule is idempotent;
//! * after pruning, no scan outputs a column nothing above it reads
//!   (checked by an independent top-down walk that rebuilds nothing).
//!
//! Across the nodes of a session — each keeping the rows of the shards
//! it serves, with crunch slices or without — for random local phases:
//! a spine of filters, sorts, column projects and joins of all four
//! kinds over co-segmented and non-co-segmented pairs, keys through
//! filters, projects and left join sides, NULL and mixed `Int` / `Float`
//! keys, replicated, Live-Aggregate-like and pinned scans, under an
//! order-free aggregate or none —
//!
//! * `auto_distribute` of the optimized plan, run on every node and
//!   finished, answers like the unoptimized plan on one node.
//!
//! Every comparison is well typed, so a pushed predicate and the
//! expression it came from cannot disagree about an error. The named
//! cases at the bottom pin the shapes the rules exist for.

use std::collections::{BTreeSet, HashMap};

use eon_columnar::pruning::CmpOp;
use eon_columnar::segment::shard_of_row;
use eon_columnar::{Batch, Predicate};
use eon_exec::colocate::Layout;
use eon_exec::crunch::CrunchSlice;
use eon_exec::{
    auto_distribute, co_locate_joins, execute, prune_columns, push_predicates, AggFunc, AggSpec,
    Distribution, Expr, JoinKind, Pieces, Plan, ScanSpec, SortKey, TableProvider,
};
use eon_types::{EonError, Result, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

type Row = Vec<Value>;
type Data = HashMap<String, Vec<Row>>;

/// Arithmetic and SUM / AVG take `Num` columns only, so no generated
/// plan errors: the rule may drop an erroring expression nobody reads,
/// and that is not the equivalence under test.
#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Num,
    Other,
}
use Ty::{Num, Other};

/// Table name → column types, and the table columns its one projection,
/// `<table>_p`, is segmented on (`None`: replicated). `t0` also has the
/// pinned projection.
type TableDef = (&'static str, &'static [Ty], Option<&'static [usize]>);
const TABLES: [TableDef; 4] = [
    ("t0", &[Num, Num, Num, Other, Other], Some(&[0])),
    ("t1", &[Num, Other, Num], Some(&[0])),
    ("t2", &[Num, Num, Other, Num], Some(&[1, 0])),
    ("t3", &[Num, Other], None),
];

/// The layout a scan pinned to `t0`'s projection `pin` yields, whatever
/// column list the spec carries (as a Live Aggregate Projection does);
/// its rows are segmented like `t0`'s.
const PIN: &str = "pin";
const PIN_LAYOUT: [usize; 2] = [2, 0];

/// One participant of a session: the shards it serves out of `shards`,
/// its crunch slice (§4.4), and whether it is the one participant that
/// reads a replicated table's shard-local scan.
struct NodeView {
    serves: Vec<usize>,
    shards: usize,
    slice: CrunchSlice,
    reads_replicas: bool,
}

/// The tables as one node sees them: a `Global` scan reads every row, a
/// `LocalShards` scan the rows of the node's shards and slice — on a
/// replicated table, every row on one node and none elsewhere. `node:
/// None` is a single node serving everything.
struct Tables<'a> {
    data: &'a Data,
    node: Option<&'a NodeView>,
}

impl Tables<'_> {
    fn scan_one(&self, spec: &ScanSpec) -> Result<Batch> {
        let rows = self.data.get(&spec.table).ok_or_else(|| EonError::UnknownTable(spec.table.clone()))?;
        let all: Vec<usize> = (0..rows.first().map_or(0, Vec::len)).collect();
        let cols = match (spec.projection.as_deref(), &spec.columns) {
            (Some(PIN), _) => PIN_LAYOUT.to_vec(),
            (_, Some(cols)) => cols.clone(),
            (_, None) => all,
        };
        let segmented = TABLES.iter().find(|(name, ..)| *name == spec.table).and_then(|t| t.2);
        let seen = |row: &Row| match (self.node, spec.distribute, segmented) {
            (None, ..) | (_, Distribution::Global, _) => true,
            (Some(node), Distribution::LocalShards, Some(seg)) => {
                node.serves.contains(&shard_of_row(row, seg, node.shards)) && node.slice.keeps_row(row, seg)
            }
            (Some(node), Distribution::LocalShards, None) => node.reads_replicas,
        };
        let out: Vec<Row> = rows
            .iter()
            .filter(|row| seen(row) && spec.predicate.eval_row(row))
            .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
            .collect();
        Ok(Batch::from_rows(&out, cols.len()))
    }
}

impl TableProvider for Tables<'_> {
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>> {
        specs.iter().map(|spec| self.scan_one(spec).map(Pieces::one)).collect()
    }
}

/// What the rules may ask of the catalog: how wide a scan is...
fn scan_width(spec: &ScanSpec) -> Option<usize> {
    if spec.projection.as_deref() == Some(PIN) {
        return Some(PIN_LAYOUT.len());
    }
    let table = TABLES.iter().find(|(name, ..)| *name == spec.table)?;
    Some(spec.columns.as_ref().map_or(table.1.len(), Vec::len))
}

/// ... and which projection it reads: its pin, or `<table>_p`.
fn seg_of(spec: &ScanSpec) -> Option<(String, Layout)> {
    let (name, _, segmented) = TABLES.iter().find(|(name, ..)| *name == spec.table)?;
    let layout = match (spec.projection.as_deref(), segmented) {
        (Some(PIN), _) => Layout::LiveAggregate,
        (_, Some(cols)) => Layout::Segmented(cols.to_vec()),
        (_, None) => Layout::Replicated,
    };
    Some((spec.projection.clone().unwrap_or_else(|| format!("{name}_p")), layout))
}

fn prune(plan: &Plan) -> Plan {
    prune_columns(plan, &scan_width)
}

fn push(plan: &Plan) -> Plan {
    push_predicates(plan, &scan_width)
}

fn co_locate(plan: &Plan) -> Plan {
    co_locate_joins(plan, &scan_width, &seg_of)
}

type Rule = fn(&Plan) -> Plan;

/// `optimize`'s rule list without the Live Aggregate Projection rewrite,
/// which needs a catalog.
fn optimize(plan: &Plan) -> Plan {
    co_locate(&prune(&push(plan)))
}

// --------------------------------------------------------------- inputs

fn gen_tables(rng: &mut StdRng) -> Data {
    let cell = |rng: &mut StdRng, ty: Ty| match (rng.gen_range(0..8u32), ty) {
        (0, _) => Value::Null,
        (1..=5, Num) => Value::Int(rng.gen_range(0..5u32) as i64 - 1),
        (_, Num) => Value::Float([0.1, -2.5, 1e300, -0.0, 1.0, 2.0][rng.gen_range(0..6usize)]),
        (_, Other) => Value::Str(["", "a", "ab", "é"][rng.gen_range(0..4usize)].into()),
    };
    let table = |rng: &mut StdRng, tys: &[Ty]| -> Vec<Row> {
        // At least one row, so the provider knows the table's width.
        (0..rng.gen_range(1..25usize)).map(|_| tys.iter().map(|&ty| cell(rng, ty)).collect()).collect()
    };
    TABLES.iter().map(|(name, tys, _)| (name.to_string(), table(rng, tys))).collect()
}

fn pick(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n)
}

/// A column of type `Num`, if the input has one.
fn num_col(rng: &mut StdRng, tys: &[Ty]) -> Option<usize> {
    let nums: Vec<usize> = (0..tys.len()).filter(|&c| tys[c] == Num).collect();
    (!nums.is_empty()).then(|| nums[pick(rng, nums.len())])
}

/// A scalar over the input: a bare column, or arithmetic over `Num`s.
fn gen_scalar(rng: &mut StdRng, tys: &[Ty]) -> (Expr, Ty) {
    let any = pick(rng, tys.len());
    match (pick(rng, 3), num_col(rng, tys), num_col(rng, tys)) {
        (1, Some(a), Some(b)) => {
            (Expr::mul(Expr::col(a), Expr::sub(Expr::lit(1i64), Expr::col(b))), Num)
        }
        (2, Some(a), _) => (Expr::add(Expr::col(a), Expr::lit(0.5)), Num),
        _ => (Expr::col(any), tys[any]),
    }
}

/// A literal of the type a column of type `ty` holds.
fn gen_lit(rng: &mut StdRng, ty: Ty) -> Value {
    match (pick(rng, 6), ty) {
        (0, _) => Value::Null,
        (1, Num) => Value::Float([0.1, -0.0][pick(rng, 2)]),
        (_, Num) => Value::Int(pick(rng, 4) as i64 - 1),
        (_, Other) => Value::Str(["", "a", "é"][pick(rng, 3)].into()),
    }
}

/// A test a scan can evaluate: a typed `col op lit` (either way round),
/// `IS [NOT] NULL` or `IN`, or — at `depth` > 0 — an `AND` / `OR` of
/// such tests, on columns that may come from different scans.
fn gen_scan_test(rng: &mut StdRng, tys: &[Ty], depth: usize) -> Expr {
    let c = pick(rng, tys.len());
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let op = ops[pick(rng, ops.len())];
    match pick(rng, if depth == 0 { 5 } else { 7 }) {
        0 => Expr::cmp(op, Expr::col(c), Expr::Lit(gen_lit(rng, tys[c]))),
        1 => Expr::cmp(op, Expr::Lit(gen_lit(rng, tys[c])), Expr::col(c)),
        2 => Expr::IsNull(Box::new(Expr::col(c))),
        3 => Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(c))))),
        4 => Expr::InList {
            expr: Box::new(Expr::col(c)),
            list: (0..pick(rng, 3) + 1).map(|_| gen_lit(rng, tys[c])).collect(),
            negated: false,
        },
        5 => Expr::And((0..2).map(|_| gen_scan_test(rng, tys, depth - 1)).collect()),
        _ => Expr::Or((0..2).map(|_| gen_scan_test(rng, tys, depth - 1)).collect()),
    }
}

/// A column of the same type as column `a` (possibly `a` itself).
fn same_type_col(rng: &mut StdRng, tys: &[Ty], a: usize) -> usize {
    let like: Vec<usize> = (0..tys.len()).filter(|&c| tys[c] == tys[a]).collect();
    like[pick(rng, like.len())]
}

fn gen_condition(rng: &mut StdRng, tys: &[Ty]) -> Expr {
    let a = pick(rng, tys.len());
    let b = same_type_col(rng, tys, a);
    match pick(rng, 6) {
        0 => Expr::cmp(CmpOp::Le, Expr::col(a), Expr::col(b)),
        1 => Expr::Or(vec![
            Expr::cmp(CmpOp::Gt, Expr::col(a), Expr::Lit(gen_lit(rng, tys[a]))),
            Expr::IsNull(Box::new(Expr::col(b))),
        ]),
        2 => Expr::InList {
            expr: Box::new(Expr::col(a)),
            list: vec![gen_lit(rng, tys[a])],
            negated: true,
        },
        3 => match num_col(rng, tys) {
            Some(n) => Expr::cmp(CmpOp::Ne, Expr::add(Expr::col(n), Expr::lit(0.5)), Expr::lit(1i64)),
            None => Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(a), Expr::Lit(gen_lit(rng, tys[a]))))),
        },
        _ => gen_scan_test(rng, tys, 2),
    }
}

/// A `Filter` predicate: one condition, or the `AND` of a few.
fn gen_filter(rng: &mut StdRng, tys: &[Ty]) -> Expr {
    match pick(rng, 3) {
        0 => gen_condition(rng, tys),
        n => Expr::And((0..n + 1).map(|_| gen_condition(rng, tys)).collect()),
    }
}

fn gen_scan(rng: &mut StdRng) -> (Plan, Vec<Ty>) {
    let name = TABLES[pick(rng, TABLES.len())].0;
    gen_scan_of(rng, name)
}

fn gen_scan_of(rng: &mut StdRng, name: &str) -> (Plan, Vec<Ty>) {
    let tys = TABLES.iter().find(|t| t.0 == name).expect("a generated table").1;
    let mut spec = ScanSpec::new(name);
    if pick(rng, 3) == 0 {
        let col = pick(rng, tys.len());
        spec = spec.predicate(match pick(rng, 2) {
            0 => Predicate::cmp(col, CmpOp::Ge, 0i64),
            _ => Predicate::IsNotNull(col),
        });
    }
    if name == "t0" && pick(rng, 5) == 0 {
        return (Plan::Scan(spec.projection(PIN)), PIN_LAYOUT.iter().map(|&c| tys[c]).collect());
    }
    if pick(rng, 8) == 0 {
        return (Plan::Scan(spec.projection(format!("{name}_p"))), tys.to_vec());
    }
    if pick(rng, 3) == 0 {
        // Pre-narrowed, in any order, repeats allowed.
        let cols: Vec<usize> = (0..rng.gen_range(1..tys.len() + 1)).map(|_| pick(rng, tys.len())).collect();
        let out = cols.iter().map(|&c| tys[c]).collect();
        return (Plan::Scan(spec.columns(cols)), out);
    }
    (Plan::Scan(spec), tys.to_vec())
}

fn gen_plan(rng: &mut StdRng, depth: usize) -> (Plan, Vec<Ty>) {
    if depth == 0 || pick(rng, 5) == 0 {
        return gen_scan(rng);
    }
    let (input, tys) = gen_plan(rng, depth - 1);
    match pick(rng, 7) {
        0 => (input.filter(gen_filter(rng, &tys)), tys),
        1 => {
            let (exprs, out): (Vec<Expr>, Vec<Ty>) =
                (0..rng.gen_range(1..5usize)).map(|_| gen_scalar(rng, &tys)).unzip();
            let names = (0..exprs.len()).map(|i| format!("c{i}")).collect();
            (Plan::Project { input: Box::new(input), exprs, names }, out)
        }
        2 | 3 => {
            let (right, right_tys) = gen_plan(rng, depth - 1);
            let keys = rng.gen_range(1..3usize);
            let left_keys = (0..keys).map(|_| pick(rng, tys.len())).collect();
            let right_keys = (0..keys).map(|_| pick(rng, right_tys.len())).collect();
            let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti][pick(rng, 4)];
            let mut out = tys;
            if matches!(kind, JoinKind::Inner | JoinKind::Left) {
                out.extend(right_tys);
            }
            let join = input.join_kind(right, left_keys, right_keys, kind);
            // Half the joins get a filter over both sides, as a bound
            // WHERE clause puts one.
            match pick(rng, 2) {
                0 => (join.filter(gen_filter(rng, &out)), out),
                _ => (join, out),
            }
        }
        4 => {
            let group_by: Vec<usize> = (0..pick(rng, 3)).map(|_| pick(rng, tys.len())).collect();
            let mut out: Vec<Ty> = group_by.iter().map(|&g| tys[g]).collect();
            let aggs: Vec<AggSpec> = (0..rng.gen_range(1..4usize))
                .map(|_| match (pick(rng, 5), num_col(rng, &tys)) {
                    (0, _) => AggSpec::count_star(),
                    (1, Some(a)) => AggSpec::sum(Expr::mul(Expr::col(a), Expr::lit(2i64))),
                    (2, Some(a)) => AggSpec::avg(Expr::col(a)),
                    (3, _) => AggSpec::new(AggFunc::CountDistinct, Expr::col(pick(rng, tys.len()))),
                    _ => AggSpec::new(AggFunc::Count, gen_scalar(rng, &tys).0),
                })
                .collect();
            out.extend(aggs.iter().map(|_| Num));
            (input.aggregate(group_by, aggs), out)
        }
        5 => {
            let keys = (0..rng.gen_range(1..3usize))
                .map(|_| SortKey { col: pick(rng, tys.len()), desc: pick(rng, 2) == 0 })
                .collect();
            (input.sort(keys), tys)
        }
        _ => (input.limit(pick(rng, 12)), tys),
    }
}

/// Join keys over inputs `left` and `right` wide: on each side, half the
/// time the first columns in either order — where the segmentation
/// columns sit — so co-segmented pairs, and pairs matched out of order,
/// are common.
fn gen_keys(rng: &mut StdRng, left: usize, right: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rng.gen_range(1..3usize);
    let mut side = |width: usize| -> Vec<usize> {
        match pick(rng, 4) {
            0 => [0, 1][..n].iter().map(|&c| c.min(width - 1)).collect(),
            1 => [1, 0][..n].iter().map(|&c| c.min(width - 1)).collect(),
            _ => (0..n).map(|_| pick(rng, width)).collect(),
        }
    };
    (side(left), side(right))
}

/// A project of columns, in any order and with repeats, now and then
/// with a computed one.
fn gen_column_project(rng: &mut StdRng, input: Plan, tys: &[Ty]) -> (Plan, Vec<Ty>) {
    let (exprs, out): (Vec<Expr>, Vec<Ty>) = (0..rng.gen_range(1..5usize))
        .map(|_| match pick(rng, 5) {
            0 => gen_scalar(rng, tys),
            _ => {
                let c = pick(rng, tys.len());
                (Expr::col(c), tys[c])
            }
        })
        .unzip();
    let names = (0..exprs.len()).map(|i| format!("c{i}")).collect();
    (Plan::Project { input: Box::new(input), exprs, names }, out)
}

fn global(plan: Plan) -> Plan {
    match plan {
        Plan::Scan(spec) => Plan::Scan(spec.global()),
        plan => plan,
    }
}

/// A join's right input as the binder and the hand-built plans make it —
/// a `Global` scan under filters and column projects — and now and then
/// a sort or a limit, which must keep it broadcast. Half of them scan
/// `probe`, the table the left side scans: self-joins are where the
/// test tables are co-segmented on two columns.
fn gen_right(rng: &mut StdRng, probe: &str) -> (Plan, Vec<Ty>) {
    let (scan, mut tys) = match pick(rng, 2) {
        0 => gen_scan_of(rng, probe),
        _ => gen_scan(rng),
    };
    let mut plan = global(scan);
    for _ in 0..pick(rng, 3) {
        plan = match pick(rng, 6) {
            0 | 1 => plan.filter(gen_filter(rng, &tys)),
            2 | 3 => {
                let (project, out) = gen_column_project(rng, plan, &tys);
                tys = out;
                project
            }
            4 => plan.sort(vec![SortKey::asc(pick(rng, tys.len()))]),
            _ => plan.limit(pick(rng, 6)),
        };
    }
    (plan, tys)
}

/// A plan `auto_distribute` may run on every node: a left-deep spine over
/// one scan — shard-local, now and then global — of filters, sorts,
/// column projects and joins of all four kinds with [`gen_right`] inputs,
/// under an aggregate whose answer does not depend on row order, or
/// under nothing.
fn gen_local_phase(rng: &mut StdRng) -> Plan {
    let probe = TABLES[pick(rng, TABLES.len())].0;
    let (mut plan, mut tys) = gen_scan_of(rng, probe);
    if pick(rng, 4) == 0 {
        plan = global(plan);
    }
    for _ in 0..rng.gen_range(1..5usize) {
        match pick(rng, 6) {
            0 => plan = plan.filter(gen_filter(rng, &tys)),
            1 => plan = plan.sort(vec![SortKey::desc(pick(rng, tys.len()))]),
            2 => (plan, tys) = gen_column_project(rng, plan, &tys),
            _ => {
                let (right, right_tys) = gen_right(rng, probe);
                let (left_keys, right_keys) = gen_keys(rng, tys.len(), right_tys.len());
                let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti][pick(rng, 4)];
                if matches!(kind, JoinKind::Inner | JoinKind::Left) {
                    tys.extend(right_tys);
                }
                plan = plan.join_kind(right, left_keys, right_keys, kind);
            }
        }
    }
    if pick(rng, 2) == 0 {
        return plan;
    }
    let group_by = (0..pick(rng, 3)).map(|_| pick(rng, tys.len())).collect();
    let aggs = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let c = Expr::col(pick(rng, tys.len()));
            match pick(rng, 5) {
                0 => AggSpec::count_star(),
                1 => AggSpec::new(AggFunc::Count, c),
                2 => AggSpec::new(AggFunc::CountDistinct, c),
                3 => AggSpec::min(c),
                _ => AggSpec::max(c),
            }
        })
        .collect();
    plan.aggregate(group_by, aggs)
}

/// The participants of a session over one to four shards: each shard
/// served by one node (a node may serve several), or — crunch — by one
/// to three workers, each keeping a hash slice of it. The first
/// participant reads replicated tables' shard-local scans.
fn gen_session(rng: &mut StdRng) -> Vec<NodeView> {
    let shards = rng.gen_range(1..5usize);
    let node = |serves, slice| NodeView { serves, shards, slice, reads_replicas: false };
    let mut session: Vec<NodeView> = if pick(rng, 2) == 0 {
        let mut serves = vec![Vec::new(); rng.gen_range(1..shards + 1)];
        for shard in 0..shards {
            let n = pick(rng, serves.len());
            serves[n].push(shard);
        }
        serves.into_iter().filter(|s| !s.is_empty()).map(|s| node(s, CrunchSlice::all())).collect()
    } else {
        (0..shards)
            .flat_map(|shard| {
                let k = rng.gen_range(1..4usize);
                (0..k).map(move |w| (shard, CrunchSlice::new(w, k)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(shard, slice)| node(vec![shard], slice))
            .collect()
    };
    session[0].reads_replicas = true;
    session
}

/// `plan` split by `auto_distribute`, its local phase run on every
/// participant — on one when it scans nothing shard-local, as the
/// coordinator does — and finished.
fn distributed(plan: &Plan, data: &Data, session: &[NodeView]) -> Result<Batch> {
    let dp = auto_distribute(plan);
    let nodes = if dp.has_local_scan() { session } else { &session[..1] };
    let results = nodes
        .iter()
        .map(|node| dp.execute_local(&Tables { data, node: Some(node) }))
        .collect::<Result<Vec<_>>>()?;
    dp.finish(results)
}

// --------------------------------------------------------------- checks

/// Rows as a sorted multiset, numbers by the bits of their `f64`: a
/// node's share folds in another order, and a group key or an extreme
/// may then keep the `Int` or the `Float` of equal values.
fn multiset(batch: Batch) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Int(i) => format!("{:016x}", (*i as f64).to_bits()),
        Value::Float(f) => format!("{:016x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    let mut rows: Vec<Vec<String>> = batch.into_rows().iter().map(|r| r.iter().map(cell).collect()).collect();
    rows.sort();
    rows
}

fn bits(batch: Batch) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float#{:016x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    batch.into_rows().iter().map(|r| r.iter().map(cell).collect()).collect()
}

fn width(plan: &Plan) -> usize {
    match plan {
        Plan::Scan(spec) => scan_width(spec).expect("generated tables exist"),
        Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => width(input),
        Plan::Project { exprs, .. } => exprs.len(),
        Plan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        Plan::Join { left, kind: JoinKind::Semi | JoinKind::Anti, .. } => width(left),
        Plan::Join { left, right, .. } => width(left) + width(right),
    }
}

/// Panics at an unpinned scan that outputs a column outside `read`, the
/// output columns something above it (or the query's result) reads.
fn assert_every_scanned_column_is_read(plan: &Plan, read: BTreeSet<usize>) {
    let cols_of = |e: &Expr| {
        let mut cols = BTreeSet::new();
        e.visit_cols(&mut |c| {
            cols.insert(c);
        });
        cols
    };
    match plan {
        Plan::Scan(spec) => {
            let all: BTreeSet<usize> = (0..width(plan)).collect();
            assert!(spec.projection.is_some() || read == all, "{spec:?} outputs {all:?}, read {read:?}");
        }
        Plan::Filter { input, predicate } => {
            assert_every_scanned_column_is_read(input, &read | &cols_of(predicate))
        }
        Plan::Sort { input, keys } => {
            assert_every_scanned_column_is_read(input, &read | &keys.iter().map(|k| k.col).collect())
        }
        Plan::Limit { input, .. } => assert_every_scanned_column_is_read(input, read),
        Plan::Project { input, exprs, .. } => {
            let below = read.iter().flat_map(|&i| cols_of(&exprs[i])).collect();
            assert_every_scanned_column_is_read(input, below)
        }
        Plan::Aggregate { input, group_by, aggs } => {
            let inputs = aggs.iter().flat_map(|a| cols_of(&a.expr));
            assert_every_scanned_column_is_read(input, group_by.iter().copied().chain(inputs).collect())
        }
        Plan::Join { left, right, left_keys, right_keys, .. } => {
            let left_width = width(left);
            let (l, r): (BTreeSet<usize>, BTreeSet<usize>) = read.iter().partition(|&&i| i < left_width);
            let r = r.iter().map(|i| i - left_width);
            assert_every_scanned_column_is_read(left, l.into_iter().chain(left_keys.iter().copied()).collect());
            assert_every_scanned_column_is_read(right, r.chain(right_keys.iter().copied()).collect());
        }
    }
}

proptest! {
    #[test]
    fn rewritten_plans_answer_alike_and_scan_only_what_is_read(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = gen_tables(&mut rng);
        let tables = Tables { data: &data, node: None };
        let rules: [(&str, Rule); 4] = [
            ("push_predicates", push),
            ("prune_columns", prune),
            ("co_locate_joins", co_locate),
            ("optimize", optimize),
        ];
        for _ in 0..8 {
            let (plan, _) = gen_plan(&mut rng, 4);
            let want = execute(&plan, &tables).expect("generated plans are well typed");
            let (want_width, want) = (want.width(), bits(want));
            for (name, rule) in rules {
                let out = rule(&plan);
                let what = format!("{name}: {plan:?}→\n{out:?}");
                let got = execute(&out, &tables).expect("a rule keeps a plan executable");
                prop_assert_eq!(got.width(), want_width, "{}", what);
                prop_assert_eq!(&bits(got), &want, "{}", what);
                if let (Plan::Project { names: a, .. }, Plan::Project { names: b, .. }) = (&plan, &out) {
                    prop_assert_eq!(a, b, "{}", what);
                }
                prop_assert_eq!(&rule(&out), &out, "not idempotent: {}", what);
                if matches!(name, "prune_columns" | "optimize") {
                    assert_every_scanned_column_is_read(&out, (0..width(&out)).collect());
                }
            }
        }
    }

    #[test]
    fn optimized_local_phases_answer_on_every_node_like_the_plan_on_one(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = gen_tables(&mut rng);
        let one = Tables { data: &data, node: None };
        for _ in 0..8 {
            let plan = gen_local_phase(&mut rng);
            let session = gen_session(&mut rng);
            let want = multiset(execute(&plan, &one).expect("generated plans are well typed"));
            let broadcast = distributed(&plan, &data, &session).expect("generated plans are well typed");
            prop_assert_eq!(&multiset(broadcast), &want, "the plan itself does not distribute: {:?}", plan);
            let out = optimize(&plan);
            let what = format!("{plan:?}→\n{out:?}");
            prop_assert_eq!(&co_locate(&out), &out, "not idempotent: {}", what);
            let got = distributed(&out, &data, &session).expect("a rule keeps a plan executable");
            prop_assert_eq!(&multiset(got), &want, "{}", what);
        }
    }
}

// ---------------------------------------------------------- named cases

fn scan(table: &str) -> ScanSpec {
    ScanSpec::new(table)
}

fn scans(plan: &Plan) -> Vec<ScanSpec> {
    let mut out = Vec::new();
    plan.visit_scans(&mut |s| out.push(s.clone()));
    out
}

/// An aggregate over a bare scan, the shape every `SELECT agg(..) FROM t
/// GROUP BY ..` local phase has.
#[test]
fn aggregate_over_a_bare_scan_narrows_the_scan() {
    // Group key 1 and input 2 survive, re-indexed; column 0 is not read.
    let sum_by = Plan::scan(scan("t0")).aggregate(vec![1], vec![AggSpec::sum(Expr::col(2)), AggSpec::count_star()]);
    assert_eq!(
        prune(&sum_by),
        Plan::scan(scan("t0").columns(vec![1, 2]))
            .aggregate(vec![0], vec![AggSpec::sum(Expr::col(1)), AggSpec::count_star()])
    );
    // COUNT(*) alone reads no column at all.
    let count = Plan::scan(scan("t0")).aggregate(vec![], vec![AggSpec::count_star()]);
    assert_eq!(scans(&prune(&count)), vec![scan("t0").columns(vec![])]);
    // A computed input narrows the scan to its operands.
    let product = |a, b| AggSpec::sum(Expr::mul(Expr::col(a), Expr::sub(Expr::lit(1i64), Expr::col(b))));
    let computed = Plan::scan(scan("t0")).aggregate(vec![], vec![product(2, 0)]);
    assert_eq!(
        prune(&computed),
        Plan::scan(scan("t0").columns(vec![0, 2])).aggregate(vec![], vec![product(1, 0)])
    );
}

/// A Q3-shaped plan: the need splits at each join's left width, both
/// key lists are added, and a pushed-down predicate keeps its column
/// without the scan outputting it.
#[test]
fn joins_split_the_need_and_keep_their_keys() {
    let shipped = Predicate::cmp(3, CmpOp::Gt, 0i64);
    let plan = Plan::scan(scan("t2").predicate(shipped.clone()))
        .join(Plan::scan(scan("t0")), vec![0], vec![0])
        .join(Plan::scan(scan("t1").global()), vec![5], vec![0])
        .aggregate(vec![4, 10], vec![AggSpec::sum(Expr::col(1))])
        .sort(vec![SortKey::desc(2)])
        .limit(10);
    let pruned = prune(&plan);
    assert_eq!(
        scans(&pruned),
        vec![
            scan("t2").predicate(shipped).columns(vec![0, 1]),
            scan("t0").columns(vec![0, 1]),
            scan("t1").global().columns(vec![0, 1]),
        ]
    );
    let Plan::Limit { input, .. } = &pruned else { panic!("{pruned:?}") };
    let Plan::Sort { input, keys } = &**input else { panic!("{pruned:?}") };
    assert_eq!(keys, &vec![SortKey::desc(2)]);
    let Plan::Aggregate { input, group_by, aggs } = &**input else { panic!("{pruned:?}") };
    assert_eq!((group_by, aggs), (&vec![2, 5], &vec![AggSpec::sum(Expr::col(1))]));
    let Plan::Join { left_keys, right_keys, .. } = &**input else { panic!("{pruned:?}") };
    assert_eq!((left_keys, right_keys), (&vec![3], &vec![0]));

    // The probe side of a semi join is read for its keys only.
    let semi = Plan::scan(scan("t0")).join_kind(Plan::scan(scan("t2")), vec![1], vec![3], JoinKind::Semi);
    assert_eq!(scans(&prune(&semi)), vec![scan("t0"), scan("t2").columns(vec![3])]);
}

/// The root keeps its width, order and names; a pinned scan keeps its
/// layout and the plan prunes around it; a plan the rule cannot index
/// comes back as it was, for execution to report.
#[test]
fn root_pinned_scans_and_broken_plans_are_left_alone() {
    let root = Plan::scan(scan("t1")).project(vec![Expr::col(2), Expr::col(2)], vec!["a", "b"]).sort(vec![SortKey::asc(0)]);
    let Plan::Sort { input, .. } = prune(&root) else { panic!() };
    let Plan::Project { input, exprs, names } = *input else { panic!() };
    assert_eq!((exprs, names), (vec![Expr::col(0), Expr::col(0)], vec!["a".to_owned(), "b".to_owned()]));
    assert_eq!(*input, Plan::scan(scan("t1").columns(vec![2])));

    let pinned = Plan::scan(scan("t0").projection(PIN))
        .join(Plan::scan(scan("t1")), vec![1], vec![0])
        .aggregate(vec![0], vec![AggSpec::max(Expr::col(3))]);
    assert_eq!(scans(&prune(&pinned)), vec![scan("t0").projection(PIN), scan("t1").columns(vec![0, 1])]);

    for broken in [
        Plan::scan(scan("t1")).aggregate(vec![7], vec![AggSpec::count_star()]),
        Plan::scan(scan("nowhere")).filter(Expr::col(0)),
        Plan::scan(scan("t1")).join_kind(Plan::scan(scan("t2")), vec![0], vec![0], JoinKind::Anti).sort(vec![SortKey::asc(4)]),
    ] {
        assert_eq!(prune(&broken), broken);
    }
}

/// Where a conjunct may move: into the one scan it tests, through
/// filters and the preserved side of a join, mapped through a column
/// list, after the predicate the scan carries. It never goes below the
/// nullable side of a left join or into a pinned scan, and a conjunct
/// that spans two scans or has no scan shape stays where it was.
#[test]
fn conjuncts_move_into_the_one_scan_they_test_where_they_may() {
    let col = |c: usize| Box::new(Expr::col(c));
    let lt = |c: usize, v: i64| Expr::cmp(CmpOp::Lt, Expr::col(c), Expr::lit(v));
    // t0 (5 columns: output 0..5) ⋈ t1 narrowed to [2, 0] (output 5, 6).
    let t0 = || scan("t0").predicate(Predicate::IsNotNull(4));
    let t1 = || scan("t1").columns(vec![2, 0]);
    let join = |kind, left: ScanSpec, right: ScanSpec| {
        Plan::scan(left).join_kind(Plan::scan(right), vec![0], vec![1], kind)
    };
    let spanning = Expr::cmp(CmpOp::Le, Expr::col(0), Expr::col(5));

    // Inner: both sides move; `3 < c` flips; the right side maps
    // through its column list; t0 keeps its own predicate first.
    let plan = join(JoinKind::Inner, t0(), t1()).filter(Expr::And(vec![
        lt(1, 5),
        Expr::cmp(CmpOp::Lt, Expr::lit(3i64), Expr::col(5)),
        spanning.clone(),
    ]));
    let moved_left = Predicate::And(vec![Predicate::IsNotNull(4), Predicate::cmp(1, CmpOp::Lt, 5i64)]);
    let moved_right = Predicate::cmp(2, CmpOp::Gt, 3i64);
    let want = join(JoinKind::Inner, t0().predicate(moved_left.clone()), t1().predicate(moved_right))
        .filter(spanning.clone());
    assert_eq!(push(&plan), want);
    assert_eq!(push(&want), want);

    // Left: the test on the padded side stays above the join, alone.
    let padded = Expr::IsNull(col(6));
    let plan = join(JoinKind::Left, t0(), t1()).filter(Expr::And(vec![lt(1, 5), padded.clone()]));
    assert_eq!(push(&plan), join(JoinKind::Left, t0().predicate(moved_left.clone()), t1()).filter(padded));

    // Semi / anti: the output is the left side, which the filter may
    // thin first; a filter left empty is dropped, through a filter below.
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        let plan = join(kind, t0(), t1()).filter(Expr::cmp(CmpOp::Ne, Expr::col(3), Expr::lit("a"))).filter(lt(1, 5));
        let inner = Predicate::cmp(3, CmpOp::Ne, "a");
        let want = join(kind, t0().predicate(Predicate::And(vec![Predicate::IsNotNull(4), Predicate::cmp(1, CmpOp::Lt, 5i64), inner])), t1());
        assert_eq!(push(&plan), want, "{kind:?}");
    }

    // `IN`, `IS NOT NULL` and `AND` / `OR` of tests on one scan move as
    // one predicate; `NOT IN` and a test under a pinned scan stay.
    let one_scan = Expr::Or(vec![
        Expr::InList { expr: col(2), list: vec![Value::Int(1), Value::Int(2)], negated: false },
        Expr::And(vec![Expr::Not(Box::new(Expr::IsNull(col(3)))), lt(0, 0)]),
    ]);
    let plan = Plan::scan(scan("t0")).filter(one_scan);
    let want = Predicate::Or(vec![
        Predicate::Or(vec![Predicate::eq(2, 1i64), Predicate::eq(2, 2i64)]),
        Predicate::And(vec![Predicate::IsNotNull(3), Predicate::cmp(0, CmpOp::Lt, 0i64)]),
    ]);
    assert_eq!(push(&plan), Plan::scan(scan("t0").predicate(want)));
    for stays in [
        Plan::scan(scan("t0")).filter(Expr::InList { expr: col(2), list: vec![Value::Int(1)], negated: true }),
        Plan::scan(scan("t0").projection(PIN)).filter(lt(0, 5)),
        Plan::scan(scan("t0")).project(vec![Expr::col(1)], vec!["a"]).filter(lt(0, 5)),
    ] {
        assert_eq!(push(&stays), stays);
    }
}

/// The shapes `co_locate_joins` exists for, and the near misses it must
/// leave broadcast.
#[test]
fn co_segmented_joins_read_shard_local_and_near_misses_stay_broadcast() {
    let local = |t: &str| scan(t).projection(format!("{t}_p"));
    // Q3: the second join's key is a column of the first join's right
    // side, so only the first is co-located; pruning happens first.
    let q3 = Plan::scan(scan("t0"))
        .join(Plan::scan(scan("t1").global()), vec![0], vec![0])
        .join(Plan::scan(scan("t2").global()), vec![5], vec![0]);
    assert_eq!(scans(&co_locate(&q3)), vec![scan("t0"), local("t1"), scan("t2").global()]);
    let counted = q3.aggregate(vec![6], vec![AggSpec::count_star()]);
    assert_eq!(
        scans(&optimize(&counted)),
        vec![scan("t0").columns(vec![0]), local("t1").columns(vec![0, 1]), scan("t2").global().columns(vec![0])]
    );

    // Keys through a filter, a sort and a column project on the left and
    // a filter and a project on the right, for every join kind.
    for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
        let left = Plan::scan(scan("t1"))
            .filter(Expr::IsNull(Box::new(Expr::col(1))))
            .sort(vec![SortKey::asc(2)])
            .project(vec![Expr::col(2), Expr::col(0)], vec!["a", "b"]);
        let right = Plan::scan(scan("t0").global())
            .filter(Expr::IsNull(Box::new(Expr::col(3))))
            .project(vec![Expr::col(1), Expr::col(0)], vec!["c", "d"]);
        let plan = left.join_kind(right, vec![1], vec![1], kind);
        assert_eq!(scans(&co_locate(&plan))[1], local("t0"), "{kind:?}");
    }

    // Two segmentation columns match position by position.
    let t2 = |right_keys| Plan::scan(scan("t2")).join(Plan::scan(scan("t2").global()), vec![0, 1], right_keys);
    assert_eq!(scans(&co_locate(&t2(vec![0, 1])))[1], local("t2"));

    let t1 = || Plan::scan(scan("t1").global());
    for stays in [
        // Swapped segmentation columns, and one of two.
        t2(vec![1, 0]),
        Plan::scan(scan("t2")).join(Plan::scan(scan("t2").global()), vec![1], vec![1]),
        // Segmented on one column and on two.
        Plan::scan(scan("t0")).join(Plan::scan(scan("t2").global()), vec![0], vec![1]),
        // A replicated side, a Live Aggregate Projection, a global left.
        Plan::scan(scan("t1")).join(Plan::scan(scan("t3").global()), vec![0], vec![0]),
        Plan::scan(scan("t3")).join(t1(), vec![0], vec![0]),
        Plan::scan(scan("t0").projection(PIN)).join(t1(), vec![1], vec![0]),
        Plan::scan(scan("t0").global()).join(t1(), vec![0], vec![0]),
        // A computed key, a key from a join's right side.
        Plan::scan(scan("t0")).project(vec![Expr::add(Expr::col(0), Expr::lit(0i64))], vec!["k"]).join(t1(), vec![0], vec![0]),
        Plan::scan(scan("t2")).join(Plan::scan(scan("t0").global()), vec![3], vec![1]).join(t1(), vec![4], vec![0]),
        // A right input that is more than filters and projects.
        Plan::scan(scan("t0")).join(t1().limit(3), vec![0], vec![0]),
        Plan::scan(scan("t0")).join(t1().aggregate(vec![0], vec![AggSpec::count_star()]), vec![0], vec![0]),
    ] {
        assert_eq!(co_locate(&stays), stays, "{stays:?}");
    }
}
