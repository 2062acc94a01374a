//! Property test of the plan rules (DESIGN.md "Plan rules"),
//! `push_predicates`, `prune_columns` and their composition in the order
//! `optimize` applies them: for seeded random plans over three small
//! tables — filters with conjuncts a scan can and cannot evaluate, over
//! all four join kinds and on their nullable sides, computed projects,
//! aggregates with computed inputs and `COUNT(*)`, sorts on columns the
//! output drops, limits, scans that already carry a predicate or a
//! column list, and pinned scans —
//!
//! * each rule's output answers like its input, row for row in order
//!   (floats by bits), same width, same names at a `Project` root;
//! * each rule is idempotent;
//! * after pruning, no scan outputs a column nothing above it reads
//!   (checked by an independent top-down walk that rebuilds nothing).
//!
//! Every comparison is well typed, so a pushed predicate and the
//! expression it came from cannot disagree about an error. The named
//! cases at the bottom pin the shapes the rules exist for.

use std::collections::{BTreeSet, HashMap};

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Batch, Predicate};
use eon_exec::{
    execute, prune_columns, push_predicates, AggFunc, AggSpec, Expr, JoinKind, Plan, ScanSpec,
    SortKey, TableProvider,
};
use eon_types::{EonError, Result, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

type Row = Vec<Value>;

/// Arithmetic and SUM / AVG take `Num` columns only, so no generated
/// plan errors: the rule may drop an erroring expression nobody reads,
/// and that is not the equivalence under test.
#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Num,
    Other,
}
use Ty::{Num, Other};

/// Table name → column types. `t0` also has the pinned projection.
const TABLES: [(&str, &[Ty]); 3] = [
    ("t0", &[Num, Num, Num, Other, Other]),
    ("t1", &[Num, Other, Num]),
    ("t2", &[Num, Num, Other, Num]),
];

/// The layout a scan pinned to `t0`'s projection `pin` yields, whatever
/// column list the spec carries (as a Live Aggregate Projection does).
const PIN: &str = "pin";
const PIN_LAYOUT: [usize; 2] = [3, 1];

struct Tables(HashMap<String, Vec<Row>>);

impl TableProvider for Tables {
    fn scan(&self, spec: &ScanSpec) -> Result<Batch> {
        let rows = self.0.get(&spec.table).ok_or_else(|| EonError::UnknownTable(spec.table.clone()))?;
        let all: Vec<usize> = (0..rows.first().map_or(0, Vec::len)).collect();
        let cols = match (&spec.projection, &spec.columns) {
            (Some(_), _) => PIN_LAYOUT.to_vec(),
            (None, Some(cols)) => cols.clone(),
            (None, None) => all,
        };
        let out: Vec<Row> = rows
            .iter()
            .filter(|row| spec.predicate.eval_row(row))
            .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
            .collect();
        Ok(Batch::from_rows(&out, cols.len()))
    }
}

/// What the rule may ask of the catalog.
fn scan_width(spec: &ScanSpec) -> Option<usize> {
    if spec.projection.is_some() {
        return Some(PIN_LAYOUT.len());
    }
    let table = TABLES.iter().find(|(name, _)| *name == spec.table)?;
    Some(spec.columns.as_ref().map_or(table.1.len(), Vec::len))
}

fn prune(plan: &Plan) -> Plan {
    prune_columns(plan, &scan_width)
}

fn push(plan: &Plan) -> Plan {
    push_predicates(plan, &scan_width)
}

type Rule = fn(&Plan) -> Plan;

/// `optimize`'s rule list without the Live Aggregate Projection rewrite,
/// which needs a catalog.
fn optimize(plan: &Plan) -> Plan {
    prune(&push(plan))
}

// --------------------------------------------------------------- inputs

fn gen_tables(rng: &mut StdRng) -> Tables {
    let cell = |rng: &mut StdRng, ty: Ty| match (rng.gen_range(0..8u32), ty) {
        (0, _) => Value::Null,
        (1..=5, Num) => Value::Int(rng.gen_range(0..5u32) as i64 - 1),
        (_, Num) => Value::Float([0.1, -2.5, 1e300, -0.0][rng.gen_range(0..4usize)]),
        (_, Other) => Value::Str(["", "a", "ab", "é"][rng.gen_range(0..4usize)].into()),
    };
    let table = |rng: &mut StdRng, tys: &[Ty]| -> Vec<Row> {
        // At least one row, so the provider knows the table's width.
        (0..rng.gen_range(1..25usize)).map(|_| tys.iter().map(|&ty| cell(rng, ty)).collect()).collect()
    };
    Tables(TABLES.iter().map(|(name, tys)| (name.to_string(), table(rng, tys))).collect())
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
    let (name, tys) = TABLES[pick(rng, TABLES.len())];
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

// --------------------------------------------------------------- checks

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
        let tables = gen_tables(&mut rng);
        let rules: [(&str, Rule); 3] =
            [("push_predicates", push), ("prune_columns", prune), ("optimize", optimize)];
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
                if name != "push_predicates" {
                    assert_every_scanned_column_is_read(&out, (0..width(&out)).collect());
                }
            }
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
