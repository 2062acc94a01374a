//! Differential property test of the batch operators (DESIGN.md
//! "Execution engine: batches"): for random typed batches, every
//! operator's output — transposed to rows — equals, exactly and in
//! order (floats by bits), what a naive row-at-a-time evaluator
//! computes. The evaluator below is the row engine this crate used to
//! ship, reduced to a reference: one obvious loop per operator, no
//! hashing tricks, no shared code with `ops`/`agg`/`Expr::eval`.
//!
//! Inputs cover NULLs in every column, NaN and -0.0, `i64::MIN/MAX`
//! (wrapping sums), empty and multi-byte strings, a heterogeneous
//! Int/Float `Values` column (`Int(1)` and `Float(1.0)` must hash and
//! group as one key), RLE-shaped runs of identical rows, zero-row
//! inputs, and batches built as a scan builds them: pieces whose string
//! column is dictionary-coded, each with its own dictionary, merged by
//! `Batch::concat`.
//!
//! One more property holds the executor to its pieces: any plan built
//! from these operators, run over a random cut of its tables into
//! pieces, answers exactly (floats by bits, rows in order) what it
//! answers over their `Batch::concat` — the running aggregate's
//! dictionary-slot and hash group ids, the piece-wise join probe and
//! limit, and zero or only empty pieces included.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Batch, Column, Data, StrVec};
use eon_exec::agg::{aggregate_partial, finalize_partials, merge_partials};
use eon_exec::expr::ArithOp;
use eon_exec::{
    auto_distribute, execute, ops, AggFunc, AggSpec, Expr, JoinKind, Pieces, Plan, ScanSpec,
    SortKey, TableProvider,
};
use eon_types::{EonError, Result, Value, ValueRef};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

type Row = Vec<Value>;

// ------------------------------------------------- the reference evaluator

fn eval(e: &Expr, row: &[Value]) -> Result<Value> {
    let bad = |what: &str| Err(EonError::Query(what.into()));
    Ok(match e {
        Expr::Col(i) => row[*i].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Arith { op, l, r } => match (eval(l, row)?, eval(r, row)?, op) {
            (Value::Null, _, _) | (_, Value::Null, _) => Value::Null,
            (Value::Int(a), Value::Int(b), ArithOp::Add) => Value::Int(a.wrapping_add(b)),
            (Value::Int(a), Value::Int(b), ArithOp::Sub) => Value::Int(a.wrapping_sub(b)),
            (Value::Int(a), Value::Int(b), ArithOp::Mul) => Value::Int(a.wrapping_mul(b)),
            (a, b, op) => match (a.as_float(), b.as_float(), op) {
                (Some(a), Some(b), ArithOp::Add) => Value::Float(a + b),
                (Some(a), Some(b), ArithOp::Sub) => Value::Float(a - b),
                (Some(a), Some(b), ArithOp::Mul) => Value::Float(a * b),
                (Some(a), Some(b), ArithOp::Div) => {
                    if b == 0.0 { Value::Null } else { Value::Float(a / b) }
                }
                _ => return bad("arithmetic over non-numeric"),
            },
        },
        Expr::Cmp { op, l, r } => match (eval(l, row)?, eval(r, row)?) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (a, b) => Value::Bool(op.accepts(a.cmp(&b))),
        },
        Expr::And(es) | Expr::Or(es) => {
            let decisive = matches!(e, Expr::Or(_));
            let mut verdict = Value::Bool(!decisive);
            for term in es {
                match eval(term, row)? {
                    Value::Bool(b) if b == decisive => return Ok(Value::Bool(b)),
                    Value::Bool(_) => {}
                    Value::Null => verdict = Value::Null,
                    _ => return bad("connective over non-boolean"),
                }
            }
            verdict
        }
        Expr::Not(e) => match eval(e, row)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            _ => return bad("NOT over non-boolean"),
        },
        Expr::IsNull(e) => Value::Bool(eval(e, row)?.is_null()),
        Expr::Case { whens, otherwise } => {
            for (cond, out) in whens {
                if eval(cond, row)? == Value::Bool(true) {
                    return eval(out, row);
                }
            }
            eval(otherwise, row)?
        }
        Expr::Like { expr, pattern, negated } => match eval(expr, row)? {
            Value::Null => Value::Null,
            // Every generated pattern is `prefix%`.
            Value::Str(s) => Value::Bool(s.starts_with(pattern.trim_end_matches('%')) != *negated),
            _ => return bad("LIKE over non-string"),
        },
        Expr::InList { expr, list, negated } => match eval(expr, row)? {
            Value::Null => Value::Null,
            v => Value::Bool(list.contains(&v) != *negated),
        },
        Expr::ExtractYear(e) => match eval(e, row)? {
            Value::Date(d) => Value::Int(eon_types::value::days_to_ymd(d).0 as i64),
            Value::Null => Value::Null,
            _ => return bad("EXTRACT over non-date"),
        },
    })
}

fn ref_project(rows: &[Row], exprs: &[Expr]) -> Result<Vec<Row>> {
    rows.iter().map(|row| exprs.iter().map(|e| eval(e, row)).collect()).collect()
}

fn ref_filter(rows: &[Row], pred: &Expr) -> Result<Vec<Row>> {
    let verdicts = ref_project(rows, std::slice::from_ref(pred))?;
    let kept = rows.iter().zip(verdicts).filter(|(_, v)| v[0] == Value::Bool(true));
    Ok(kept.map(|(row, _)| row.clone()).collect())
}

/// Nested loops: every left row against every right row, in order.
fn ref_join(left: &[Row], right: &[Row], lk: &[usize], rk: &[usize], kind: JoinKind) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        // NULL equals only NULL, so a non-NULL left key rules a NULL right key out.
        let on = |r: &&Row| lk.iter().zip(rk).all(|(&a, &b)| !l[a].is_null() && l[a] == r[b]);
        let matches: Vec<&Row> = right.iter().filter(on).collect();
        match (kind, matches.is_empty()) {
            (JoinKind::Semi, false) | (JoinKind::Anti, true) => out.push(l.clone()),
            (JoinKind::Semi | JoinKind::Anti, _) => {}
            (JoinKind::Left, true) => out.push(l.iter().cloned().chain(vec![Value::Null; WIDTH]).collect()),
            _ => out.extend(matches.iter().map(|r| l.iter().chain(r.iter()).cloned().collect::<Row>())),
        }
    }
    out
}

/// Everything any aggregate function needs of its non-NULL inputs.
#[derive(Default)]
struct Acc {
    /// Sum of the chunks folded so far, and of the chunk in progress.
    sum: Option<Value>,
    part: Option<Value>,
    n: i64,
    /// In `Value` order; of equal values (`Int(1)`, `Float(1.0)`) the
    /// first one inserted stays, which is also MIN/MAX's tie rule.
    seen: BTreeSet<Value>,
}

fn add(acc: Option<Value>, v: &Value) -> Option<Value> {
    Some(match (acc, v) {
        (None, v) => v.clone(),
        (Some(Value::Int(a)), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
        (Some(a), b) => Value::Float(a.as_float().unwrap_or(0.0) + b.as_float().unwrap_or(0.0)),
    })
}

/// Grouped aggregation row by row. Each chunk's sums are folded on
/// their own and added in chunk order, as per-node partials merge (one
/// chunk = the single-phase answer).
fn ref_aggregate(chunks: &[Vec<Row>], group_by: &[usize], aggs: &[AggSpec]) -> Result<Vec<Row>> {
    let fresh = || aggs.iter().map(|_| Acc::default()).collect::<Vec<_>>();
    let mut groups: Vec<(Row, Vec<Acc>)> = Vec::new();
    let mut index: HashMap<Row, usize> = HashMap::new();
    for chunk in chunks {
        for row in chunk {
            let key: Row = group_by.iter().map(|&c| row[c].clone()).collect();
            let g = *index.entry(key.clone()).or_insert(groups.len());
            if g == groups.len() {
                groups.push((key, fresh()));
            }
            for (acc, spec) in groups[g].1.iter_mut().zip(aggs) {
                let v = eval(&spec.expr, row)?;
                let numeric = matches!(v, Value::Null | Value::Int(_) | Value::Float(_));
                if !numeric && matches!(spec.func, AggFunc::Sum | AggFunc::Avg) {
                    return Err(EonError::Query("SUM / AVG over non-numeric".into()));
                }
                if !v.is_null() {
                    acc.part = add(acc.part.take(), &v);
                    acc.n += 1;
                    acc.seen.insert(v);
                }
            }
        }
        for acc in groups.iter_mut().flat_map(|(_, accs)| accs) {
            acc.sum = acc.part.take().iter().fold(acc.sum.take(), add);
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), fresh()));
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let finish = |acc: &Acc, func: AggFunc| match func {
        AggFunc::Count | AggFunc::CountStar => Value::Int(acc.n),
        AggFunc::CountDistinct => Value::Int(acc.seen.len() as i64),
        AggFunc::Avg => (acc.sum.as_ref())
            .map_or(Value::Null, |s| Value::Float(s.as_float().unwrap_or(0.0) / acc.n as f64)),
        AggFunc::Sum => acc.sum.clone().unwrap_or(Value::Null),
        AggFunc::Min => acc.seen.first().cloned().unwrap_or(Value::Null),
        AggFunc::Max => acc.seen.last().cloned().unwrap_or(Value::Null),
    };
    let aggregated = |accs: &[Acc]| accs.iter().zip(aggs).map(|(a, s)| finish(a, s.func)).collect::<Row>();
    Ok(groups.iter().map(|(key, accs)| key.iter().cloned().chain(aggregated(accs)).collect()).collect())
}

fn ref_sort(mut rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
    rows.sort_by(|a, b| {
        let ord = |k: &SortKey| if k.desc { b[k.col].cmp(&a[k.col]) } else { a[k.col].cmp(&b[k.col]) };
        keys.iter().map(ord).find(|o| *o != Ordering::Equal).unwrap_or(Ordering::Equal)
    });
    rows
}

// --------------------------------------------------------------- inputs

const WIDTH: usize = 7;

/// Columns: 0 small Int key, 1 wide Int, 2 Float, 3 Str, 4 Date, 5 Bool,
/// 6 a `Values` column mixing Int and Float. NULLs everywhere; each row
/// repeats 1–4 times so runs form.
fn gen_rows(rng: &mut StdRng, max: usize) -> Vec<Row> {
    let n = if rng.gen_range(0..8u32) == 0 { 0 } else { rng.gen_range(0..max) };
    let mut rows = Vec::new();
    while rows.len() < n {
        let mut pick = |n: usize| rng.gen_range(0..n);
        let mut row = vec![
            Value::Int(pick(5) as i64 - 2),
            Value::Int([i64::MIN, i64::MAX, -7, 0, 3, 1 << 40][pick(6)]),
            Value::Float([f64::NAN, -0.0, 0.0, 0.1, -2.5, 1e300, 7.0][pick(7)]),
            Value::Str(["", "a", "ab", "é", "aé"][pick(5)].into()),
            Value::Date([0, -400, 9_000, 19_999][pick(4)]),
            Value::Bool(pick(2) == 0),
            [Value::Int(1), Value::Float(1.0), Value::Int(2), Value::Float(0.5)][pick(4)].clone(),
        ];
        for cell in &mut row {
            if pick(7) == 0 {
                *cell = Value::Null;
            }
        }
        for _ in 0..rng.gen_range(1..5u32) {
            rows.push(row.clone());
        }
    }
    rows
}

fn exprs() -> Vec<Expr> {
    let col = Expr::col;
    let lt = |l, r| Expr::cmp(CmpOp::Lt, l, r);
    let not = |e| Expr::Not(Box::new(e));
    let is_null = |e| Expr::IsNull(Box::new(e));
    vec![
        Expr::add(col(1), col(0)),
        Expr::mul(col(2), Expr::lit(1.5)),
        Expr::div(col(1), col(0)),
        Expr::div(col(2), col(2)),
        Expr::sub(col(6), col(1)),
        Expr::sub(col(4), Expr::lit(1i64)),
        // Literals broadcast on either side: wrapping Int, a zero divisor, zero cells divided into.
        Expr::sub(Expr::lit(7i64), col(1)),
        Expr::div(col(1), Expr::lit(0i64)),
        Expr::div(Expr::lit(2.5), col(0)),
        Expr::div(col(2), Expr::lit(-0.0)),
        Expr::mul(Expr::sub(Expr::lit(1i64), col(2)), Expr::add(Expr::lit(1i64), col(6))),
        Expr::cmp(CmpOp::Ge, col(6), col(0)),
        Expr::cmp(CmpOp::Eq, col(3), Expr::lit("a")),
        Expr::cmp(CmpOp::Ne, col(2), col(1)),
        // A heterogeneous CASE: Str, Int and Float branches in one column.
        Expr::Case {
            whens: vec![(lt(col(0), Expr::lit(0i64)), Expr::lit("neg")), (is_null(col(0)), col(1))],
            otherwise: Box::new(col(2)),
        },
        // A branch that would error is never evaluated for rows that do not take it.
        Expr::Case { whens: vec![(is_null(col(3)), Expr::lit(0i64))], otherwise: Box::new(Expr::like(col(3), "a%")) },
        Expr::Like { expr: Box::new(col(3)), pattern: "a%".into(), negated: true },
        Expr::InList { expr: Box::new(col(6)), list: vec![Value::Int(1), Value::Float(0.5)], negated: false },
        Expr::InList { expr: Box::new(col(3)), list: vec![Value::Str("é".into())], negated: true },
        Expr::ExtractYear(Box::new(col(4))),
        Expr::And(vec![col(5), lt(Expr::lit(0i64), col(0))]),
        Expr::Or(vec![is_null(col(0)), col(5), lt(col(2), Expr::lit(0i64))]),
        not(Expr::Or(vec![col(5), is_null(col(1))])),
        // Short circuit: the erroring term runs only where the first leaves the row undecided.
        Expr::And(vec![Expr::lit(false), not(col(1))]),
        Expr::Or(vec![col(5), not(col(1))]),
        Expr::And(vec![is_null(col(5)), Expr::add(col(3), col(1))]),
        Expr::add(col(3), col(1)),
    ]
}

/// `rows` as a batch, built one of three ways by `seed`: transposed
/// whole, or — the way a scan builds one — cut into pieces whose string
/// column is dictionary-coded (each piece its own dictionary, entries
/// in a seeded order, one unused), every piece or every other one, then
/// concatenated.
fn to_batch(rows: &[Row], seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mode = seed % 3;
    if mode == 0 {
        return Batch::from_rows(rows, WIDTH);
    }
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..=rows.len())).collect();
    cuts.extend([0, rows.len()]);
    cuts.sort();
    let pieces = cuts.windows(2).enumerate().map(|(k, w)| {
        let piece = Batch::from_rows(&rows[w[0]..w[1]], WIDTH);
        if mode == 2 && k % 2 == 1 {
            return piece;
        }
        let mut cols = piece.into_cols();
        cols[3] = dict_coded(&cols[3], &mut rng);
        Batch::new(cols, w[1] - w[0])
    });
    Batch::concat(pieces.collect(), WIDTH)
}

/// A string column as codes into a dictionary of its distinct strings,
/// shuffled, plus one no cell uses; any other column as it is.
fn dict_coded(col: &Column, rng: &mut StdRng) -> Column {
    let cells: Vec<Option<&str>> = col
        .iter()
        .map(|v| match v {
            ValueRef::Str(s) => Some(s),
            _ => None,
        })
        .collect();
    let mut entries: Vec<&str> = cells.iter().flatten().copied().collect::<BTreeSet<_>>().into_iter().collect();
    if entries.is_empty() || col.iter().any(|v| !matches!(v, ValueRef::Str(_) | ValueRef::Null)) {
        return col.clone();
    }
    entries.push("unused");
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
    let mut dict = StrVec::default();
    entries.iter().for_each(|e| dict.push(e));
    let code = |s: &str| entries.iter().position(|e| *e == s).unwrap() as u32;
    let codes = cells.iter().map(|c| c.map_or(0, code)).collect();
    let valid = cells.iter().any(Option::is_none).then(|| cells.iter().map(Option::is_some).collect());
    Column::new(Data::Dict { dict: Arc::new(dict), codes }, valid)
}

/// Every aggregate function over every column shape.
fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::sum(Expr::col(1)),                         // wraps at i64::MIN/MAX
        AggSpec::sum(Expr::col(2)),                         // Float: order-sensitive
        AggSpec::sum(Expr::col(6)),                         // Int → Float promotion
        AggSpec::sum(Expr::mul(Expr::col(0), Expr::lit(2i64))),
        // Equal to the one above under `Value`'s `==`, yet a Float sum.
        AggSpec::sum(Expr::mul(Expr::col(0), Expr::lit(2.0))),
        AggSpec::new(AggFunc::Count, Expr::col(0)),
        AggSpec::count_star(),
        AggSpec::avg(Expr::col(1)),
        AggSpec::avg(Expr::col(2)),
        AggSpec::min(Expr::col(3)),
        AggSpec::max(Expr::col(2)),
        AggSpec::min(Expr::col(6)),
        AggSpec::new(AggFunc::CountDistinct, Expr::col(0)),
        AggSpec::new(AggFunc::CountDistinct, Expr::col(3)),
        // TPC-H Q1's computed inputs: price * (1 - discount) [* (1 + tax)].
        AggSpec::sum(Expr::mul(Expr::col(2), Expr::sub(Expr::lit(1i64), Expr::col(2)))),
        AggSpec::sum(Expr::mul(
            Expr::mul(Expr::col(2), Expr::sub(Expr::lit(1i64), Expr::col(2))),
            Expr::add(Expr::lit(1i64), Expr::col(2)),
        )),
        AggSpec::avg(Expr::col(6)),                         // Int/Float `Values`
    ]
}

/// Rows with floats spelled by bits, so NaN payloads and -0.0 count.
fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float#{:016x}", f.to_bits()),
        v => format!("{v:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

/// Same rows in the same order (and the width, which a zero-row batch
/// must still know) — or both sides a typed error.
fn check(got: Result<Batch>, want: Result<Vec<Row>>, width: usize, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.width(), width, "{what}: width");
            assert_eq!(bits(&got.into_rows()), bits(&want), "{what}");
        }
        (got, want) => assert_eq!(got.is_err(), want.is_err(), "{what}: error"),
    }
}

// ------------------------------------------------------ pieces ≡ whole

/// Scans answered from tables held as pieces, returned as they are
/// (every generated scan is a bare `ScanSpec::new(table)`).
struct PieceTables(HashMap<&'static str, Pieces>);

impl TableProvider for PieceTables {
    fn scan(&self, specs: &[&ScanSpec]) -> Result<Vec<Pieces>> {
        Ok(specs.iter().map(|s| self.0[s.table.as_str()].clone()).collect())
    }
}

impl PieceTables {
    /// The same tables, each as one piece: its pieces' `Batch::concat`.
    fn whole(&self) -> PieceTables {
        let one = |p: &Pieces| Pieces::one(Batch::concat(p.batches.clone(), p.width));
        PieceTables(self.0.iter().map(|(&t, p)| (t, one(p))).collect())
    }
}

/// `rows` cut at random the way a scan cuts them: some pieces empty,
/// each piece's string column dictionary-coded with a dictionary of its
/// own or left plain — and, with no rows, sometimes no piece at all.
fn to_pieces(rows: &[Row], rng: &mut StdRng) -> Pieces {
    if rows.is_empty() && rng.gen_range(0..2u32) == 0 {
        return Pieces { width: WIDTH, batches: Vec::new() };
    }
    let mut cuts: Vec<usize> = (0..rng.gen_range(0..6usize)).map(|_| rng.gen_range(0..=rows.len())).collect();
    cuts.extend([0, rows.len()]);
    cuts.sort();
    let batches = cuts.windows(2).map(|w| {
        let piece = Batch::from_rows(&rows[w[0]..w[1]], WIDTH);
        if rng.gen_range(0..3u32) == 0 {
            return piece;
        }
        let mut cols = piece.into_cols();
        cols[3] = dict_coded(&cols[3], rng);
        Batch::new(cols, w[1] - w[0])
    });
    Pieces { width: WIDTH, batches: batches.collect() }
}

/// Plans over tables `l` and `r` (both `WIDTH` wide): every filter and
/// projection expression, sort + limit and a bare limit, every join key
/// set and kind, grouped and global aggregates — string keys alone, in
/// pairs (the dictionary-slot path while the slots fit the piece, the
/// hash path once they do not) and beside a plain key — and a Q3-shaped
/// filter → join → aggregate → sort → limit.
fn plans(rng: &mut StdRng) -> Vec<Plan> {
    let scan = |t: &str| Plan::scan(ScanSpec::new(t));
    let mut plans = Vec::new();
    for e in exprs() {
        plans.push(scan("l").filter(e.clone()));
        plans.push(scan("l").project(vec![e, Expr::col(3)], vec!["e", "s"]));
    }
    let keys: Vec<SortKey> = (0..rng.gen_range(1..4usize))
        .map(|_| SortKey { col: rng.gen_range(0..WIDTH), desc: rng.gen_range(0..2u32) == 0 })
        .collect();
    let n = rng.gen_range(0..50usize);
    plans.push(scan("l").sort(keys).limit(n));
    plans.push(scan("l").limit(n));
    for (lk, rk) in [(vec![0], vec![0]), (vec![6, 0], vec![0, 6]), (vec![3], vec![3]), (vec![3, 0], vec![3, 0])] {
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            plans.push(scan("l").join_kind(scan("r"), lk.clone(), rk.clone(), kind));
        }
    }
    for group_by in [vec![], vec![0], vec![3], vec![3, 3], vec![3, 5], vec![6], vec![2]] {
        plans.push(scan("l").aggregate(group_by, aggs()));
    }
    let shipped = Expr::Or(vec![Expr::IsNull(Box::new(Expr::col(0))), Expr::col(5)]);
    let q3 = scan("l")
        .filter(shipped)
        .join(scan("r"), vec![3, 0], vec![3, 0])
        .aggregate(vec![3, 10], vec![AggSpec::sum(Expr::col(2)), AggSpec::sum(Expr::col(9)), AggSpec::count_star()])
        .sort(vec![SortKey::desc(2), SortKey::asc(0)])
        .limit(3);
    plans.push(q3);
    plans
}

/// Same width and rows by bits — or both a typed error.
fn same(got: Result<Batch>, want: Result<Batch>, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.width(), want.width(), "{what}: width");
            assert_eq!(bits(&got.into_rows()), bits(&want.into_rows()), "{what}");
        }
        (got, want) => assert_eq!(got.is_err(), want.is_err(), "{what}: error"),
    }
}

proptest! {
    #[test]
    fn pieces_answer_as_their_concatenation(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (left, right) = (gen_rows(&mut rng, 80), gen_rows(&mut rng, 25));
        let mut tables = HashMap::new();
        tables.insert("l", to_pieces(&left, &mut rng));
        tables.insert("r", to_pieces(&right, &mut rng));
        // An empty table as no piece, and as only empty pieces.
        tables.insert("none", Pieces { width: WIDTH, batches: Vec::new() });
        tables.insert("empty", Pieces { width: WIDTH, batches: vec![Batch::nulls(WIDTH, 0); 2] });
        let pieces = PieceTables(tables);
        let whole = pieces.whole();
        for (i, plan) in plans(&mut rng).iter().enumerate() {
            let what = format!("plan {i}: {plan:?}");
            same(execute(plan, &pieces), execute(plan, &whole), &what);
            // The same plan split as the cluster runs it: a node's local
            // phase, then the coordinator's merge.
            let dp = auto_distribute(plan);
            let distributed = |t: &PieceTables| dp.execute_local(t).and_then(|r| dp.finish(vec![r]));
            same(distributed(&pieces), distributed(&whole), &format!("distributed {what}"));
        }
        // A global aggregate over no row is one row: COUNT 0, SUM NULL.
        for table in ["none", "empty"] {
            let plan = Plan::scan(ScanSpec::new(table))
                .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))]);
            let out = execute(&plan, &pieces).unwrap().into_rows();
            prop_assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
            let dp = auto_distribute(&plan);
            let out = dp.finish(vec![dp.execute_local(&pieces).unwrap()]).unwrap().into_rows();
            prop_assert_eq!(out, vec![vec![Value::Int(0), Value::Null]]);
        }
    }
}

// --------------------------------------------------------------- operators

proptest! {
    #[test]
    fn batch_round_trips_rows(seed in 0u64..1_000_000) {
        let rows = gen_rows(&mut StdRng::seed_from_u64(seed), 40);
        let batch = to_batch(&rows, seed);
        if !rows.is_empty() {
            // Typed where the column is homogeneous, `Values` where it is not.
            prop_assert!(!matches!(batch.cols()[1].data(), Data::Values(_)));
        }
        // Every piece coded, the dictionary (at most six entries) is kept
        // over 24 rows or more.
        if seed % 3 == 1 && rows.len() >= 24 && rows.iter().any(|r| !r[3].is_null()) {
            prop_assert!(matches!(batch.cols()[3].data(), Data::Dict { .. }));
        }
        prop_assert_eq!(bits(&batch.into_rows()), bits(&rows));
    }

    #[test]
    fn filter_project_sort_limit_match_the_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, 60);
        let batch = || to_batch(&rows, seed);
        for (i, e) in exprs().iter().enumerate() {
            check(ops::filter(batch(), e), ref_filter(&rows, e), WIDTH, &format!("filter by expr {i}"));
            let pair = [e.clone(), Expr::col(3)];
            check(ops::project(batch(), &pair), ref_project(&rows, &pair), 2, &format!("project expr {i}"));
        }
        let keys: Vec<SortKey> = (0..rng.gen_range(1..4usize))
            .map(|_| SortKey { col: rng.gen_range(0..WIDTH), desc: rng.gen_range(0..2u32) == 0 })
            .collect();
        check(Ok(ops::sort(batch(), &keys)), Ok(ref_sort(rows.clone(), &keys)), WIDTH, "sort");
        let n = rng.gen_range(0..rows.len() + 2);
        let head = rows.iter().take(n).cloned().collect();
        check(Ok(ops::limit(batch(), n)), Ok(head), WIDTH, "limit");
    }

    #[test]
    fn joins_match_nested_loops(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (left, right) = (gen_rows(&mut rng, 40), gen_rows(&mut rng, 25));
        // Single key, composite key, the Int/Float `Values` key, and
        // string keys (dictionary-coded on either side, or both).
        let keys = [
            (vec![0], vec![0]), (vec![0, 5], vec![0, 5]), (vec![6], vec![6]), (vec![6, 0], vec![0, 6]),
            (vec![3], vec![3]), (vec![3, 0], vec![3, 0]),
        ];
        for (lk, rk) in keys {
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
                let width = if matches!(kind, JoinKind::Inner | JoinKind::Left) { 2 * WIDTH } else { WIDTH };
                for right in [&right, &Vec::new()] {
                    let build = ops::JoinBuild::new(to_batch(right, seed / 3), &rk);
                    let got = Ok(build.probe(&to_batch(&left, seed), &lk, kind));
                    let want = ref_join(&left, right, &lk, &rk, kind);
                    check(got, Ok(want), width, &format!("{kind:?} join on {lk:?}={rk:?}"));
                }
            }
        }
    }

    /// A dimension joined in, then grouped by its string: a build side
    /// of 1–8 rows whose string column is plain, dictionary-coded, plain
    /// with NULL cells, or all NULL, probed by a left side four times
    /// its size or more (`Inner` and `Left`), then SUM, COUNT(*) and
    /// COUNT(DISTINCT) by that column, the padding's NULL group
    /// included. Wherever the gather's dictionary rule applies, the
    /// joined column is codes.
    #[test]
    fn a_joined_dimension_groups_by_its_strings(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, shape) = (rng.gen_range(1..=8usize), rng.gen_range(0..4u32));
        let right: Vec<Row> = (0..n)
            .map(|i| {
                let mut row = vec![Value::Null; WIDTH];
                if rng.gen_range(0..6u32) > 0 {
                    row[0] = Value::Int(rng.gen_range(0..5i64) - 2);
                }
                row[1] = Value::Int(i as i64);
                if shape == 0 || (shape < 3 && rng.gen_range(0..3u32) > 0) {
                    row[3] = Value::Str(["", "a", "ab", "é"][rng.gen_range(0..4usize)].into());
                }
                row
            })
            .collect();
        let mut cols = Batch::from_rows(&right, WIDTH).into_cols();
        cols[3] = match shape {
            1 => dict_coded(&cols[3], &mut rng),
            3 => Column::new(Data::Str(StrVec::nulls(n)), Some(vec![false; n])),
            _ => cols[3].clone(),
        };
        // The entries the joined column would code: the build side's
        // rows, or its dictionary's length.
        let entries = match cols[3].data() {
            Data::Dict { dict, .. } => Some(dict.len()),
            _ => right.iter().any(|r| !r[3].is_null()).then_some(n),
        };
        let mut left = Vec::new();
        while left.len() < 4 * n {
            left.extend(gen_rows(&mut rng, 60));
        }
        let build = ops::JoinBuild::new(Batch::new(cols, n), &[0]);
        let aggs = [
            AggSpec::sum(Expr::col(2)),
            AggSpec::sum(Expr::col(1)),
            AggSpec::count_star(),
            AggSpec::new(AggFunc::CountDistinct, Expr::col(WIDTH + 1)),
        ];
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let joined = build.probe(&to_batch(&left, seed), &[0], kind);
            let want = ref_join(&left, &right, &[0], &[0], kind);
            check(Ok(joined.clone()), Ok(want.clone()), 2 * WIDTH, &format!("{kind:?} join"));
            if entries.is_some_and(|e| joined.rows() >= 4 * e) {
                let coded = matches!(joined.cols()[WIDTH + 3].data(), Data::Dict { .. });
                prop_assert!(coded, "{:?}", kind);
            }
            let group_by = [WIDTH + 3];
            let got = aggregate_partial(&joined, &group_by, &aggs)
                .map(|p| finalize_partials(p, 1 + aggs.len()));
            let want = ref_aggregate(&[want], &group_by, &aggs);
            check(got, want, 1 + aggs.len(), &format!("{kind:?} join grouped by its string"));
        }
    }

    /// The typed sort on one key of every shape — Int, wide Int, Float
    /// (NaN, ±0.0), Str (plain or dictionary-coded), Date, Bool, the
    /// Int/Float `Values` column, an untyped NULL column — ascending and
    /// descending, then on two keys: the stable `Value`-order sort. A
    /// row-number column shows every reordering of tied rows.
    #[test]
    fn typed_sort_is_the_stable_value_order(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, 60);
        let numbered: Vec<Row> = (rows.iter().enumerate())
            .map(|(i, r)| r.iter().cloned().chain([Value::Int(i as i64), Value::Null]).collect())
            .collect();
        let batch = || {
            let mut cols = to_batch(&rows, seed).into_cols();
            cols.push(Column::from_values((0..rows.len()).map(|i| ValueRef::Int(i as i64))));
            cols.push(Column::nulls(rows.len()));
            Batch::new(cols, rows.len())
        };
        let width = WIDTH + 2;
        for col in (0..WIDTH).chain([WIDTH + 1]) {
            for desc in [false, true] {
                let keys = [SortKey { col, desc }];
                let want = ref_sort(numbered.clone(), &keys);
                check(Ok(ops::sort(batch(), &keys)), Ok(want), width, &format!("sort by {keys:?}"));
            }
        }
        let keys = [
            SortKey { col: rng.gen_range(0..WIDTH), desc: rng.gen_range(0..2u32) == 0 },
            SortKey { col: rng.gen_range(0..WIDTH), desc: rng.gen_range(0..2u32) == 0 },
        ];
        check(Ok(ops::sort(batch(), &keys)), Ok(ref_sort(numbered, &keys)), width, &format!("sort by {keys:?}"));
    }

    /// An Int key joined with a Float key: `5` meets `5.0` (and
    /// `2^53 + 1` meets `2^53`, as `Value`'s equality has it), `0` meets
    /// `0.0` but not `-0.0`, and a NULL on either side meets nothing —
    /// whichever side builds.
    #[test]
    fn joins_match_across_int_and_float_keys(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let big = 1i64 << 53;
        let ints = [0, 5, -3, big, big + 1, i64::MIN];
        let floats = [0.0, -0.0, 5.0, -3.0, 0.5, big as f64, f64::NAN, i64::MIN as f64];
        let side = |rng: &mut StdRng, float: bool| -> Vec<Row> {
            (0..rng.gen_range(0..30usize))
                .map(|i| {
                    let key = match (rng.gen_range(0..6u32), float) {
                        (0, _) => Value::Null,
                        (_, false) => Value::Int(ints[rng.gen_range(0..ints.len())]),
                        (_, true) => Value::Float(floats[rng.gen_range(0..floats.len())]),
                    };
                    let mut row = vec![Value::Null; WIDTH];
                    row[..2].clone_from_slice(&[key, Value::Int(i as i64)]);
                    row
                })
                .collect()
        };
        let (ints_side, floats_side) = (side(&mut rng, false), side(&mut rng, true));
        for (left, right) in [(&ints_side, &floats_side), (&floats_side, &ints_side), (&ints_side, &ints_side)] {
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
                let width = if matches!(kind, JoinKind::Inner | JoinKind::Left) { 2 * WIDTH } else { WIDTH };
                let build = ops::JoinBuild::new(Batch::from_rows(right, WIDTH), &[0]);
                let got = Ok(build.probe(&Batch::from_rows(left, WIDTH), &[0], kind));
                let want = ref_join(left, right, &[0], &[0], kind);
                check(got, Ok(want), width, &format!("{kind:?} join of Int and Float keys"));
            }
        }
    }

    #[test]
    fn aggregates_match_the_row_fold(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = gen_rows(&mut rng, 80);
        let aggs = aggs();
        for group_by in [vec![], vec![0], vec![3, 5], vec![6], vec![2]] {
            let width = group_by.len() + aggs.len();
            // One chunk: the single-phase fold, Float sums bit-exact.
            // Several: per-node partials merged at the coordinator.
            for split in [1, rng.gen_range(2..5usize)] {
                let size = rows.len().div_ceil(split).max(1);
                let mut chunks: Vec<Vec<Row>> = rows.chunks(size).map(<[Row]>::to_vec).collect();
                chunks.resize(split, Vec::new()); // zero-row nodes answer too
                let parts = chunks
                    .iter()
                    .map(|c| aggregate_partial(&to_batch(c, seed), &group_by, &aggs))
                    .collect::<Result<Vec<_>>>();
                let got = parts.map(|p| finalize_partials(merge_partials(p), width));
                let what = format!("group by {group_by:?} over {split} chunks");
                check(got, ref_aggregate(&chunks, &group_by, &aggs), width, &what);
            }
            // SUM over strings: the typed error on both sides as soon as
            // a non-NULL string is reached, NULL (or no row) otherwise.
            let sum_str = [AggSpec::sum(Expr::col(3))];
            let got = aggregate_partial(&to_batch(&rows, seed), &group_by, &sum_str)
                .map(|p| finalize_partials(p, group_by.len() + 1));
            let want = ref_aggregate(std::slice::from_ref(&rows), &group_by, &sum_str);
            let reached = rows.iter().any(|r| !r[3].is_null());
            for err in [got.as_ref().err(), want.as_ref().err()] {
                let typed = matches!(err, Some(EonError::Query(_)));
                assert_eq!(typed, reached, "SUM over strings: {err:?}");
            }
            check(got, want, group_by.len() + 1, &format!("SUM over strings by {group_by:?}"));
        }
    }
}
