//! Answer checking. A result set is kept as the benchmark's own cells
//! so that nothing here depends on the program under test; floats
//! compare at 1e-9 relative (two nodes may add partial sums in either
//! order), everything else exactly.

#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

pub type Answer = Vec<Vec<Cell>>;

fn cell_eq(a: &Cell, b: &Cell) -> bool {
    match (a, b) {
        (Cell::Float(x), Cell::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / scale < 1e-9
        }
        _ => a == b,
    }
}

pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| cell_eq(x, y)))
}

/// The `ingest_mix` read returns `(region, COUNT(*), SUM(amount))`
/// ordered by region; `expect` is the generator's own sum over the
/// same id range, already in that order.
pub fn same_regions(got: &Answer, expect: &[(String, i64, i64)]) -> bool {
    got.len() == expect.len()
        && got.iter().zip(expect).all(|(row, (region, count, sum))| {
            row.as_slice()
                == [
                    Cell::Str(region.clone()),
                    Cell::Int(*count),
                    Cell::Int(*sum),
                ]
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_relatively_and_the_rest_exactly() {
        let a = vec![vec![Cell::Int(1), Cell::Float(1e12), Cell::Str("x".into())]];
        let near = vec![vec![
            Cell::Int(1),
            Cell::Float(1e12 + 1e-2),
            Cell::Str("x".into()),
        ]];
        let far = vec![vec![
            Cell::Int(1),
            Cell::Float(1e12 + 1e4),
            Cell::Str("x".into()),
        ]];
        let other = vec![vec![Cell::Int(2), Cell::Float(1e12), Cell::Str("x".into())]];
        assert!(same_answer(&a, &near));
        assert!(!same_answer(&a, &far));
        assert!(!same_answer(&a, &other));
        assert!(!same_answer(&a, &vec![]));
        // An integer is not a float, however close.
        assert!(!same_answer(
            &vec![vec![Cell::Int(1)]],
            &vec![vec![Cell::Float(1.0)]]
        ));
    }

    #[test]
    fn region_rows_must_match_count_and_sum() {
        let got = vec![
            vec![Cell::Str("APAC".into()), Cell::Int(2), Cell::Int(30)],
            vec![Cell::Str("EU".into()), Cell::Int(1), Cell::Int(5)],
        ];
        let ok = [("APAC".to_string(), 2, 30), ("EU".to_string(), 1, 5)];
        let short = [("APAC".to_string(), 2, 30)];
        let off = [("APAC".to_string(), 2, 31), ("EU".to_string(), 1, 5)];
        assert!(same_regions(&got, &ok));
        assert!(!same_regions(&got, &short));
        assert!(!same_regions(&got, &off));
    }
}
