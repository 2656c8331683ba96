//! Output checks, run outside every timed region. Each compares what the
//! program returned with an independent computation: a fresh serial
//! executor on the reference kernels, over the plan as written.

use av_engine::{Catalog, Column, ExecResult, Executor, Pricing, RecordBatch};

/// Run `plan` on a fresh serial executor with the reference kernels.
pub fn reference(catalog: &Catalog, plan: &av_plan::PlanNode) -> ExecResult {
    Executor::new(catalog, Pricing::paper_defaults())
        .with_reference_kernels(true)
        .with_threads(1)
        .run(plan)
        .expect("reference execution of a generated plan")
}

/// One cell, ordered totally (floats by bit pattern, so equal multisets
/// compare equal only when every value is bitwise the same).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Cell<'a> {
    Int(i64),
    Float(u64),
    Str(&'a str),
}

fn rows(batch: &RecordBatch) -> Vec<Vec<Cell<'_>>> {
    let mut out: Vec<Vec<Cell<'_>>> =
        vec![Vec::with_capacity(batch.num_columns()); batch.num_rows()];
    for col in &batch.columns {
        match col {
            Column::Int(v) => out
                .iter_mut()
                .zip(v)
                .for_each(|(r, x)| r.push(Cell::Int(*x))),
            Column::Float(v) => out
                .iter_mut()
                .zip(v)
                .for_each(|(r, x)| r.push(Cell::Float(x.to_bits()))),
            Column::Str(v) => out
                .iter_mut()
                .zip(v.iter())
                .for_each(|(r, x)| r.push(Cell::Str(x))),
        }
    }
    out.sort();
    out
}

/// Whether two batches hold the same multiset of rows (column names and
/// row order may differ: a rewrite through a view renames and reorders).
pub fn same_rows(a: &RecordBatch, b: &RecordBatch) -> bool {
    if a.columns == b.columns {
        return true;
    }
    a.num_columns() == b.num_columns() && a.num_rows() == b.num_rows() && rows(a) == rows(b)
}

/// Records the first failed check; the run reports `correct: false` and
/// exits non-zero if any check failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ids: Vec<i64>, xs: Vec<f64>) -> RecordBatch {
        RecordBatch {
            names: vec!["t.id".into(), "t.x".into()],
            columns: vec![Column::Int(ids), Column::Float(xs)],
        }
    }

    #[test]
    fn row_order_and_names_do_not_matter() {
        let a = batch(vec![1, 2, 2], vec![0.5, 1.5, 1.5]);
        let mut b = batch(vec![2, 1, 2], vec![1.5, 0.5, 1.5]);
        b.names = vec!["v.a".into(), "v.b".into()];
        assert!(same_rows(&a, &b));
    }

    #[test]
    fn multiplicity_and_bits_matter() {
        let a = batch(vec![1, 2, 2], vec![0.5, 1.5, 1.5]);
        assert!(!same_rows(&a, &batch(vec![1, 1, 2], vec![0.5, 0.5, 1.5])));
        assert!(!same_rows(
            &a,
            &batch(vec![1, 2, 2], vec![0.5, 1.5, 1.5000000000000002])
        ));
        assert!(!same_rows(&a, &batch(vec![1, 2], vec![0.5, 1.5])));
    }
}
