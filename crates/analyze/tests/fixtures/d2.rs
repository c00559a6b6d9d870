use rayon::prelude::*;

pub fn schedule_dependent_total(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x * 2.0).sum()
}

pub fn fine_serial_fold_in_closure(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.par_iter().map(|row| row.iter().fold(0.0, |a, b| a + b)).collect()
}
