//! Offline bulk scoring: repeated passes of a compiled engine over one
//! large batch of rows.

use std::time::{Duration, Instant};

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_engine::ClassifierEngine;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::stats::{median, Outcome, Tally};
use crate::trace::Tracer;

/// Passes made however short the budget, so the median has a middle.
const MIN_PASSES: usize = 3;

/// `n` seeded uniform random rows of `width` features.
pub fn random_rows(n: usize, width: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| BitVec::from_fn(width, |_| rng.random::<bool>()))
        .collect()
}

/// What the scoring passes measured.
pub struct Scored {
    /// Per-pass throughput, rows per second, one per pass.
    pub rows_per_s: Vec<f64>,
    /// One outcome per pass: a pass is correct when every row matches.
    pub tally: Tally,
}

/// Scores `rows` repeatedly for `budget` (at least [`MIN_PASSES`] times).
/// A pass packs the rows into a feature matrix and predicts every row;
/// each pass must equal `expected`, the offline classifier's answers.
pub fn score(
    engine: &ClassifierEngine,
    rows: &[BitVec],
    expected: &[usize],
    budget: Duration,
    tr: &mut Tracer,
) -> Scored {
    let mut rows_per_s = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    while rows_per_s.len() < MIN_PASSES || start.elapsed() < budget {
        // The copy the matrix takes ownership of is made, and the matrix
        // freed, outside the timing: allocator churn is not the pass's work.
        let owned = rows.to_vec();
        let t = Instant::now();
        let (preds, batch) = tr.span("score.pass", 0, |tr| {
            let batch = tr.span("bits.pack", 0, |_| FeatureMatrix::from_rows(owned));
            let preds = tr.span("engine.predict", 0, |_| {
                engine.predict(std::hint::black_box(&batch))
            });
            (preds, batch)
        });
        rows_per_s.push(rows.len() as f64 / t.elapsed().as_secs_f64());
        drop(batch);
        tally.record(if preds == expected {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        });
    }
    Scored { rows_per_s, tally }
}

impl Scored {
    /// Median rows per second over the passes.
    pub fn median_rows_per_s(&self) -> f64 {
        median(&self.rows_per_s)
    }
}
