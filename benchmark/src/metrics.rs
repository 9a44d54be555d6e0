//! The benchmark's metric catalogue and the result line.
//!
//! Every run reports every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`); the catalogue here is the single list
//! both the run and `BENCHMARK.json` are checked against.

use crate::serve::RUNGS;
use crate::stats::{valid_metric_name, Tally};

/// One reported metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// For a per-layer metric, the end-to-end metrics it should move.
    pub moves: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics, reported by every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", ""),
        def("success_ratio", "ratio", "higher", ""),
        def("a4_accuracy", "ratio", "higher", ""),
        def("rinc_fidelity", "ratio", "higher", ""),
        def("pruned_luts", "count", "lower", ""),
        def("energy_per_inference_nj", "nJ", "lower", ""),
        def("serve_light_p50_us", "us", "lower", ""),
        def("serve_max_rps", "1/s", "higher", ""),
    ]
}

/// The per-layer metrics, reported by every workload in a traced run. A
/// layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        // Whole-workflow figures that follow the host's core speed. Sets of
        // ten runs of the same code on a shared two-vCPU host spread them
        // (interquartile range over median) by up to 0.37, whatever the
        // estimator, past the largest bound an end-to-end metric may have;
        // they are read per layer.
        def(
            "train_s",
            "s",
            "lower",
            "the workload's training; too unsteady on a shared host to bound",
        ),
        def(
            "score_rows_per_s",
            "1/s",
            "higher",
            "offline scoring throughput; too unsteady on a shared host to bound",
        ),
        def(
            "data.generate_s",
            "s",
            "lower",
            "train_s (inputs only; outside every timed figure)",
        ),
        def("nn.teacher_s", "s", "lower", "train_s"),
        def("core.rinc_bank_s", "s", "lower", "train_s"),
        def("core.rinc_bank.trees", "count", "lower", "pruned_luts"),
        def("core.rinc_bank.luts", "count", "lower", "pruned_luts"),
        def("core.output_s", "s", "lower", "train_s, a4_accuracy"),
        def("core.lower_s", "s", "lower", "train_s"),
        def("fpga.map_s", "s", "lower", "train_s"),
        def(
            "fpga.mapped_luts",
            "count",
            "lower",
            "pruned_luts, energy_per_inference_nj",
        ),
        def("fpga.prune_s", "s", "lower", "train_s, pruned_luts"),
        def(
            "fpga.prune_ratio",
            "ratio",
            "lower",
            "pruned_luts, energy_per_inference_nj",
        ),
        def("fpga.simulate_s", "s", "lower", "train_s"),
        def("fpga.power_s", "s", "lower", "train_s"),
        // The swaps replay the served pair's `deep`-shaped model, which is
        // the workload's own model only on serve-mixed.
        def(
            "core.persist.load_s",
            "s",
            "lower",
            "setup_s; serve.swap_ms on serve-mixed",
        ),
        def(
            "engine.compile_s",
            "s",
            "lower",
            "setup_s; serve.swap_ms on serve-mixed",
        ),
        def(
            "engine.prepare_s",
            "s",
            "lower",
            "setup_s; serve.swap_ms on serve-mixed",
        ),
        def("serve.start_s", "s", "lower", "setup_s"),
        def("serve.connect_s", "s", "lower", "setup_s"),
        def(
            "serve.swap_ms",
            "ms",
            "lower",
            "no bounded figure: beside live reads it is too unsteady to bound",
        ),
        def("engine.tape_ops", "count", "lower", "score_rows_per_s"),
        def("engine.logic_levels", "count", "lower", "score_rows_per_s"),
        def("engine.predict_s", "s", "lower", "score_rows_per_s"),
        def("bits.pack_s", "s", "lower", "score_rows_per_s"),
    ];
    for rung in RUNGS {
        let r = rung.name;
        let rung_defs = [
            (
                "p50_us",
                "us",
                "lower",
                "serve_light_p50_us on the light rung; the others are too unsteady to bound",
            ),
            (
                "p99_us",
                "us",
                "lower",
                "serve_max_rps (too unsteady to bound itself)",
            ),
            ("client.send_us", "us", "lower", "serve_light_p50_us"),
            ("mean_batch", "count", "higher", "serve_max_rps"),
            ("batches", "count", "lower", "serve_max_rps"),
            ("max_queue_depth", "count", "lower", "serve_max_rps"),
            (
                "overloaded",
                "count",
                "lower",
                "success_ratio, serve_max_rps",
            ),
            (
                "deadline_expired",
                "count",
                "lower",
                "success_ratio, serve_max_rps",
            ),
            ("retries", "count", "lower", "success_ratio, serve_max_rps"),
            (
                "gen_late_us",
                "us",
                "lower",
                "validity of every serve_* figure",
            ),
            (
                "valid_windows",
                "count",
                "higher",
                "validity of every serve_* figure",
            ),
        ];
        for (suffix, unit, better, moves) in rung_defs {
            defs.push(def(&format!("serve.{r}.{suffix}"), unit, better, moves));
        }
    }
    defs.extend([
        def("trace.spans", "count", "lower", "tracing overhead"),
        def(
            "trace.overhead.train_s",
            "s",
            "lower",
            "train_s (traced minus untraced)",
        ),
        def(
            "trace.overhead.setup_s",
            "s",
            "lower",
            "setup_s (traced minus untraced)",
        ),
        def(
            "trace.overhead.score_rows_per_s",
            "1/s",
            "lower",
            "score_rows_per_s (untraced minus traced)",
        ),
        def(
            "trace.overhead.serve_light_p50_us",
            "us",
            "lower",
            "serve_light_p50_us (traced minus untraced)",
        ),
    ]);
    defs
}

/// Metric values collected during a run, in catalogue order on output.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already recorded: both are bugs in
    /// this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((name.to_string(), value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` for every metric
    /// of `defs`, failing if one is missing or not finite.
    pub fn render(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// Renders every recorded, finite metric with its catalogue unit.
    pub fn render_all(&self) -> String {
        let catalogue: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let parts: Vec<String> = self
            .values
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(name, v)| {
                let unit = catalogue
                    .iter()
                    .find(|d| &d.name == name)
                    .map_or("", |d| d.unit);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// The result line: the run's last line of standard output.
pub fn result_line(correct: bool, tally: &Tally, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(all.iter().all(|n| valid_metric_name(n)));
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric names");
        assert!(per_layer().iter().all(|d| !d.moves.is_empty()));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.split_whitespace().collect();
        for d in end_to_end().iter().chain(&per_layer()) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"name\":").count();
        let workloads = crate::Workload::ALL.len();
        assert_eq!(listed, end_to_end().len() + per_layer().len() + workloads);
    }

    #[test]
    fn render_requires_every_metric() {
        let defs = vec![
            def("a_s", "s", "lower", ""),
            def("b", "count", "higher", ""),
        ];
        let mut m = Metrics::default();
        m.set("a_s", 0.5);
        assert!(m.render(&defs).is_err());
        m.set("b", 3.0);
        assert_eq!(
            m.render(&defs).unwrap(),
            "{\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}"
        );
        let line = result_line(
            true,
            &Tally {
                attempted: 2,
                failed: 0,
                mismatched: 0,
            },
            "{}",
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
