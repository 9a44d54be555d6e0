//! Training and hardware lowering: the part of a run that turns
//! seeded data into a PoET-BiN classifier and costs it as LUT logic.

use std::time::Instant;

use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_boost::{RincConfig, RincNode};
use poetbin_core::persist::{save_classifier, ModelFormat};
use poetbin_core::{
    PoetBinClassifier, QuantizedSparseOutput, RincBank, Scenario, ScenarioKind, Workflow,
};
use poetbin_engine::Engine;
use poetbin_fpga::{map_to_lut6, prune, simulate, Netlist, PowerModel, SimResult, TimingModel};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::trace::Tracer;

/// Seed of RINC boosting-by-resampling for the synthetic binary tasks,
/// fixed so that `--seed` only changes the data.
const RESAMPLE_SEED: u64 = 17;

/// Vectors replayed through the gate-level simulation for power.
const SIM_VECTORS: usize = 256;

/// A trained model as the rest of the run consumes it.
pub struct Model {
    /// Name the server advertises it under.
    pub name: &'static str,
    /// The classifier, the offline oracle for every prediction.
    pub clf: PoetBinClassifier,
    /// Binary feature width of its input rows.
    pub num_features: usize,
    /// Its POETBIN2 encoding, what set-up loads and hot swaps replay.
    pub bytes: Vec<u8>,
}

impl Model {
    fn new(name: &'static str, clf: PoetBinClassifier, num_features: usize) -> Model {
        let bytes = save_classifier(&clf, ModelFormat::PoetBin2);
        Model {
            name,
            clf,
            num_features,
            bytes,
        }
    }
}

/// What training produced: the served models (the first is primary) and
/// the primary model's quality on held-out data.
pub struct Trained {
    /// Models in registration order.
    pub models: Vec<Model>,
    /// Test accuracy of the primary model (stage A4 of the paper).
    pub a4_accuracy: f64,
    /// Mean agreement of the primary RINC bank with its targets on test data.
    pub rinc_fidelity: f64,
    /// Held-out feature rows of the primary model, for simulation.
    pub test_rows: Vec<BitVec>,
    /// Clock the primary design is costed at, MHz.
    pub clock_mhz: f64,
    /// Wall time spent generating the training data, s.
    pub generate_s: f64,
}

/// RINC-0 trees and total LUTs of a bank.
pub fn bank_size(bank: &RincBank) -> (usize, usize) {
    let trees = bank
        .modules()
        .iter()
        .map(|node| match node {
            RincNode::Tree(_) => 1,
            RincNode::Module(m) => m.stats().trees,
        })
        .sum();
    (trees, bank.lut_count())
}

/// The MNIST-shaped quick scenario's settings, shrunk for smoke tests.
pub fn mnist_scenario(tiny: bool) -> Scenario {
    let mut s = Scenario::quick(ScenarioKind::Mnist);
    if tiny {
        s.config.arch = s.config.arch.scaled(16);
        s.config.teacher.epochs = 1;
        s.config.output_epochs = 2;
        s.train_examples = 64;
        s.test_examples = 32;
    }
    s
}

/// Trains the MNIST-shaped model stage by stage: teacher (A1–A3), the
/// RINC bank at the configured shard count, then the output layer.
pub fn train_mnist(scenario: &Scenario, seed: u64, tr: &mut Tracer) -> Trained {
    let kind = ScenarioKind::Mnist;
    let n = scenario.train_examples + scenario.test_examples;
    let (data, generate_s) = timed(|| tr.span("data.generate", 0, |_| kind.synthetic(n, seed)));
    let (train, test) = data.split(scenario.train_examples);
    let workflow = Workflow::new(scenario.config.clone());
    let art = tr.span("nn.teacher", 0, |_| workflow.teacher_stage(&train, &test));
    let bank = tr.span("core.rinc_bank", 0, |_| {
        workflow.rinc_stage_with_shards(&art, workflow.config().bank_shards)
    });
    let rinc_fidelity = bank.fidelity(&art.test_features, &art.test_inter);
    let clf = tr.span("core.output", 0, |_| {
        workflow.output_stage(bank, &art, &train.labels)
    });
    let a4_accuracy = clf.accuracy(&art.test_features, &test.labels);
    let num_features = art.test_features.num_features();
    Trained {
        models: vec![Model::new("mnist", clf, num_features)],
        a4_accuracy,
        rinc_fidelity,
        test_rows: art.test_features.iter_rows().cloned().collect(),
        clock_mhz: kind.clock_mhz(),
        generate_s,
    }
}

/// The shape of a PoET-BiN classifier trained directly on binary
/// features, without a teacher network.
#[derive(Clone, Copy, Debug)]
pub struct BinarySpec {
    /// Name the server advertises the model under.
    pub name: &'static str,
    /// Binary input features.
    pub features: usize,
    /// Output classes.
    pub classes: usize,
    /// LUT fan-in `P`.
    pub lut_inputs: usize,
    /// RINC hierarchy depth `L`.
    pub levels: usize,
    /// Decision trees per RINC module.
    pub trees_per_module: usize,
    /// Output-layer quantisation width.
    pub q_bits: u8,
    /// Features each intermediate target takes a majority vote over.
    pub window: usize,
    /// Training examples.
    pub train: usize,
    /// Held-out examples.
    pub test: usize,
}

impl BinarySpec {
    /// The paper's S1 (SVHN) classifier structure: P=6, 36 trees per
    /// module, RINC-2, q=8 over 512 features and 10 classes.
    pub fn s1(train: usize, test: usize) -> BinarySpec {
        BinarySpec {
            name: "svhn",
            features: 512,
            classes: 10,
            lut_inputs: 6,
            levels: 2,
            trees_per_module: 36,
            q_bits: 8,
            window: 9,
            train,
            test,
        }
    }

    /// The shape of the repository's `deep` serving fixture.
    pub fn deep(train: usize, test: usize) -> BinarySpec {
        BinarySpec {
            name: "deep",
            features: 48,
            classes: 4,
            lut_inputs: 3,
            levels: 2,
            trees_per_module: 9,
            q_bits: 8,
            window: 5,
            train,
            test,
        }
    }

    /// The shape of the repository's `tiny` serving fixture.
    pub fn tiny(train: usize, test: usize) -> BinarySpec {
        BinarySpec {
            name: "tiny",
            features: 16,
            classes: 2,
            lut_inputs: 2,
            levels: 1,
            trees_per_module: 2,
            q_bits: 4,
            window: 3,
            train,
            test,
        }
    }

    fn width(&self) -> usize {
        self.classes * self.lut_inputs
    }
}

/// A seeded binary task shaped like a teacher's output: uniform random
/// features, each intermediate target a majority vote over a window of
/// them, and each label the class whose `P` targets fire most (lowest
/// index on ties), which the sparse output layer can represent.
pub fn binary_task(
    spec: &BinarySpec,
    n: usize,
    seed: u64,
) -> (FeatureMatrix, FeatureMatrix, Vec<usize>) {
    let f = spec.features;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<BitVec> = (0..n)
        .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
        .collect();
    let features = FeatureMatrix::from_rows(rows);
    let targets = FeatureMatrix::from_fn(n, spec.width(), |e, j| {
        let base = (j * 13) % (f - spec.window);
        (base..base + spec.window)
            .filter(|&k| features.bit(e, k))
            .count()
            * 2
            > spec.window
    });
    let labels = (0..n)
        .map(|e| {
            let votes = |c: usize| {
                (0..spec.lut_inputs)
                    .filter(|&k| targets.bit(e, c * spec.lut_inputs + k))
                    .count()
            };
            (0..spec.classes).fold(0, |best, c| if votes(c) > votes(best) { c } else { best })
        })
        .collect();
    (features, targets, labels)
}

/// Trains one classifier per spec on its own seeded task; quality is the
/// first spec's.
pub fn train_binary(specs: &[BinarySpec], seed: u64, tr: &mut Tracer) -> Trained {
    let mut models = Vec::with_capacity(specs.len());
    let mut quality = None;
    let mut generate_s = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let task_seed = seed.wrapping_add(i as u64);
        let ((features, targets, labels), secs) = timed(|| {
            tr.span("data.generate", 0, |_| {
                binary_task(spec, spec.train + spec.test, task_seed)
            })
        });
        generate_s += secs;
        let train_idx: Vec<usize> = (0..spec.train).collect();
        let test_idx: Vec<usize> = (spec.train..spec.train + spec.test).collect();
        let (train_f, test_f) = (
            features.select_examples(&train_idx),
            features.select_examples(&test_idx),
        );
        let (train_t, test_t) = (
            targets.select_examples(&train_idx),
            targets.select_examples(&test_idx),
        );
        let per_group = spec.lut_inputs.pow(spec.levels as u32 - 1);
        let cfg = RincConfig::new(spec.lut_inputs, spec.levels)
            .with_top_groups(spec.trees_per_module / per_group)
            .with_resampling(RESAMPLE_SEED);
        let bank = tr.span("core.rinc_bank", 0, |_| {
            RincBank::train(&train_f, &train_t, &cfg)
        });
        let fidelity = bank.fidelity(&test_f, &test_t);
        let clf = tr.span("core.output", 0, |_| {
            let inter = bank.predict_bits(&train_f);
            let output = QuantizedSparseOutput::train(
                &inter,
                &labels[..spec.train],
                spec.classes,
                spec.q_bits,
                10,
            );
            PoetBinClassifier::new(bank, output)
        });
        if quality.is_none() {
            let a4 = clf.accuracy(&test_f, &labels[spec.train..]);
            quality = Some((a4, fidelity, test_f.iter_rows().cloned().collect()));
        }
        models.push(Model::new(spec.name, clf, spec.features));
    }
    let (a4_accuracy, rinc_fidelity, test_rows) = quality.expect("at least one spec");
    Trained {
        models,
        a4_accuracy,
        rinc_fidelity,
        test_rows,
        clock_mhz: 62.5,
        generate_s,
    }
}

/// The lowered, pruned and costed form of a model.
pub struct Hardware {
    /// LUTs after 6-LUT mapping.
    pub mapped_luts: usize,
    /// LUTs after pruning.
    pub pruned_luts: usize,
    /// Energy of one inference at the design clock, nJ.
    pub energy_nj: f64,
    /// Critical path through the pruned netlist, ns.
    pub critical_path_ns: f64,
    /// The pruned netlist.
    pub pruned: Netlist,
    /// The simulation the power estimate used.
    pub sim: SimResult,
    /// The simulated input vectors.
    pub vectors: Vec<BitVec>,
}

/// Lowers the model to a LUT netlist, maps it to 6-LUTs, prunes it,
/// simulates it on held-out rows and estimates its power and timing.
pub fn lower(model: &Model, test_rows: &[BitVec], clock_mhz: f64, tr: &mut Tracer) -> Hardware {
    let net = tr.span("core.lower", 0, |_| {
        model.clf.to_netlist(model.num_features)
    });
    let (mapped, _) = tr.span("fpga.map", 0, |_| map_to_lut6(&net));
    let (pruned, _) = tr.span("fpga.prune", 0, |_| prune(&mapped));
    let vectors: Vec<BitVec> = test_rows.iter().take(SIM_VECTORS).cloned().collect();
    let sim = tr.span("fpga.simulate", 0, |_| simulate(&pruned, &vectors));
    let (power, timing) = tr.span("fpga.power", 0, |_| {
        (
            PowerModel::default().estimate(&pruned, &sim, clock_mhz),
            TimingModel::default().analyze(&pruned),
        )
    });
    Hardware {
        mapped_luts: mapped.area().luts,
        pruned_luts: pruned.area().luts,
        energy_nj: power.energy_per_inference_j(clock_mhz) * 1e9,
        critical_path_ns: timing.critical_path_ns,
        pruned,
        sim,
        vectors,
    }
}

/// The compiled engine on the pruned netlist must reproduce the
/// gate-level simulation bit for bit.
pub fn check_engine_matches_simulation(hw: &Hardware) -> Result<(), String> {
    let engine = Engine::from_netlist(&hw.pruned)
        .map_err(|e| format!("pruned netlist does not compile: {e}"))?;
    let out = engine.eval_batch(&FeatureMatrix::from_rows(hw.vectors.clone()));
    if out == hw.sim.outputs {
        Ok(())
    } else {
        Err(format!(
            "engine backend {} diverges from gate-level simulation on the pruned netlist",
            engine.backend_name()
        ))
    }
}

/// A repeated training must rebuild the identical models and figures.
pub fn check_same_result(
    first: (&Trained, &Hardware),
    again: (&Trained, &Hardware),
) -> Result<(), String> {
    let (t0, h0) = first;
    let (t1, h1) = again;
    let same_models = t0.models.len() == t1.models.len()
        && t0
            .models
            .iter()
            .zip(&t1.models)
            .all(|(a, b)| a.bytes == b.bytes);
    let same_figures = (
        t0.a4_accuracy,
        t0.rinc_fidelity,
        h0.pruned_luts,
        h0.energy_nj,
    ) == (
        t1.a4_accuracy,
        t1.rinc_fidelity,
        h1.pruned_luts,
        h1.energy_nj,
    );
    if same_models && same_figures {
        Ok(())
    } else {
        Err("retraining on the same data gave a different model or figures".into())
    }
}

/// Times `f` once, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
