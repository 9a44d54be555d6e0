//! Compiled word-parallel batch inference for PoET-BiN.
//!
//! PoET-BiN inference is nothing but LUT lookups, and a LUT over packed
//! operand words evaluates 64 examples in one Shannon recursion
//! ([`poetbin_bits::TruthTable::eval_words`] — the same 64-lane trick
//! XNOR-popcount BNN implementations use). This crate turns that kernel
//! into the workspace's one fast inference path:
//!
//! * [`EvalPlan`] — compiles a [`poetbin_fpga::Netlist`] once: a
//!   topo-sorted schedule over live nodes only, every truth table lowered
//!   to a subtable-deduplicated mux DAG, each structural mux classified
//!   into a specialized opcode (`and`/`andnot`/`or`/`ornot`/`xor`/`xnor`/
//!   `not`/`mux`, see [`EvalPlan::op_stats`]), complements and common
//!   subexpressions deduplicated globally, and the SSA stream
//!   linear-scanned onto reusable value slots so the working set is peak
//!   liveness, not total signals (plus levelization stats).
//! * [`Engine`] — evaluates a batch against the plan in lane blocks of
//!   `B ∈ {1, 4, 8}` words (64–512 examples per tape pass, monomorphized
//!   per width), sharding the block range across scoped threads when the
//!   batch is big enough to pay for them. Outputs are bit-identical at
//!   every block width, shard count and tail shape.
//! * [`ClassifierEngine`] — an [`Engine`] over a trained
//!   [`poetbin_core::PoetBinClassifier`]'s lowered netlist plus the q-bit
//!   argmax decode, bit-identical to `PoetBinClassifier::predict`.
//! * [`Scratch`] and the masked packed paths
//!   ([`Engine::eval_blocks_masked`] /
//!   [`ClassifierEngine::predict_block_into`] and their one-word forms) —
//!   allocation-free evaluation of up to [`MAX_BLOCK_WORDS`] packed lane
//!   words with dead tail lanes masked out, the substrate
//!   `poetbin-serve`'s request micro-batcher runs on.
//!
//! # Example
//!
//! ```no_run
//! use poetbin_engine::ClassifierEngine;
//! # let (classifier, features): (poetbin_core::PoetBinClassifier, poetbin_bits::FeatureMatrix) = unimplemented!();
//!
//! // Compile once, predict many batches.
//! let engine = ClassifierEngine::compile(&classifier, features.num_features()).unwrap();
//! let preds = engine.predict(&features);
//! ```
//!
//! Throughput numbers live in `crates/bench/benches/engine.rs`
//! (`cargo bench -p poetbin_bench --bench engine`).

// `deny`, not `forbid`: the JIT's page-management shim
// (`jit/sys.rs`) is the crate's one sanctioned `unsafe` island and
// opts back in with a scoped `allow` — everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod engine;
mod exec;
mod jit;
mod kernel;
mod ops;
mod plan;

pub use engine::{ClassifierEngine, Engine, Scratch, MIN_WORDS_PER_SHARD};
pub use exec::{Backend, Executor, InterpExecutor, ParseBackendError};
pub use jit::JitExecutor;
pub use ops::OpStats;
pub use plan::{EvalPlan, MAX_BLOCK_WORDS};

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_bits::{BitVec, FeatureMatrix, TruthTable};
    use poetbin_fpga::{Netlist, NetlistBuilder, Node};

    fn xor_chain_net() -> Netlist {
        // xor(x, y) feeding an inverter chain, plus a dead LUT that must be
        // compiled out.
        let mut b = NetlistBuilder::new();
        let x = b.add_input();
        let y = b.add_input();
        let xor = b.add_lut(vec![x, y], TruthTable::from_fn(2, |i| i == 1 || i == 2));
        let mut sig = xor;
        for _ in 0..5 {
            sig = b.add_lut(vec![sig], TruthTable::from_fn(1, |i| i == 0));
        }
        let _dead = b.add_lut(vec![x], TruthTable::from_fn(1, |i| i == 1));
        let c = b.add_const(true);
        let m = b.add_mux(xor, c, sig);
        b.set_outputs(vec![sig, m]);
        b.finish()
    }

    #[test]
    fn plan_compiles_out_dead_nodes_and_levelizes() {
        let net = xor_chain_net();
        let plan = EvalPlan::compile(&net).expect("valid netlist");
        assert_eq!(plan.dead_nodes(), 1, "the unused LUT must be dropped");
        // One specialized `xor`; the 5-inverter chain folds to a single
        // `not` through the complement memo (`!!x = x`); one `ornot` for
        // the netlist mux (its lo operand is constant true). The constant
        // and the dead LUT cost nothing.
        assert_eq!(plan.tape_len(), 3);
        let stats = plan.op_stats();
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.muxes(), 0, "every mux must specialize here");
        let hist: std::collections::HashMap<&str, usize> = stats.histogram().into_iter().collect();
        assert_eq!(hist["xor"], 1);
        assert_eq!(hist["not"], 1);
        assert_eq!(hist["ornot"], 1);
        // Peak liveness: 2 constants + the xor/chain value + one in
        // flight — the inverter chain runs in place.
        assert_eq!(plan.num_slots(), 4);
        // xor at level 1, 5 inverters after it, then the mux.
        assert_eq!(plan.logic_levels(), 7);
        assert_eq!(plan.num_inputs(), 2);
        assert_eq!(plan.num_outputs(), 2);
    }

    #[test]
    fn engine_matches_scalar_eval_on_all_shapes() {
        let net = xor_chain_net();
        // Batch sizes around every word boundary, single- and multi-shard.
        for n in [0usize, 1, 63, 64, 65, 200, 1030] {
            let batch = FeatureMatrix::from_fn(n, 2, |e, j| {
                (e.wrapping_mul(2654435761).wrapping_add(j * 40503) >> 3) & 1 == 1
            });
            for threads in [1usize, 4] {
                let engine = Engine::from_netlist(&net).unwrap().with_threads(threads);
                let out = engine.eval_batch(&batch);
                assert_eq!(out.len(), 2);
                for e in 0..n {
                    let expect = net.eval(&[batch.bit(e, 0), batch.bit(e, 1)]);
                    for (k, col) in out.iter().enumerate() {
                        assert_eq!(col.get(e), expect[k], "n={n} threads={threads} e={e} k={k}");
                    }
                }
                // Tail invariant: counting ones must not see garbage lanes.
                assert_eq!(out[0].len(), n);
                assert!(out[0].count_ones() <= n);
            }
        }
    }

    #[test]
    fn engine_agrees_with_simulate() {
        let net = xor_chain_net();
        let vectors: Vec<BitVec> = (0..130)
            .map(|i| BitVec::from_bools([(i / 3) % 2 == 0, i % 5 == 0]))
            .collect();
        let batch = FeatureMatrix::from_rows(vectors.clone());
        let sim = poetbin_fpga::simulate(&net, &vectors);
        let out = Engine::from_netlist(&net).unwrap().eval_batch(&batch);
        assert_eq!(out, sim.outputs);
    }

    #[test]
    fn plan_rejects_unordered_nodes() {
        let nodes = vec![
            Node::Input { index: 0 },
            Node::Lut {
                inputs: vec![2],
                table: TruthTable::from_fn(1, |i| i == 1),
            },
            Node::Input { index: 1 },
        ];
        // Bypass builder validation on purpose: from_parts rejects it, and
        // the plan builder must reject the same structure independently.
        assert!(Netlist::from_parts(nodes, vec![1], 2).is_err());
    }

    #[test]
    #[should_panic(expected = "features")]
    fn engine_rejects_wrong_feature_count() {
        let net = xor_chain_net();
        let engine = Engine::from_netlist(&net).unwrap();
        engine.eval_batch(&FeatureMatrix::from_fn(10, 3, |_, _| false));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_panics() {
        let net = xor_chain_net();
        let _ = Engine::from_netlist(&net).unwrap().with_threads(0);
    }
}
