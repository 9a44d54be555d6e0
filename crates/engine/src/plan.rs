//! Compilation of a [`Netlist`] into a levelized, opcode-specialized,
//! branch-free evaluation tape.

use poetbin_bits::FeatureMatrix;
use poetbin_fpga::{Netlist, NetlistError, Node};

use crate::alloc::{allocate, schedule_kind_runs, LOC_ONE, LOC_ZERO};
use crate::exec::Executor;
use crate::kernel::{KOp, KRef, KernelBuilder};
use crate::ops::{classify, Classified, OpKind, OpStats, TapeOp};

/// SSA id of the constant-false value.
const ID_ZERO: u32 = 0;
/// SSA id of the constant-true value.
const ID_ONE: u32 = 1;

/// Lane-word blocks evaluated per tape pass; the compiled inner loops are
/// monomorphized for `B ∈ {1, 4, 8}` (see [`crate::Engine`]).
pub const MAX_BLOCK_WORDS: usize = 8;

/// A netlist compiled for repeated word-parallel batch evaluation.
///
/// Construction walks the netlist once and precomputes everything the hot
/// loop would otherwise re-derive per example:
///
/// * a **topologically sorted schedule** restricted to the transitive
///   fan-in of the outputs (dead nodes are dropped entirely);
/// * **compiled LUT kernels** — every truth table is Shannon-decomposed
///   into a subtable-deduplicated mux DAG once (see `kernel.rs`),
///   then flattened into the tape;
/// * **opcode specialization** — each structural mux is classified at
///   compile time (`ops.rs`): a constant, repeated or complemented operand
///   collapses the generic `lo ^ (sel & (lo ^ hi))` into a one- or
///   two-input word op (`and`, `andnot`, `or`, `ornot`, `xor`, `xnor`,
///   `not`), complements are materialised at most once per signal, and
///   identical ops are deduplicated across kernels
///   ([`EvalPlan::op_stats`] reports the histogram);
/// * a **liveness pass** (`alloc.rs`) — the tape is emitted in SSA form
///   and then linear-scanned onto reusable value slots, so the value
///   array is bounded by *peak* liveness, not total definitions, and the
///   lane-blocked array stays cache-resident;
/// * the **logic depth** (levelization), reported via
///   [`EvalPlan::logic_levels`].
///
/// Evaluation itself lives in [`crate::Engine`], which runs the tape over
/// blocks of `B ∈ {1, 4, 8}` lane words (64–512 examples per pass) and
/// shards block ranges across threads.
#[derive(Clone, Debug)]
pub struct EvalPlan {
    /// `(value slot, primary-input index)` loads run before the tape.
    input_loads: Vec<(u32, u32)>,
    tape: Vec<TapeOp>,
    /// Run-length encoding of the tape's opcode sequence: the executor
    /// dispatches once per `(kind, count)` segment, not once per op.
    segments: Vec<(OpKind, u32)>,
    /// Value slot of each netlist output (possibly a constant or an
    /// aliased signal).
    outputs: Vec<u32>,
    num_inputs: usize,
    num_vals: usize,
    logic_levels: usize,
    dead_nodes: usize,
    dead_ops: usize,
    stats: OpStats,
}

/// Marks "no such value" in the emitter's dense per-id tables.
const NO_ID: u32 = u32::MAX;

/// SSA op builder: fresh ids per definition, a global complement memo (one
/// materialised `not` per signal, ever), and cross-kernel
/// common-subexpression elimination.
struct Emitter {
    ops: Vec<TapeOp>,
    next_id: u32,
    /// `comp[id]`: an id known to hold `!id`, or [`NO_ID`]. Dense, because
    /// every id gets a slot the moment it is defined.
    comp: Vec<u32>,
    /// CSE table: open-addressed over `op index + 1` (0 = empty), keyed by
    /// the op's own `(kind, a, b, c)`, so it stores no keys of its own.
    cse: Vec<u32>,
}

impl Emitter {
    /// An emitter pre-sized for about `expected_ops` ops.
    fn with_capacity(expected_ops: usize) -> Emitter {
        let slots = (2 * expected_ops).next_power_of_two().max(64);
        let mut comp = Vec::with_capacity(expected_ops + 2);
        comp.extend([NO_ID, NO_ID]); // 0 and 1 are the constants
        Emitter {
            ops: Vec::with_capacity(expected_ops),
            next_id: 2,
            comp,
            cse: vec![0; slots],
        }
    }

    fn fresh_value(&mut self) -> u32 {
        let v = self.next_id;
        self.next_id += 1;
        self.comp.push(NO_ID);
        v
    }

    /// The CSE slot holding op `(kind, a, b, c)`, or the empty slot where
    /// it would go, with the op's index on a hit.
    fn cse_find(&self, kind: OpKind, a: u32, b: u32, c: u32) -> (usize, Option<usize>) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let h = (u64::from(a) | u64::from(b) << 32).wrapping_mul(K);
        let h = (h.rotate_left(5) ^ (u64::from(c) << 8 | kind.index() as u64)).wrapping_mul(K);
        // Multiplicative hashing: the top log2(len) bits pick the slot.
        let mut i = (h >> (64 - self.cse.len().trailing_zeros())) as usize;
        while let Some(op_index) = self.cse[i].checked_sub(1) {
            let op = &self.ops[op_index as usize];
            if (op.kind, op.a, op.b, op.c) == (kind, a, b, c) {
                return (i, Some(op_index as usize));
            }
            i = (i + 1) & (self.cse.len() - 1);
        }
        (i, None)
    }

    /// Emits one op (or returns the id of an identical earlier one).
    fn push(&mut self, kind: OpKind, a: u32, b: u32, c: u32) -> u32 {
        let (a, b) = if kind.commutative() && b < a {
            (b, a)
        } else {
            (a, b)
        };
        // `c` only matters for Mux; pin it for the others so the CSE key
        // is canonical.
        let c = if kind == OpKind::Mux { c } else { a };
        let (mut at, hit) = self.cse_find(kind, a, b, c);
        if let Some(i) = hit {
            return self.ops[i].dst;
        }
        if 2 * (self.ops.len() + 1) > self.cse.len() {
            // Past half full: double the table and re-insert every op.
            self.cse = vec![0; 2 * self.cse.len()];
            for i in 0..self.ops.len() {
                let op = self.ops[i];
                let (slot, _) = self.cse_find(op.kind, op.a, op.b, op.c);
                self.cse[slot] = i as u32 + 1;
            }
            at = self.cse_find(kind, a, b, c).0;
        }
        let dst = self.fresh_value();
        self.ops.push(TapeOp { kind, dst, a, b, c });
        self.cse[at] = self.ops.len() as u32;
        if kind == OpKind::Not {
            self.comp[dst as usize] = a;
            if self.comp[a as usize] == NO_ID {
                self.comp[a as usize] = dst;
            }
        }
        dst
    }

    /// The complement of `x`, materialising at most one `not` per signal.
    fn not(&mut self, x: u32) -> u32 {
        if x == ID_ZERO {
            return ID_ONE;
        }
        if x == ID_ONE {
            return ID_ZERO;
        }
        if self.comp[x as usize] != NO_ID {
            return self.comp[x as usize];
        }
        self.push(OpKind::Not, x, x, x)
    }

    /// Emits the structural mux `sel ? hi : lo`, specialized.
    fn mux(&mut self, sel: u32, lo: u32, hi: u32) -> u32 {
        match classify(sel, lo, hi, ID_ZERO, ID_ONE, |v| {
            Some(self.comp[v as usize]).filter(|&n| n != NO_ID)
        }) {
            Classified::Alias(v) => v,
            // Route complements through the memo so a signal whose
            // complement already exists never gets a second `not`.
            Classified::Op(OpKind::Not, a, _, _) => self.not(a),
            Classified::Op(kind, a, b, c) => self.push(kind, a, b, c),
        }
    }
}

/// Resolves a kernel reference to an SSA id, materialising complements
/// through the emitter's global memo.
fn resolve(em: &mut Emitter, operand_ids: &[u32], node_ids: &[u32], r: KRef) -> u32 {
    match r {
        KRef::Zero => ID_ZERO,
        KRef::One => ID_ONE,
        KRef::Var(v) => operand_ids[v as usize],
        KRef::NotVar(v) => em.not(operand_ids[v as usize]),
        KRef::Node(i) => node_ids[i as usize],
    }
}

/// Appends a compiled LUT kernel (`ops` and `result`, straight from the
/// [`KernelBuilder`]) to the SSA stream, returning the id of its result.
/// `node_ids` is scratch, reused across kernels.
///
/// Complemented-branch shapes are classified at the [`KRef`] level first —
/// `mux(s, v, !v)` is a plain `xor` and never needs `!v` materialised —
/// everything else resolves operands and goes through the generic mux
/// classifier.
fn flatten_kernel(
    em: &mut Emitter,
    ops: &[KOp],
    result: KRef,
    operand_ids: &[u32],
    node_ids: &mut Vec<u32>,
) -> u32 {
    node_ids.clear();
    for op in ops {
        let sel = operand_ids[op.sel as usize];
        let id = match (op.lo, op.hi) {
            (KRef::Var(v), KRef::NotVar(w)) if v == w => {
                let x = operand_ids[v as usize];
                em.push(OpKind::Xor, x, sel, x)
            }
            (KRef::NotVar(v), KRef::Var(w)) if v == w => {
                let x = operand_ids[v as usize];
                em.push(OpKind::Xnor, x, sel, x)
            }
            (KRef::Zero, KRef::NotVar(v)) => {
                let x = operand_ids[v as usize];
                em.push(OpKind::AndNot, sel, x, sel)
            }
            (KRef::NotVar(v), KRef::One) => {
                let x = operand_ids[v as usize];
                em.push(OpKind::OrNot, sel, x, sel)
            }
            (lo, hi) => {
                let l = resolve(em, operand_ids, node_ids, lo);
                let h = resolve(em, operand_ids, node_ids, hi);
                em.mux(sel, l, h)
            }
        };
        node_ids.push(id);
    }
    resolve(em, operand_ids, node_ids, result)
}

impl EvalPlan {
    /// Compiles a netlist into an evaluation plan.
    ///
    /// # Errors
    ///
    /// Returns the [`NetlistError`] if the netlist violates the
    /// topological-order invariants (defence in depth: a [`Netlist`] built
    /// through `NetlistBuilder::finish` is already validated, but plans can
    /// be built from any source of nodes, and a forward reference here
    /// would silently read a stale lane word).
    pub fn compile(net: &Netlist) -> Result<EvalPlan, NetlistError> {
        net.validate()?;
        let nodes = net.nodes();

        // Liveness over netlist nodes: only nodes in some output's
        // transitive fan-in are scheduled. Nodes are topologically ordered,
        // so one reverse sweep suffices.
        let mut live = vec![false; nodes.len()];
        for &o in net.outputs() {
            live[o] = true;
        }
        let (mut num_live, mut live_luts) = (0usize, 0usize);
        for id in (0..nodes.len()).rev() {
            if !live[id] {
                continue;
            }
            num_live += 1;
            match &nodes[id] {
                Node::Input { .. } | Node::Const { .. } => {}
                Node::Lut { inputs, .. } => {
                    live_luts += 1;
                    for &src in inputs {
                        live[src] = true;
                    }
                }
                Node::Mux { sel, lo, hi } => {
                    for &src in [sel, lo, hi] {
                        live[src] = true;
                    }
                }
            }
        }

        // Emit the SSA stream. `loc_of[id]` is node id's value id after
        // alias/constant propagation, complement memoisation and CSE.
        // Kernel ops average well under 16 per live LUT on tree-shaped
        // netlists; the CSE table grows if a netlist needs more.
        let mut em = Emitter::with_capacity(16 * live_luts + num_live);
        let mut kernels = KernelBuilder::default();
        let mut operand_ids: Vec<u32> = Vec::new();
        let mut node_ids: Vec<u32> = Vec::new();
        let mut loc_of = vec![NO_ID; nodes.len()];
        let mut level_of = vec![0u32; nodes.len()];
        let mut input_defs = Vec::new();
        let mut logic_levels = 0u32;
        for (id, node) in nodes.iter().enumerate() {
            if !live[id] {
                continue;
            }
            match node {
                Node::Input { index } => {
                    let v = em.fresh_value();
                    loc_of[id] = v;
                    input_defs.push((v, *index as u32));
                }
                Node::Const { value } => {
                    loc_of[id] = if *value { ID_ONE } else { ID_ZERO };
                }
                Node::Mux { sel, lo, hi } => {
                    level_of[id] = 1 + [sel, lo, hi].iter().map(|&&s| level_of[s]).max().unwrap();
                    loc_of[id] = em.mux(loc_of[*sel], loc_of[*lo], loc_of[*hi]);
                }
                Node::Lut { inputs, table } => {
                    level_of[id] = 1 + inputs.iter().map(|&s| level_of[s]).max().unwrap_or(0);
                    operand_ids.clear();
                    operand_ids.extend(inputs.iter().map(|&s| loc_of[s]));
                    let result = kernels.compile(table);
                    loc_of[id] =
                        flatten_kernel(&mut em, kernels.ops(), result, &operand_ids, &mut node_ids);
                }
            }
            logic_levels = logic_levels.max(level_of[id]);
        }

        // Kind-run scheduling (long same-opcode segments for the hoisted
        // dispatch), then liveness-driven slot assignment: SSA ids
        // collapse onto reusable physical slots, bounded by peak liveness.
        let output_ids: Vec<u32> = net.outputs().iter().map(|&o| loc_of[o]).collect();
        let scheduled = schedule_kind_runs(&em.ops, em.next_id as usize);
        let alloc = allocate(scheduled, &input_defs, &output_ids, em.next_id as usize);
        let mut stats = OpStats::default();
        let mut segments: Vec<(OpKind, u32)> = Vec::new();
        for op in &alloc.ops {
            stats.record(op.kind);
            match segments.last_mut() {
                Some((kind, count)) if *kind == op.kind => *count += 1,
                _ => segments.push((op.kind, 1)),
            }
        }

        Ok(EvalPlan {
            input_loads: alloc.input_loads,
            tape: alloc.ops,
            segments,
            outputs: alloc.outputs,
            num_inputs: net.num_inputs(),
            num_vals: alloc.num_vals,
            logic_levels: logic_levels as usize,
            dead_nodes: nodes.len() - num_live,
            dead_ops: alloc.dead_ops,
            stats,
        })
    }

    /// Number of primary inputs the plan expects per example.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs the plan produces per example.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Peak value-array slots after liveness reuse, the two constant slots
    /// included — the per-lane-block working-set bound.
    pub fn num_slots(&self) -> usize {
        self.num_vals
    }

    /// Total ops on the tape — the per-word work left after kernel
    /// deduplication, opcode specialization, CSE and alias propagation.
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// Per-opcode composition of the tape: how many muxes collapsed into
    /// one- and two-input word ops at compile time.
    pub fn op_stats(&self) -> &OpStats {
        &self.stats
    }

    /// Same-opcode segments the kind-run scheduler produced — the number
    /// of dispatches one tape pass performs (versus [`EvalPlan::tape_len`]
    /// for an unscheduled stream).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// LUT/mux levels on the critical path of the schedule.
    pub fn logic_levels(&self) -> usize {
        self.logic_levels
    }

    /// Netlist nodes dropped because no output depends on them.
    pub fn dead_nodes(&self) -> usize {
        self.dead_nodes
    }

    /// Emitted SSA ops dropped by the liveness pass because nothing read
    /// their result.
    pub fn dead_ops(&self) -> usize {
        self.dead_ops
    }

    /// Word slots a value array must hold for block width `B`
    /// (`num_slots() * B`).
    pub(crate) fn vals_len(&self, block: usize) -> usize {
        self.num_vals * block
    }

    /// The scheduled op stream, for backends that compile it further.
    pub(crate) fn tape(&self) -> &[TapeOp] {
        &self.tape
    }

    /// The kind-run segments over [`EvalPlan::tape`], for backends that
    /// specialize per run.
    pub(crate) fn kind_runs(&self) -> &[(OpKind, u32)] {
        &self.segments
    }

    /// Initialises the constant blocks of a value array laid out for block
    /// width `B`. Every other slot is written before it is read, so this
    /// is the only per-layout setup a value array needs.
    pub(crate) fn init_consts<const B: usize>(&self, vals: &mut [u64]) {
        vals[LOC_ZERO as usize * B..LOC_ZERO as usize * B + B].fill(0);
        vals[LOC_ONE as usize * B..LOC_ONE as usize * B + B].fill(u64::MAX);
    }

    /// Executes the tape for one block of up to `B` consecutive 64-example
    /// words of `batch`, starting at `first_word`.
    ///
    /// `vals` must hold [`EvalPlan::vals_len`]`(B)` words with the
    /// constant blocks initialised ([`EvalPlan::init_consts`]); it is
    /// caller-owned so a shard reuses it across its whole range. Only the
    /// first `valid ≤ B` words of each slot block are loaded and stored:
    /// trailing lanes run on stale garbage that never escapes. `out`
    /// receives the valid words word-major (`out[j * num_outputs + o]`).
    /// The tape itself runs on `exec`, which must have been built for this
    /// plan.
    #[inline]
    pub(crate) fn eval_block<const B: usize>(
        &self,
        exec: &dyn Executor,
        batch: &FeatureMatrix,
        first_word: usize,
        valid: usize,
        vals: &mut [u64],
        out: &mut [u64],
    ) {
        debug_assert!(valid >= 1 && valid <= B);
        for &(slot, feature) in &self.input_loads {
            let col = batch.feature(feature as usize).as_words();
            let base = slot as usize * B;
            vals[base..base + valid].copy_from_slice(&col[first_word..first_word + valid]);
        }
        exec.run_tape(B, vals);
        let k = self.outputs.len();
        for (o, &loc) in self.outputs.iter().enumerate() {
            let base = loc as usize * B;
            for j in 0..valid {
                out[j * k + o] = vals[base + j];
            }
        }
    }

    /// Executes the tape for one block of up to `B` words whose inputs
    /// arrive already packed feature-major with stride `valid`
    /// (`feature_blocks[j * valid + w]` carries word `w` of feature `j`) —
    /// the layout [`poetbin_bits::pack_block_rows`] produces. `out`
    /// receives the outputs output-major with the same stride
    /// (`out[o * valid + w]`). Same contract on `vals` and `exec` as
    /// [`EvalPlan::eval_block`].
    #[inline]
    pub(crate) fn eval_packed_block<const B: usize>(
        &self,
        exec: &dyn Executor,
        feature_blocks: &[u64],
        valid: usize,
        vals: &mut [u64],
        out: &mut [u64],
    ) {
        debug_assert!(valid >= 1 && valid <= B);
        for &(slot, feature) in &self.input_loads {
            let base = slot as usize * B;
            let src = feature as usize * valid;
            vals[base..base + valid].copy_from_slice(&feature_blocks[src..src + valid]);
        }
        exec.run_tape(B, vals);
        for (o, &loc) in self.outputs.iter().enumerate() {
            let base = loc as usize * B;
            for j in 0..valid {
                out[o * valid + j] = vals[base + j];
            }
        }
    }

    /// The interpreter hot loop ([`crate::InterpExecutor`]): one pass over
    /// the op stream applies every op to a whole `B`-word lane block
    /// (64·B examples), so decode cost is amortised `B×` and the
    /// fixed-width inner loops vectorize. Opcode dispatch is hoisted out
    /// of the op loop: the kind-run scheduler (`alloc.rs`) groups the
    /// tape into a few hundred same-kind segments, and each segment runs
    /// a branchless specialized inner loop over its ops.
    #[inline]
    pub(crate) fn run_tape_block<const B: usize>(&self, vals: &mut [u64]) {
        #[inline(always)]
        fn blk<const B: usize>(vals: &[u64], loc: u32) -> [u64; B] {
            let base = loc as usize * B;
            vals[base..base + B].try_into().unwrap()
        }
        /// One segment of two-operand ops, `f` applied lane-word-wise.
        #[inline(always)]
        fn run_bin<const B: usize>(run: &[TapeOp], vals: &mut [u64], f: impl Fn(u64, u64) -> u64) {
            for op in run {
                let (a, b) = (blk::<B>(vals, op.a), blk::<B>(vals, op.b));
                let mut r = [0u64; B];
                for j in 0..B {
                    r[j] = f(a[j], b[j]);
                }
                let d = op.dst as usize * B;
                vals[d..d + B].copy_from_slice(&r);
            }
        }
        /// One segment of one-operand ops.
        #[inline(always)]
        fn run_un<const B: usize>(run: &[TapeOp], vals: &mut [u64], f: impl Fn(u64) -> u64) {
            for op in run {
                let a = blk::<B>(vals, op.a);
                let mut r = [0u64; B];
                for j in 0..B {
                    r[j] = f(a[j]);
                }
                let d = op.dst as usize * B;
                vals[d..d + B].copy_from_slice(&r);
            }
        }
        let mut ops = self.tape.as_slice();
        for &(kind, count) in &self.segments {
            let (run, rest) = ops.split_at(count as usize);
            ops = rest;
            match kind {
                OpKind::And => run_bin::<B>(run, vals, |a, b| a & b),
                OpKind::AndNot => run_bin::<B>(run, vals, |a, b| a & !b),
                OpKind::Or => run_bin::<B>(run, vals, |a, b| a | b),
                OpKind::OrNot => run_bin::<B>(run, vals, |a, b| a | !b),
                OpKind::Xor => run_bin::<B>(run, vals, |a, b| a ^ b),
                OpKind::Xnor => run_bin::<B>(run, vals, |a, b| !(a ^ b)),
                OpKind::Not => run_un::<B>(run, vals, |a| !a),
                OpKind::Mux => {
                    for op in run {
                        let (s, lo, hi) = (
                            blk::<B>(vals, op.a),
                            blk::<B>(vals, op.b),
                            blk::<B>(vals, op.c),
                        );
                        let mut r = [0u64; B];
                        for j in 0..B {
                            r[j] = lo[j] ^ (s[j] & (lo[j] ^ hi[j]));
                        }
                        let d = op.dst as usize * B;
                        vals[d..d + B].copy_from_slice(&r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poetbin_bits::TruthTable;
    use poetbin_fpga::NetlistBuilder;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// FNV-1a over one little-endian `u32`.
    fn fnv(h: &mut u64, word: u32) {
        for byte in word.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hash of everything the executors read from a plan: input loads,
    /// tape, segments, outputs and the value-array size.
    fn fingerprint(plan: &EvalPlan) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(slot, feature) in &plan.input_loads {
            fnv(&mut h, slot);
            fnv(&mut h, feature);
        }
        for op in &plan.tape {
            for word in [op.kind.index() as u32, op.dst, op.a, op.b, op.c] {
                fnv(&mut h, word);
            }
        }
        for &(kind, count) in &plan.segments {
            fnv(&mut h, kind.index() as u32);
            fnv(&mut h, count);
        }
        for &o in &plan.outputs {
            fnv(&mut h, o);
        }
        fnv(&mut h, plan.num_vals as u32);
        h
    }

    fn fixture_plan(bytes: &[u8]) -> EvalPlan {
        let clf = poetbin_core::persist::load_classifier(bytes).expect("fixture decodes");
        EvalPlan::compile(&clf.to_netlist(clf.min_features())).expect("fixture compiles")
    }

    /// A seeded netlist whose LUT arities cycle through 0–8, so the
    /// kernel compiler's >6-input split path and both of its memos run.
    /// Tables mix random, threshold and word-periodic functions (the last
    /// repeat whole 64-bit subtables above six inputs).
    fn wide_arity_netlist(seed: u64) -> Netlist {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new();
        let mut signals = b.add_inputs(16);
        signals.push(b.add_const(false));
        signals.push(b.add_const(true));
        let pick = |rng: &mut StdRng, s: &[usize]| s[rng.random_range(0..s.len())];
        for i in 0..400usize {
            if i % 7 == 6 {
                let (sel, lo, hi) = (
                    pick(&mut rng, &signals),
                    pick(&mut rng, &signals),
                    pick(&mut rng, &signals),
                );
                signals.push(b.add_mux(sel, lo, hi));
                continue;
            }
            let arity = i % 9;
            let inputs: Vec<usize> = (0..arity).map(|_| pick(&mut rng, &signals)).collect();
            let table = match rng.random_range(0..3usize) {
                0 => TruthTable::from_fn(arity, |_| rng.random::<bool>()),
                1 => {
                    let t = rng.random_range(0..arity + 1) as u32;
                    TruthTable::from_fn(arity, |a| (a as u32).count_ones() >= t)
                }
                _ => {
                    let word: u64 = rng.random();
                    TruthTable::from_fn(arity, |a| (word >> (a & 63)) & 1 == 1 && (a >> 6) != 3)
                }
            };
            signals.push(b.add_lut(inputs, table));
        }
        let outputs: Vec<usize> = signals[signals.len() - 24..]
            .iter()
            .copied()
            .chain((0..8).map(|_| pick(&mut rng, &signals)))
            .collect();
        b.set_outputs(outputs);
        b.finish()
    }

    #[test]
    fn cse_table_grows_and_keeps_deduplicating() {
        let mut em = Emitter::with_capacity(0);
        let ids: Vec<u32> = (0..100).map(|_| em.fresh_value()).collect();
        let first: Vec<u32> = ids
            .windows(2)
            .map(|w| em.push(OpKind::And, w[0], w[1], w[0]))
            .collect();
        assert!(em.cse.len() > 64, "99 ops must outgrow 64 slots");
        // The same ops again, operands swapped (`and` commutes): all hits.
        let again: Vec<u32> = ids
            .windows(2)
            .map(|w| em.push(OpKind::And, w[1], w[0], w[1]))
            .collect();
        assert_eq!(first, again);
        assert_eq!(em.ops.len(), 99);
    }

    /// Pins the compiled plans byte for byte: the compiler may get
    /// faster, but what it emits may not change.
    #[test]
    fn compiled_plans_are_pinned() {
        let deep = fixture_plan(include_bytes!("../../../tests/fixtures/deep.poetbin"));
        let tiny = fixture_plan(include_bytes!("../../../tests/fixtures/tiny.poetbin"));
        let wide = EvalPlan::compile(&wide_arity_netlist(13)).expect("valid netlist");
        let got = [fingerprint(&deep), fingerprint(&tiny), fingerprint(&wide)];
        assert_eq!(
            (deep.tape_len(), tiny.tape_len(), wide.tape_len()),
            (123, 1, 891)
        );
        assert_eq!(
            got,
            [
                0x2618_7eb8_ea6f_ea7d,
                0x0c4b_a7d8_3436_276a,
                0xd56a_927d_685c_575d
            ]
        );
    }
}
