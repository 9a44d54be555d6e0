//! Liveness analysis and value-slot allocation for the specialized tape.
//!
//! The plan builder emits ops in SSA form — every definition gets a fresh
//! value id, which makes complement tracking and common-subexpression
//! elimination trivially sound. Left that way, the value array would need
//! one word block per definition (tens of thousands on a paper-shaped
//! netlist), far outside any cache once each slot is widened to a `B`-word
//! lane block. This pass runs a linear scan over the tape instead: each
//! id's live range ends at its last read, dead ranges return their slot to
//! a free stack, and the next definition reuses the most recently freed
//! slot (the hottest line in cache). Peak simultaneous liveness — not
//! total definitions — bounds the blocked value array, which is what keeps
//! it cache-resident.
//!
//! Both passes here run once per plan compile over tens of thousands of
//! ops, so they work on flat per-op and per-id `u32` arrays sized once
//! per call: no per-op allocation, no hashing. The allocator makes two
//! sweeps over the tape — one reverse sweep that settles deadness and
//! live ranges together, one forward sweep that assigns slots.

use crate::ops::{TapeOp, NUM_KINDS};

/// Location of the constant-false lane block in the value array.
pub(crate) const LOC_ZERO: u32 = 0;
/// Location of the constant-true lane block in the value array.
pub(crate) const LOC_ONE: u32 = 1;

/// Marks "none" in the dense per-id and per-op tables below.
const NONE: u32 = u32::MAX;

/// Reorders an SSA op stream into long same-opcode runs (kind-run list
/// scheduling).
///
/// The blocked executor hoists its opcode dispatch out of the op loop and
/// runs one specialized inner loop per *segment* of consecutive same-kind
/// ops. Left in emission order the tape interleaves kinds almost every
/// op, so the dispatch branch mispredicts constantly and segments
/// degenerate to length ~1. This pass list-schedules the DAG instead:
/// among the ops whose operands are all defined, it greedily drains the
/// opcode with the most ready ops (newly readied ops of the same kind
/// extend the current run) before switching. Bitwise ops are
/// order-insensitive, so any topological order produces bit-identical
/// results; this one turns tens of thousands of dispatches into a few
/// hundred.
///
/// Everything is flat arrays sized once per call — each op's
/// dependencies are found once, the consumer lists are one CSR array and
/// the per-kind ready queues are FIFOs carved out of one buffer — because
/// on a paper-shaped netlist the fresh pages a compile touches cost about
/// as much as the work done in them.
pub(crate) fn schedule_kind_runs(ops: &[TapeOp], num_ids: usize) -> Vec<TapeOp> {
    let n = ops.len();
    // `def_op[id]` = index of the op defining id, or NONE for inputs and
    // constants (always ready).
    let mut def_op = vec![NONE; num_ids];
    for (i, op) in ops.iter().enumerate() {
        def_op[op.dst as usize] = i as u32;
    }
    // Each op's dependencies, found once: the ops defining its operands,
    // a repeated operand counted once, inputs and constants not at all.
    // `deps` holds them op after op, `indegree[i]` of them for op i. They
    // are also counted into `edge_start[def]`, then prefix-summed so it
    // holds the end of def's range in the CSR consumer array.
    let mut deps = Vec::with_capacity(3 * n);
    let mut indegree = Vec::with_capacity(n);
    let mut kind_of = Vec::with_capacity(n);
    let mut per_kind = [0usize; NUM_KINDS];
    let mut edge_start = vec![0u32; n + 1];
    for op in ops {
        let before = deps.len();
        for src in [op.a, op.b, op.c] {
            let def = def_op[src as usize];
            if def != NONE && !deps[before..].contains(&def) {
                deps.push(def);
                edge_start[def as usize] += 1;
            }
        }
        indegree.push((deps.len() - before) as u8);
        kind_of.push(op.kind.index() as u8);
        per_kind[op.kind.index()] += 1;
    }
    let mut total = 0;
    for e in &mut edge_start {
        total += *e;
        *e = total;
    }
    // Filling each range from its back while walking the ops in reverse
    // leaves every consumer list in ascending op order, and `edge_start[i]`
    // at the start of op i's range (so op i's range is
    // `edge_start[i]..edge_start[i + 1]`).
    let mut consumers = vec![0u32; deps.len()];
    let mut end = deps.len();
    for i in (0..n).rev() {
        let start = end - indegree[i] as usize;
        for &def in &deps[start..end] {
            edge_start[def as usize] -= 1;
            consumers[edge_start[def as usize] as usize] = i as u32;
        }
        end = start;
    }

    // Per-kind FIFOs carved out of one buffer in kind order:
    // `fifo[head[k]..tail[k]]` holds kind k's ready ops in arrival order
    // (every op is readied exactly once, so a kind's FIFO never outgrows
    // its op count). `def_op` is dead by now; its buffer is reused.
    let mut fifo = def_op;
    let mut head = [0usize; NUM_KINDS];
    for k in 1..NUM_KINDS {
        head[k] = head[k - 1] + per_kind[k - 1];
    }
    let mut tail = head;
    for i in 0..n {
        if indegree[i] == 0 {
            let k = kind_of[i] as usize;
            fifo[tail[k]] = i as u32;
            tail[k] += 1;
        }
    }
    // The kind with the most ready ops, the lowest such kind on ties.
    let pick = |head: &[usize; NUM_KINDS], tail: &[usize; NUM_KINDS]| {
        (0..NUM_KINDS)
            .rev()
            .max_by_key(|&k| tail[k] - head[k])
            .expect("NUM_KINDS > 0")
    };
    let mut scheduled = Vec::with_capacity(n);
    let mut current = pick(&head, &tail);
    while scheduled.len() < n {
        // Drain the current kind FIFO; ops readied mid-run of the same
        // kind join the run.
        while head[current] < tail[current] {
            let i = fifo[head[current]] as usize;
            head[current] += 1;
            scheduled.push(ops[i]);
            let edges = edge_start[i] as usize..edge_start[i + 1] as usize;
            for &c in &consumers[edges] {
                indegree[c as usize] -= 1;
                if indegree[c as usize] == 0 {
                    let k = kind_of[c as usize] as usize;
                    fifo[tail[k]] = c;
                    tail[k] += 1;
                }
            }
        }
        // Switch to the kind with the most ready ops.
        current = pick(&head, &tail);
    }
    scheduled
}

/// The allocator's output: the same tape rewritten over physical slots.
pub(crate) struct Allocation {
    /// Tape ops with `dst`/`a`/`b`/`c` rewritten to physical slots.
    pub(crate) ops: Vec<TapeOp>,
    /// `(slot, primary-input index)` loads to run before the tape.
    pub(crate) input_loads: Vec<(u32, u32)>,
    /// Physical slot of each netlist output.
    pub(crate) outputs: Vec<u32>,
    /// Slots the value array must hold (constants included).
    pub(crate) num_vals: usize,
    /// SSA definitions dropped because nothing read them.
    pub(crate) dead_ops: usize,
}

/// Rewrites an SSA tape onto reusable physical slots, in place: the
/// returned [`Allocation::ops`] is `ops`' own buffer.
///
/// `input_defs` is `(value id, primary-input index)` in definition order
/// (conceptually defined before op 0); `output_ids` are read after the
/// last op, pinning their ranges to the end of the tape. Ids `0`/`1` are
/// the constants and keep slots [`LOC_ZERO`]/[`LOC_ONE`]. Loads for inputs
/// nothing reads are dropped along with dead ops.
pub(crate) fn allocate(
    mut ops: Vec<TapeOp>,
    input_defs: &[(u32, u32)],
    output_ids: &[u32],
    num_ids: usize,
) -> Allocation {
    // One reverse pass settles both deadness and live ranges. `last_use[id]`
    // is the index of the last op that reads id, `ops.len()` for outputs
    // (read after the final op, so they survive the whole tape), NONE for
    // ids nothing reads. In SSA order every reader of an op's result comes
    // after it, so by the time the reverse pass reaches an op its
    // `last_use` is final: NONE means dead, and a dead op's reads are not
    // reads.
    let mut last_use = vec![NONE; num_ids];
    for &o in output_ids {
        last_use[o as usize] = ops.len() as u32;
    }
    let mut dead_ops = 0;
    for (i, op) in ops.iter().enumerate().rev() {
        if last_use[op.dst as usize] == NONE {
            dead_ops += 1;
            continue;
        }
        for src in [op.a, op.b, op.c] {
            if last_use[src as usize] == NONE {
                last_use[src as usize] = i as u32;
            }
        }
    }

    // Linear scan. The free list is a stack so a slot freed by this op's
    // dying operand is immediately reused for its result.
    let mut slot_of = vec![NONE; num_ids];
    slot_of[0] = LOC_ZERO;
    slot_of[1] = LOC_ONE;
    let mut free: Vec<u32> = Vec::new();
    let mut next_slot = 2u32;
    let mut alloc = |free: &mut Vec<u32>| -> u32 {
        free.pop().unwrap_or_else(|| {
            let s = next_slot;
            next_slot += 1;
            s
        })
    };

    let mut input_loads = Vec::with_capacity(input_defs.len());
    for &(id, feature) in input_defs {
        if last_use[id as usize] == NONE {
            continue; // loaded for a LUT that never actually reads it
        }
        let slot = alloc(&mut free);
        slot_of[id as usize] = slot;
        input_loads.push((slot, feature));
    }

    // `ops[kept]` is overwritten only once op `i ≥ kept` has been read.
    let mut kept = 0;
    for i in 0..ops.len() {
        let op = ops[i];
        if last_use[op.dst as usize] == NONE {
            continue;
        }
        let a = slot_of[op.a as usize];
        let b = slot_of[op.b as usize];
        let c = slot_of[op.c as usize];
        debug_assert!(
            a != NONE && b != NONE && c != NONE,
            "operand read before definition"
        );
        // Free dying operands before allocating the destination: reading
        // each lane strictly precedes writing it, so in-place reuse is
        // sound even for the three-operand mux. Dedup so `x op x` cannot
        // free one slot twice (double-allocation would alias two live
        // values).
        let mut sources = [op.a, op.b, op.c];
        sources.sort_unstable();
        for (j, &src) in sources.iter().enumerate() {
            if src > 1 && (j == 0 || sources[j - 1] != src) && last_use[src as usize] == i as u32 {
                free.push(slot_of[src as usize]);
            }
        }
        let dst = alloc(&mut free);
        slot_of[op.dst as usize] = dst;
        ops[kept] = TapeOp { dst, a, b, c, ..op };
        kept += 1;
    }
    ops.truncate(kept);

    let outputs = output_ids
        .iter()
        .map(|&o| {
            debug_assert!(slot_of[o as usize] != NONE, "output never defined");
            slot_of[o as usize]
        })
        .collect();

    Allocation {
        ops,
        input_loads,
        outputs,
        num_vals: next_slot as usize,
        dead_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpKind;

    fn op(kind: OpKind, dst: u32, a: u32, b: u32, c: u32) -> TapeOp {
        TapeOp { kind, dst, a, b, c }
    }

    /// ids: 0/1 consts, 2/3 inputs, 4..=6 ops. Op 5 is dead.
    #[test]
    fn dead_ops_are_dropped_and_slots_reused() {
        let ops = vec![
            op(OpKind::And, 4, 2, 3, 2),
            op(OpKind::Not, 5, 2, 2, 2), // dead: nothing reads 5
            op(OpKind::Xor, 6, 4, 3, 4),
        ];
        let a = allocate(ops, &[(2, 0), (3, 1)], &[6], 7);
        assert_eq!(a.dead_ops, 1);
        assert_eq!(a.ops.len(), 2);
        // Inputs take slots 2 and 3; the And result takes slot 4 (nothing
        // died yet: 2 is read again by nothing, but 3 is read by the Xor).
        // At the Xor both 4 and 3 die, so its result reuses one of them.
        assert!(a.num_vals <= 5);
        assert_eq!(a.outputs.len(), 1);
        assert!(a.outputs[0] >= 2);
    }

    #[test]
    fn same_operand_twice_frees_once() {
        // Xor(x, x) kills id 2 — the free list must grow by one slot, not
        // two, or the next two definitions would share a slot.
        let ops = vec![
            op(OpKind::Xor, 3, 2, 2, 2),
            op(OpKind::Not, 4, 3, 3, 3),
            op(OpKind::Or, 5, 4, 1, 4),
        ];
        let a = allocate(ops, &[(2, 0)], &[5], 6);
        assert_eq!(a.dead_ops, 0);
        let slots: Vec<u32> = a.ops.iter().map(|o| o.dst).collect();
        // Each dst must differ from every slot still live at that point;
        // with perfect reuse all three results share the input's slot 2.
        assert_eq!(slots, vec![2, 2, 2]);
        assert_eq!(a.num_vals, 3);
    }

    #[test]
    fn outputs_survive_to_the_end() {
        // id 3 is an output and must keep its slot even though its last op
        // read is early.
        let ops = vec![
            op(OpKind::Not, 3, 2, 2, 2),
            op(OpKind::Not, 4, 3, 3, 3),
            op(OpKind::Not, 5, 4, 4, 4),
        ];
        let a = allocate(ops, &[(2, 0)], &[3, 5], 6);
        let s3 = a.ops[0].dst;
        // Neither later definition may reuse the output's slot.
        assert_ne!(a.ops[1].dst, s3);
        assert_ne!(a.ops[2].dst, s3);
        assert_eq!(a.outputs[0], s3);
        assert_eq!(a.outputs[1], a.ops[2].dst);
    }

    #[test]
    fn unused_input_loads_are_dropped() {
        let ops = vec![op(OpKind::Not, 4, 2, 2, 2)];
        let a = allocate(ops, &[(2, 0), (3, 1)], &[4], 5);
        assert_eq!(a.input_loads.len(), 1);
        assert_eq!(a.input_loads[0].1, 0);
    }

    #[test]
    fn constant_output_maps_to_const_slot() {
        let a = allocate(vec![], &[(2, 0)], &[1, 0], 3);
        assert_eq!(a.outputs, vec![LOC_ONE, LOC_ZERO]);
        assert!(a.input_loads.is_empty(), "unused input load kept");
    }
}
