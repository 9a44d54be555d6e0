//! Per-LUT compiled kernels: a truth table lowered into a deduplicated
//! mux DAG at plan-compile time.
//!
//! `TruthTable::eval_words` reduces an arbitrary table bottom-up at every
//! call — `Θ(2^k)` word operations per 64 examples, even when most of the
//! table is redundant. The engine evaluates the *same* table millions of
//! times, so it pays once to compile it instead: Shannon-decompose the
//! table, memoise identical subtables (decision-tree LUTs are full of
//! repeated leaves), fold constant and single-literal cofactors into free
//! references, and keep only the muxes that remain. A typical 6-input
//! tree LUT shrinks from 63 structural muxes to a couple dozen ops, and
//! threshold (MAT) tables collapse much further.
//!
//! A plan compile runs one [`KernelBuilder`] over every LUT of the
//! netlist, thousands of tables in a row, so the builder allocates per
//! compile rather than per table: its op buffer is cleared, not dropped,
//! and its subtable/shape memo is one open-addressed array, sized from
//! the largest arity seen so far and emptied between tables by bumping a
//! generation stamp instead of clearing or reallocating it.

use poetbin_bits::TruthTable;

/// A value available while a kernel runs: constants and operand literals
/// are free; `Node` reads an earlier mux result from the scratch buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KRef {
    /// Constant false (all-zero lanes).
    Zero,
    /// Constant true (all-one lanes).
    One,
    /// Operand `i`'s lane word.
    Var(u8),
    /// Complement of operand `i`'s lane word.
    NotVar(u8),
    /// Result of mux op `i`.
    Node(u32),
}

impl KRef {
    /// A distinct `u32` per reference, for memo keys.
    fn code(self) -> u32 {
        match self {
            KRef::Zero => 0,
            KRef::One => 1,
            KRef::Var(v) => 2 + 2 * u32::from(v),
            KRef::NotVar(v) => 3 + 2 * u32::from(v),
            KRef::Node(i) => 514 + i,
        }
    }
}

/// One mux: `out = if sel { hi } else { lo }`, lane-parallel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KOp {
    pub(crate) sel: u8,
    pub(crate) lo: KRef,
    pub(crate) hi: KRef,
}

/// One memo entry, `(stamp, tag, key, value)`; live only while `stamp`
/// equals the builder's current generation. `tag` is the subtable width
/// (≤ 6) for a content entry, `8 + sel` for a shape entry.
type Slot = (u32, u32, u64, KRef);

const EMPTY: Slot = (0, 0, 0, KRef::Zero);

/// Compiles truth tables into mux DAGs, one table at a time, reusing its
/// buffers across tables. The memo holds a content entry per word-sized
/// subtable (`(width, bits)`) and a shape entry per merge node
/// (`(sel, lo, hi)`), both for the current table only.
#[derive(Default)]
pub(crate) struct KernelBuilder {
    ops: Vec<KOp>,
    memo: Vec<Slot>,
    generation: u32,
}

impl KernelBuilder {
    /// Compiles `table` and returns its result reference. The mux ops
    /// stay in [`KernelBuilder::ops`] until the next call.
    pub(crate) fn compile(&mut self, table: &TruthTable) -> KRef {
        let k = table.inputs();
        // A table has fewer than 2^k subtables and 2^k merges, so 2^(k+2)
        // slots keep the load factor at or under one half.
        let want = 1usize << (k + 2);
        if self.memo.len() < want {
            self.memo = vec![EMPTY; want];
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.memo.fill(EMPTY);
            self.generation = 1;
        }
        self.ops.clear();
        self.build(table.as_bits().as_words(), k, 0)
    }

    /// The mux ops of the last compiled table, in dependency order.
    /// Invariant relied on by the tape flattener: when the result is a
    /// `Node`, it is always the LAST op — a shape-memo hit can only return
    /// a pre-existing node when no new ops were emitted underneath it, so
    /// a freshly pushed root is necessarily final.
    pub(crate) fn ops(&self) -> &[KOp] {
        &self.ops
    }

    /// The memo slot holding `(tag, key)`, or the empty slot where it
    /// would go, with the stored value on a hit.
    fn find(&self, tag: u32, key: u64) -> (usize, Option<KRef>) {
        let h = (key ^ u64::from(tag).rotate_left(56)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Multiplicative hashing: the top log2(len) bits pick the slot.
        let mut i = (h >> (64 - self.memo.len().trailing_zeros())) as usize;
        loop {
            let (stamp, t, k, value) = self.memo[i];
            if stamp != self.generation {
                return (i, None);
            }
            if (t, k) == (tag, key) {
                return (i, Some(value));
            }
            i = (i + 1) & (self.memo.len() - 1);
        }
    }

    fn merge(&mut self, sel: u8, lo: KRef, hi: KRef) -> KRef {
        if lo == hi {
            return lo;
        }
        if lo == KRef::Zero && hi == KRef::One {
            return KRef::Var(sel);
        }
        if lo == KRef::One && hi == KRef::Zero {
            return KRef::NotVar(sel);
        }
        let (tag, key) = (
            8 + u32::from(sel),
            u64::from(lo.code()) << 32 | u64::from(hi.code()),
        );
        let (at, hit) = self.find(tag, key);
        if let Some(r) = hit {
            return r;
        }
        let r = KRef::Node(self.ops.len() as u32);
        self.ops.push(KOp { sel, lo, hi });
        self.memo[at] = (self.generation, tag, key, r);
        r
    }

    /// Compiles a subtable held in the low `2^width` bits of `t`
    /// (`width ≤ 6`), with full content deduplication.
    fn build_word(&mut self, t: u64, width: usize) -> KRef {
        let mask = if width == 6 {
            u64::MAX
        } else {
            (1u64 << (1 << width)) - 1
        };
        let t = t & mask;
        if t == 0 {
            return KRef::Zero;
        }
        if t == mask {
            return KRef::One;
        }
        if width == 1 {
            // `0b01` is `!x0`, `0b10` is `x0`: a bare literal, never an op,
            // so not worth a memo entry.
            return [KRef::NotVar(0), KRef::Var(0)][(t >> 1) as usize];
        }
        let tag = width as u32;
        if let (_, Some(r)) = self.find(tag, t) {
            return r;
        }
        let half = 1usize << (width - 1);
        let lo = self.build_word(t, width - 1);
        let hi = self.build_word(t >> half, width - 1);
        let r = self.merge(width as u8 - 1, lo, hi);
        // The recursion may have filled the slot the first probe found.
        let (at, _) = self.find(tag, t);
        self.memo[at] = (self.generation, tag, t, r);
        r
    }

    /// Compiles a table of any arity by splitting high inputs until the
    /// subtable fits one word. Splits land on word boundaries because only
    /// inputs ≥ 6 are split.
    fn build(&mut self, words: &[u64], width: usize, word_offset: usize) -> KRef {
        if width <= 6 {
            return self.build_word(words[word_offset], width);
        }
        let half_words = 1usize << (width - 7);
        let lo = self.build(words, width - 1, word_offset);
        let hi = self.build(words, width - 1, word_offset + half_words);
        self.merge(width as u8 - 1, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference evaluator over 64 lanes: `sels[i]` is operand `i`'s lane
    /// word. The engine runs the flattened tape instead.
    fn eval(ops: &[KOp], result: KRef, sels: &[u64]) -> u64 {
        let resolve = |r: KRef, scratch: &[u64]| match r {
            KRef::Zero => 0,
            KRef::One => u64::MAX,
            KRef::Var(v) => sels[v as usize],
            KRef::NotVar(v) => !sels[v as usize],
            KRef::Node(i) => scratch[i as usize],
        };
        let mut scratch = Vec::with_capacity(ops.len());
        for op in ops {
            let s = sels[op.sel as usize];
            let lo = resolve(op.lo, &scratch);
            let hi = resolve(op.hi, &scratch);
            scratch.push(lo ^ (s & (lo ^ hi)));
        }
        resolve(result, &scratch)
    }

    /// Pseudo-random independent lane words, one per operand.
    fn lane_words(k: usize) -> Vec<u64> {
        (0..k)
            .map(|i| {
                (i as u64 + 3)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(i as u32)
            })
            .collect()
    }

    /// Compiles `table` on `builder` and checks it against `eval_words`
    /// and the scalar table lookup; returns the result reference.
    fn check_with(builder: &mut KernelBuilder, table: &TruthTable, case: &str) -> KRef {
        let result = builder.compile(table);
        let k = table.inputs();
        let sels = lane_words(k);
        let word = eval(builder.ops(), result, &sels);
        assert_eq!(
            word,
            table.eval_words(&sels),
            "{case}: kernel vs kernel-free eval_words"
        );
        for l in 0..64 {
            let addr: usize = (0..k).map(|i| (((sels[i] >> l) & 1) as usize) << i).sum();
            assert_eq!((word >> l) & 1 == 1, table.eval(addr), "{case}: lane {l}");
        }
        result
    }

    /// [`check_with`] on a fresh builder; returns the op count.
    fn check_table(table: &TruthTable, case: &str) -> usize {
        let mut builder = KernelBuilder::default();
        check_with(&mut builder, table, case);
        builder.ops().len()
    }

    fn hashed_table(k: usize, salt: u64) -> TruthTable {
        TruthTable::from_fn(k, |i| {
            (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 13
                & 1
                == 1
        })
    }

    #[test]
    fn kernel_matches_table_on_random_functions() {
        for k in 0..=8usize {
            for salt in 0..4u64 {
                check_table(&hashed_table(k, salt), &format!("k={k} salt={salt}"));
            }
        }
    }

    #[test]
    fn kernel_handles_degenerate_tables() {
        assert_eq!(check_table(&TruthTable::zeros(6), "const0"), 0);
        check_table(&TruthTable::ones(6), "const1");
        // Single-literal and majority functions.
        check_table(&TruthTable::from_fn(4, |i| (i >> 2) & 1 == 1), "literal");
        check_table(
            &TruthTable::from_fn(5, |i| (i as u32).count_ones() >= 3),
            "majority5",
        );
        assert_eq!(
            check_table(&TruthTable::from_fn(3, |i| i & 1 == 1), "bare literal"),
            0,
            "a bare literal needs no muxes"
        );
    }

    #[test]
    fn dedup_keeps_threshold_tables_small() {
        // A 6-input majority has heavy subtable sharing; the deduplicated
        // DAG must stay well under the 63 structural muxes.
        let majority = TruthTable::from_fn(6, |i| (i as u32).count_ones() >= 3);
        let ops = check_table(&majority, "majority6");
        assert!(ops <= 25, "majority-6 compiled to {ops} ops");
    }

    /// One builder reused across tables of mixed arities must compile each
    /// exactly as a fresh builder would: a memo entry left over from an
    /// earlier table (same width and bits, or same shape) must never leak
    /// into the next one.
    #[test]
    fn reused_builder_matches_fresh_builders() {
        let arities = [8usize, 0, 6, 2, 7, 6, 1, 8, 3, 6, 5, 0, 4, 7, 6, 6];
        let mut reused = KernelBuilder::default();
        for (n, &k) in arities.iter().enumerate() {
            // Alternate hashed tables with thresholds: thresholds repeat
            // the subtables a hashed table of the same width just stored.
            let table = if n % 2 == 0 {
                hashed_table(k, n as u64)
            } else {
                TruthTable::from_fn(k, |i| (i as u32).count_ones() as usize >= k / 2)
            };
            let case = format!("table {n} (k={k})");
            let result = check_with(&mut reused, &table, &case);
            let mut fresh = KernelBuilder::default();
            assert_eq!(result, fresh.compile(&table), "{case}: result");
            assert_eq!(reused.ops().len(), fresh.ops().len(), "{case}: op count");
            for (a, b) in reused.ops().iter().zip(fresh.ops()) {
                assert_eq!((a.sel, a.lo, a.hi), (b.sel, b.lo, b.hi), "{case}: ops");
            }
        }
    }

    #[test]
    fn generation_wraparound_resets_the_memo() {
        let mut builder = KernelBuilder::default();
        let table = hashed_table(6, 9);
        check_with(&mut builder, &table, "before wrap");
        let expect = builder.ops().len();
        builder.generation = u32::MAX;
        check_with(&mut builder, &table, "at wrap");
        assert_eq!(builder.generation, 1);
        assert_eq!(builder.ops().len(), expect);
    }
}
