//! Specialized tape opcodes and the mux-classification rules that produce
//! them.
//!
//! The universal lane-parallel mux `lo ^ (sel & (lo ^ hi))` costs three
//! reads and three logic ops per word, but most muxes the kernel compiler
//! emits have a constant, repeated or complemented operand: a mux with
//! `lo = 0` is just `sel & hi`, one whose branches are complements is a
//! plain XOR, and so on. Classifying each mux once at plan-compile time
//! lets the hot loop run one- and two-input word ops for the common cases
//! and reserve the full three-operand mux for the few that need it.

use std::fmt;

/// The operation a [`TapeOp`] applies to its operand lane words.
///
/// Operand conventions (`a`, `b`, `c` are value-array locations):
///
/// | kind     | semantics                         |
/// |----------|-----------------------------------|
/// | `And`    | `a & b`                           |
/// | `AndNot` | `a & !b`                          |
/// | `Or`     | `a \| b`                          |
/// | `OrNot`  | `a \| !b`                         |
/// | `Xor`    | `a ^ b`                           |
/// | `Xnor`   | `!(a ^ b)`                        |
/// | `Not`    | `!a`                              |
/// | `Mux`    | `b ^ (a & (b ^ c))` (`a` selects) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum OpKind {
    /// `a & b`.
    And,
    /// `a & !b`.
    AndNot,
    /// `a | b`.
    Or,
    /// `a | !b`.
    OrNot,
    /// `a ^ b`.
    Xor,
    /// `!(a ^ b)`.
    Xnor,
    /// `!a`.
    Not,
    /// The general mux: `a ? c : b`, branch-free.
    Mux,
}

/// Number of distinct [`OpKind`] variants (histogram width).
pub(crate) const NUM_KINDS: usize = 8;

impl OpKind {
    /// Dense index for histograms: the declaration order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Display name, also used in [`OpStats`]' histogram.
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::And => "and",
            OpKind::AndNot => "andnot",
            OpKind::Or => "or",
            OpKind::OrNot => "ornot",
            OpKind::Xor => "xor",
            OpKind::Xnor => "xnor",
            OpKind::Not => "not",
            OpKind::Mux => "mux",
        }
    }

    /// Whether swapping `a` and `b` leaves the result unchanged (used to
    /// canonicalise operands before common-subexpression lookup).
    pub(crate) fn commutative(self) -> bool {
        matches!(self, OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Xnor)
    }
}

/// One specialized tape entry. `dst`, `a`, `b`, `c` are value-array
/// locations; unused operands repeat `a` so every op is fixed-width.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TapeOp {
    pub(crate) kind: OpKind,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
}

/// Per-opcode tape composition, reported by
/// [`EvalPlan::op_stats`](crate::EvalPlan::op_stats).
///
/// The histogram shows how far specialization collapsed the generic mux
/// stream: on tree-shaped PoET-BiN netlists the vast majority of ops end
/// up as one- or two-operand word instructions, and only a small residue
/// stays a full three-operand `mux`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    counts: [usize; NUM_KINDS],
}

impl OpStats {
    pub(crate) fn record(&mut self, kind: OpKind) {
        self.counts[kind.index()] += 1;
    }

    /// Total ops on the tape (sum of the histogram).
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Ops still requiring the general three-operand mux.
    pub fn muxes(&self) -> usize {
        self.counts[OpKind::Mux.index()]
    }

    /// `(opcode name, count)` pairs in fixed histogram order, zero counts
    /// included.
    pub fn histogram(&self) -> Vec<(&'static str, usize)> {
        [
            OpKind::And,
            OpKind::AndNot,
            OpKind::Or,
            OpKind::OrNot,
            OpKind::Xor,
            OpKind::Xnor,
            OpKind::Not,
            OpKind::Mux,
        ]
        .iter()
        .map(|&k| (k.name(), self.counts[k.index()]))
        .collect()
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, count) in self.histogram() {
            if count == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}:{count}")?;
            first = false;
        }
        if first {
            write!(f, "empty")?;
        }
        Ok(())
    }
}

/// Outcome of classifying one structural mux.
pub(crate) enum Classified {
    /// The mux is a no-op; readers should use this existing value.
    Alias(u32),
    /// A genuine op: `(kind, a, b, c)` per the [`OpKind`] conventions.
    Op(OpKind, u32, u32, u32),
}

/// Classifies the structural mux `sel ? hi : lo` over value ids, given the
/// constant ids and a complement oracle (`comp(x)` returns the id known to
/// hold `!x`, if any).
///
/// Every rule is a lane-wise identity of `out = (!s & lo) | (s & hi)`:
///
/// * degenerate selects and equal branches alias;
/// * a constant branch folds to `And`/`AndNot`/`Or`/`OrNot`/`Not`;
/// * `sel` reused as a branch absorbs (`mux(s, s, h) = s & h`,
///   `mux(s, l, s) = s | l`);
/// * a branch equal to `!sel` simplifies the same way
///   (`mux(s, !s, h) = h | !s`, `mux(s, l, !s) = l & !s`);
/// * complementary branches are a plain `Xor` (`mux(s, l, !l) = l ^ s`).
pub(crate) fn classify(
    sel: u32,
    lo: u32,
    hi: u32,
    zero: u32,
    one: u32,
    comp: impl Fn(u32) -> Option<u32>,
) -> Classified {
    use Classified::{Alias, Op};
    if sel == zero || lo == hi {
        return Alias(lo);
    }
    if sel == one {
        return Alias(hi);
    }
    if lo == zero && hi == one {
        return Alias(sel);
    }
    if lo == one && hi == zero {
        return Op(OpKind::Not, sel, sel, sel);
    }
    if lo == zero {
        return Op(OpKind::And, sel, hi, sel);
    }
    if hi == zero {
        return Op(OpKind::AndNot, lo, sel, lo);
    }
    if hi == one {
        return Op(OpKind::Or, sel, lo, sel);
    }
    if lo == one {
        return Op(OpKind::OrNot, hi, sel, hi);
    }
    if sel == lo {
        return Op(OpKind::And, sel, hi, sel);
    }
    if sel == hi {
        return Op(OpKind::Or, sel, lo, sel);
    }
    if comp(sel) == Some(lo) {
        return Op(OpKind::OrNot, hi, sel, hi);
    }
    if comp(sel) == Some(hi) {
        return Op(OpKind::AndNot, lo, sel, lo);
    }
    if comp(lo) == Some(hi) {
        return Op(OpKind::Xor, lo, sel, lo);
    }
    Op(OpKind::Mux, sel, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively checks every classification against the mux truth
    /// table over scalar bits, for all operand-identity shapes the rules
    /// can see.
    #[test]
    fn classification_rules_are_lane_identities() {
        const ZERO: u32 = 0;
        const ONE: u32 = 1;
        // Value ids: 0/1 constants, 2..=4 free variables, 5 = !2.
        let eval = |id: u32, x: bool, y: bool, z: bool| match id {
            0 => false,
            1 => true,
            2 => x,
            3 => y,
            4 => z,
            5 => !x,
            _ => unreachable!(),
        };
        let comp = |id: u32| match id {
            2 => Some(5u32),
            5 => Some(2u32),
            _ => None,
        };
        for sel in 0..6u32 {
            for lo in 0..6u32 {
                for hi in 0..6u32 {
                    for bits in 0..8u8 {
                        let (x, y, z) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                        let s = eval(sel, x, y, z);
                        let l = eval(lo, x, y, z);
                        let h = eval(hi, x, y, z);
                        let expect = if s { h } else { l };
                        let got = match classify(sel, lo, hi, ZERO, ONE, comp) {
                            Classified::Alias(v) => eval(v, x, y, z),
                            Classified::Op(kind, a, b, _c) => {
                                let (av, bv) = (eval(a, x, y, z), eval(b, x, y, z));
                                match kind {
                                    OpKind::And => av & bv,
                                    OpKind::AndNot => av & !bv,
                                    OpKind::Or => av | bv,
                                    OpKind::OrNot => av | !bv,
                                    OpKind::Xor => av ^ bv,
                                    OpKind::Xnor => !(av ^ bv),
                                    OpKind::Not => !av,
                                    OpKind::Mux => {
                                        let c = eval(_c, x, y, z);
                                        if av {
                                            c
                                        } else {
                                            bv
                                        }
                                    }
                                }
                            }
                        };
                        assert_eq!(
                            got, expect,
                            "mux(sel={sel}, lo={lo}, hi={hi}) misclassified at bits={bits:03b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn op_stats_histogram_and_display() {
        let mut stats = OpStats::default();
        stats.record(OpKind::And);
        stats.record(OpKind::And);
        stats.record(OpKind::Mux);
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.muxes(), 1);
        let hist = stats.histogram();
        assert_eq!(hist[0], ("and", 2));
        assert_eq!(hist[NUM_KINDS - 1], ("mux", 1));
        assert_eq!(format!("{stats}"), "and:2 mux:1");
        assert_eq!(format!("{}", OpStats::default()), "empty");
    }
}
