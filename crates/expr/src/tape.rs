//! Executable tapes: compiled evaluation schedules.
//!
//! A [`Tape`] is the bytecode the "code generator" emits — the runnable
//! artifact corresponding to the CUDA C the paper's SymPyGR pipeline
//! produces. The solver's generated-RHS backends interpret it over
//! batches of grid points ([`Tape::eval_lanes`]) for the `A` component
//! of the RHS; the three scheduling strategies produce tapes with
//! identical arithmetic but different temporary-slot footprints, which
//! is what Fig. 11 / Table II measure.
//!
//! Slot allocation reuses freed slots, so the tape's `n_slots` equals the
//! schedule's peak live count plus the operand window — the working-set
//! size that drives cache behaviour during interpretation.

use crate::graph::{ExprGraph, NodeId, Op};
use crate::regalloc::{simulate_spills, SpillStats};
use crate::schedule::Schedule;
use std::collections::HashMap;

/// One tape instruction. `dst`/`a`/`b` are temporary-slot indices;
/// `Input` reads the flat input array, `Output` writes the output array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TapeInstr {
    /// `slots[dst] = constants[c]`
    Const {
        dst: u16,
        c: u16,
    },
    /// `slots[dst] = inputs[i]`
    Input {
        dst: u16,
        i: u16,
    },
    Add {
        dst: u16,
        a: u16,
        b: u16,
    },
    Sub {
        dst: u16,
        a: u16,
        b: u16,
    },
    Mul {
        dst: u16,
        a: u16,
        b: u16,
    },
    Div {
        dst: u16,
        a: u16,
        b: u16,
    },
    Neg {
        dst: u16,
        a: u16,
    },
    Powi {
        dst: u16,
        a: u16,
        n: i16,
    },
    /// `outputs[o] = slots[a]`
    Output {
        o: u16,
        a: u16,
    },
}

/// A compiled, executable evaluation tape.
pub struct Tape {
    pub instrs: Vec<TapeInstr>,
    pub constants: Vec<f64>,
    /// Temporary slots needed per point by [`Tape::eval_lanes`].
    pub n_slots: usize,
    pub n_inputs: usize,
    pub n_outputs: usize,
    /// Flop count per evaluation.
    pub flops: u64,
    /// Spill statistics at the 56-register budget used by the paper
    /// (recorded at compile time for the device counters).
    pub spill_stats: SpillStats,
    pub strategy_name: &'static str,
}

impl Tape {
    /// Compile a schedule into a tape. `registers` sets the spill-model
    /// budget recorded in [`Tape::spill_stats`] (the paper uses 56).
    pub fn compile(g: &ExprGraph, schedule: &Schedule, registers: usize) -> Tape {
        let spill_stats = simulate_spills(g, schedule, registers);
        let mut instrs: Vec<TapeInstr> = Vec::with_capacity(schedule.order.len() * 2);
        let mut constants: Vec<f64> = Vec::new();
        let mut const_idx: HashMap<u64, u16> = HashMap::new();

        // Remaining-use counts to recycle slots.
        let mut remaining: HashMap<NodeId, u32> = HashMap::new();
        for &n in &schedule.order {
            for c in g.op(n).operands() {
                *remaining.entry(c).or_insert(0) += 1;
            }
        }
        let out_positions: HashMap<NodeId, Vec<u16>> = {
            let mut m: HashMap<NodeId, Vec<u16>> = HashMap::new();
            for (i, &o) in schedule.outputs.iter().enumerate() {
                m.entry(o).or_default().push(i as u16);
            }
            m
        };

        let mut slot_of: HashMap<NodeId, u16> = HashMap::new();
        let mut free: Vec<u16> = Vec::new();
        let mut n_slots: u16 = 0;
        let mut flops: u64 = 0;

        let alloc = |free: &mut Vec<u16>, n_slots: &mut u16| -> u16 {
            free.pop().unwrap_or_else(|| {
                let s = *n_slots;
                *n_slots += 1;
                s
            })
        };

        // Materialize an operand into a slot (leaves load on demand).
        macro_rules! operand_slot {
            ($id:expr) => {{
                let id: NodeId = $id;
                match g.op(id) {
                    Op::Const(bits) => {
                        let c = *const_idx.entry(bits).or_insert_with(|| {
                            constants.push(f64::from_bits(bits));
                            (constants.len() - 1) as u16
                        });
                        let dst = alloc(&mut free, &mut n_slots);
                        instrs.push(TapeInstr::Const { dst, c });
                        (dst, true)
                    }
                    Op::Sym(i) => {
                        let dst = alloc(&mut free, &mut n_slots);
                        instrs.push(TapeInstr::Input { dst, i: i as u16 });
                        (dst, true)
                    }
                    _ => (*slot_of.get(&id).expect("operand scheduled"), false),
                }
            }};
        }

        for &n in &schedule.order {
            let op = g.op(n);
            let mut temp_slots: Vec<u16> = Vec::new();
            let (sa, sb) = match op {
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                    let (sa, ta) = operand_slot!(a);
                    if ta {
                        temp_slots.push(sa);
                    }
                    let (sb, tb) = operand_slot!(b);
                    if tb {
                        temp_slots.push(sb);
                    }
                    (sa, Some(sb))
                }
                Op::Neg(a) | Op::Pow(a, _) => {
                    let (sa, ta) = operand_slot!(a);
                    if ta {
                        temp_slots.push(sa);
                    }
                    (sa, None)
                }
                Op::Const(_) | Op::Sym(_) => unreachable!("leaves are not scheduled"),
            };
            // Release interior operand slots whose last use this is.
            for c in op.operands() {
                if g.op(c).is_leaf() {
                    continue;
                }
                let r = remaining.get_mut(&c).unwrap();
                *r -= 1;
                if *r == 0 {
                    if let Some(s) = slot_of.remove(&c) {
                        free.push(s);
                    }
                }
            }
            // Release one-shot leaf slots.
            free.extend(temp_slots);
            let dst = alloc(&mut free, &mut n_slots);
            flops += op.flops();
            instrs.push(match op {
                Op::Add(..) => TapeInstr::Add { dst, a: sa, b: sb.unwrap() },
                Op::Sub(..) => TapeInstr::Sub { dst, a: sa, b: sb.unwrap() },
                Op::Mul(..) => TapeInstr::Mul { dst, a: sa, b: sb.unwrap() },
                Op::Div(..) => TapeInstr::Div { dst, a: sa, b: sb.unwrap() },
                Op::Neg(_) => TapeInstr::Neg { dst, a: sa },
                Op::Pow(_, k) => TapeInstr::Powi { dst, a: sa, n: k as i16 },
                _ => unreachable!(),
            });
            // Emit outputs immediately (store-to-global in Algorithm 3).
            if let Some(outs) = out_positions.get(&n) {
                for &o in outs {
                    instrs.push(TapeInstr::Output { o, a: dst });
                }
            }
            if remaining.get(&n).copied().unwrap_or(0) > 0 {
                slot_of.insert(n, dst);
            } else {
                free.push(dst);
            }
        }
        // Outputs that are pure leaves (degenerate but legal).
        for (i, &o) in schedule.outputs.iter().enumerate() {
            match g.op(o) {
                Op::Const(bits) => {
                    let c = *const_idx.entry(bits).or_insert_with(|| {
                        constants.push(f64::from_bits(bits));
                        (constants.len() - 1) as u16
                    });
                    let dst = alloc(&mut free, &mut n_slots);
                    instrs.push(TapeInstr::Const { dst, c });
                    instrs.push(TapeInstr::Output { o: i as u16, a: dst });
                    free.push(dst);
                }
                Op::Sym(s) => {
                    let dst = alloc(&mut free, &mut n_slots);
                    instrs.push(TapeInstr::Input { dst, i: s as u16 });
                    instrs.push(TapeInstr::Output { o: i as u16, a: dst });
                    free.push(dst);
                }
                _ => {}
            }
        }

        let n_inputs = g
            .nodes()
            .iter()
            .filter_map(|op| match op {
                Op::Sym(i) => Some(*i as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Tape {
            instrs,
            constants,
            n_slots: n_slots as usize,
            n_inputs,
            n_outputs: schedule.outputs.len(),
            flops,
            spill_stats,
            strategy_name: schedule.strategy.name(),
        }
    }

    /// Evaluate the tape for one point. `slots` must have `n_slots`
    /// capacity and is reused across calls (the hot-loop workhorse
    /// buffer). This is [`Tape::eval_lanes`] with a single lane.
    pub fn eval_into(&self, inputs: &[f64], outputs: &mut [f64], slots: &mut [f64]) {
        self.eval_lanes::<1>(
            inputs.as_chunks().0,
            outputs.as_chunks_mut().0,
            slots.as_chunks_mut().0,
        );
    }

    /// Evaluate the tape for `L` points at once, structure-of-arrays:
    /// `inputs[i][l]` is input `i` of point `l`, and likewise for
    /// `outputs` and the `n_slots` temporaries in `slots`.
    ///
    /// Each instruction is dispatched once per batch; under it runs a
    /// branch-free loop over the lanes that the compiler can vectorize.
    /// Every lane executes the same IEEE operations in the same order as
    /// a one-point evaluation of its own inputs, so the results are
    /// bit-identical to [`Tape::eval_into`] point by point.
    pub fn eval_lanes<const L: usize>(
        &self,
        inputs: &[[f64; L]],
        outputs: &mut [[f64; L]],
        slots: &mut [[f64; L]],
    ) {
        debug_assert!(slots.len() >= self.n_slots);
        debug_assert!(outputs.len() >= self.n_outputs);
        for ins in &self.instrs {
            match *ins {
                TapeInstr::Const { dst, c } => {
                    slots[dst as usize] = [self.constants[c as usize]; L]
                }
                TapeInstr::Input { dst, i } => slots[dst as usize] = inputs[i as usize],
                TapeInstr::Add { dst, a, b } => lanes2(slots, dst, a, b, |x, y| x + y),
                TapeInstr::Sub { dst, a, b } => lanes2(slots, dst, a, b, |x, y| x - y),
                TapeInstr::Mul { dst, a, b } => lanes2(slots, dst, a, b, |x, y| x * y),
                TapeInstr::Div { dst, a, b } => lanes2(slots, dst, a, b, |x, y| x / y),
                TapeInstr::Neg { dst, a } => lanes1(slots, dst, a, |x| -x),
                TapeInstr::Powi { dst, a, n } => lanes1(slots, dst, a, |x| x.powi(n as i32)),
                TapeInstr::Output { o, a } => outputs[o as usize] = slots[a as usize],
            }
        }
    }

    /// Convenience single-point evaluation with fresh buffers.
    pub fn eval(&self, inputs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_outputs];
        let mut slots = vec![0.0; self.n_slots];
        self.eval_into(inputs, &mut out, &mut slots);
        out
    }
}

/// `slots[dst] = f(slots[a])` lane by lane. The operand is copied first,
/// so `dst` may equal `a`.
#[inline(always)]
fn lanes1<const L: usize>(slots: &mut [[f64; L]], dst: u16, a: u16, f: impl Fn(f64) -> f64) {
    let x = slots[a as usize];
    slots[dst as usize] = std::array::from_fn(|l| f(x[l]));
}

/// `slots[dst] = f(slots[a], slots[b])` lane by lane. The operands are
/// copied first, so `dst` may equal `a` or `b`.
#[inline(always)]
fn lanes2<const L: usize>(
    slots: &mut [[f64; L]],
    dst: u16,
    a: u16,
    b: u16,
    f: impl Fn(f64, f64) -> f64,
) {
    let (x, y) = (slots[a as usize], slots[b as usize]);
    slots[dst as usize] = std::array::from_fn(|l| f(x[l], y[l]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssn::{build_bssn_rhs, BssnParams};
    use crate::schedule::{schedule, ScheduleStrategy};
    use crate::symbols::NUM_INPUTS;

    #[test]
    fn tape_matches_graph_eval_on_toy() {
        let mut g = ExprGraph::new();
        let x = g.sym(0);
        let y = g.sym(1);
        let a = g.add(x, y);
        let b = g.mul(a, a);
        let c = g.div(b, x);
        let d = g.pow(c, -2);
        let o = g.sub(d, y);
        for s in ScheduleStrategy::all() {
            let sch = schedule(&g, &[o, b], s);
            let tape = Tape::compile(&g, &sch, 56);
            let inputs = [2.0f64, 3.0];
            let expect = g.eval(&[o, b], &inputs);
            let got = tape.eval(&inputs);
            assert_eq!(got.len(), 2);
            for (a, b) in got.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-14, "{s:?}: {got:?} vs {expect:?}");
            }
        }
    }

    #[test]
    fn bssn_tapes_agree_across_strategies() {
        let rhs = build_bssn_rhs(BssnParams::default());
        // Random-ish but well-conditioned inputs: flat space plus noise.
        let mut inputs = vec![0.0f64; NUM_INPUTS];
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 0.01
        };
        for v in inputs.iter_mut() {
            *v = rng();
        }
        inputs[crate::symbols::input_value(crate::symbols::var::ALPHA)] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::CHI)] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(0, 0))] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(1, 1))] = 1.0 + rng();
        inputs[crate::symbols::input_value(crate::symbols::var::gt(2, 2))] = 1.0 + rng();

        let expect = rhs.graph.eval(&rhs.outputs, &inputs);
        for s in ScheduleStrategy::all() {
            let sch = schedule(&rhs.graph, &rhs.outputs, s);
            let tape = Tape::compile(&rhs.graph, &sch, 56);
            let got = tape.eval(&inputs);
            for (i, (a, b)) in got.iter().zip(expect.iter()).enumerate() {
                assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{s:?} output {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn slot_counts_reflect_live_ranges() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let slots = |s: ScheduleStrategy| {
            let sch = schedule(&rhs.graph, &rhs.outputs, s);
            Tape::compile(&rhs.graph, &sch, 56).n_slots
        };
        let cse = slots(ScheduleStrategy::CseTopo);
        let br = slots(ScheduleStrategy::BinaryReduce);
        let st = slots(ScheduleStrategy::StagedCse);
        assert!(br < cse, "binary-reduce slots {br} vs CSE {cse}");
        assert!(st < cse, "staged slots {st} vs CSE {cse}");
    }

    #[test]
    fn tape_flops_match_graph_flops() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::StagedCse);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        assert_eq!(tape.flops, rhs.graph.flop_count(&rhs.outputs));
        // Paper's O_A scale: thousands of ops for the A component.
        assert!(tape.flops > 1_000, "flops = {}", tape.flops);
    }

    #[test]
    fn eval_into_reuses_buffers() {
        let rhs = build_bssn_rhs(BssnParams::default());
        let sch = schedule(&rhs.graph, &rhs.outputs, ScheduleStrategy::BinaryReduce);
        let tape = Tape::compile(&rhs.graph, &sch, 56);
        let mut slots = vec![0.0; tape.n_slots];
        let mut out = vec![0.0; tape.n_outputs];
        let mut inputs = vec![0.0; NUM_INPUTS];
        inputs[0] = 1.0; // alpha
        inputs[7] = 1.0; // chi
        inputs[9] = 1.0;
        inputs[12] = 1.0;
        inputs[14] = 1.0; // gt diag
        tape.eval_into(&inputs, &mut out, &mut slots);
        let first = out.clone();
        tape.eval_into(&inputs, &mut out, &mut slots);
        assert_eq!(first, out, "stale slot state must not leak between evals");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::schedule::{schedule, ScheduleStrategy};
    use crate::symbols::NUM_INPUTS;
    use proptest::prelude::*;

    /// Build a random DAG over 4 inputs from a sequence of op codes; every
    /// new node picks operands among the existing nodes.
    fn build_random(ops: &[(u8, u8, u8)], g: &mut ExprGraph) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = (0..4).map(|i| g.sym(i)).collect();
        pool.push(g.constant(1.5));
        pool.push(g.constant(-0.75));
        for &(op, a, b) in ops {
            let x = pool[a as usize % pool.len()];
            let y = pool[b as usize % pool.len()];
            let n = match op % 6 {
                0 => g.add(x, y),
                1 => g.sub(x, y),
                2 => g.mul(x, y),
                3 => g.neg(x),
                4 => g.pow(x, 2),
                _ => g.add(x, y),
            };
            pool.push(n);
        }
        // Up to 3 roots from the tail of the pool.
        pool.iter().rev().take(3).copied().collect()
    }

    /// The BSSN `A`-component tape of every strategy, compiled once.
    fn bssn_tapes() -> &'static [Tape] {
        use crate::bssn::{build_bssn_rhs, BssnParams};
        static TAPES: std::sync::OnceLock<Vec<Tape>> = std::sync::OnceLock::new();
        TAPES.get_or_init(|| {
            let rhs = build_bssn_rhs(BssnParams::default());
            ScheduleStrategy::all()
                .iter()
                .map(|&s| Tape::compile(&rhs.graph, &schedule(&rhs.graph, &rhs.outputs, s), 56))
                .collect()
        })
    }

    /// Evaluate `points` (one input vector each) in batches of `L` lanes,
    /// the last partial batch padded with its last real point, and return
    /// the outputs of the real points.
    fn eval_batched<const L: usize>(tape: &Tape, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut inputs = vec![[0.0; L]; tape.n_inputs];
        let mut outputs = vec![[0.0; L]; tape.n_outputs];
        let mut slots = vec![[0.0; L]; tape.n_slots];
        let mut got = Vec::with_capacity(points.len());
        for batch in points.chunks(L) {
            for (i, lanes) in inputs.iter_mut().enumerate() {
                for (l, x) in lanes.iter_mut().enumerate() {
                    *x = batch[l.min(batch.len() - 1)][i];
                }
            }
            tape.eval_lanes(&inputs, &mut outputs, &mut slots);
            got.extend((0..batch.len()).map(|l| outputs.iter().map(|o| o[l]).collect()));
        }
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn eval_lanes_matches_per_point_eval_bitwise(
            noise in prop::collection::vec(-0.05f64..0.05, NUM_INPUTS..NUM_INPUTS * 20),
        ) {
            use crate::symbols::{input_value, var};
            // Near-flat points: unit lapse, χ and conformal-metric
            // diagonal plus noise, so every output is finite.
            let points: Vec<Vec<f64>> = noise
                .chunks_exact(NUM_INPUTS)
                .map(|u| {
                    let mut u = u.to_vec();
                    for v in [var::ALPHA, var::CHI, var::gt(0, 0), var::gt(1, 1), var::gt(2, 2)] {
                        u[input_value(v)] += 1.0;
                    }
                    u
                })
                .collect();
            for tape in bssn_tapes() {
                let mut out = vec![0.0; tape.n_outputs];
                let mut slots = vec![0.0; tape.n_slots];
                // Lane counts that leave a partial last batch for most
                // point counts, including an odd one.
                for got in [eval_batched::<8>(tape, &points), eval_batched::<7>(tape, &points)] {
                    prop_assert_eq!(got.len(), points.len());
                    for (p, u) in points.iter().enumerate() {
                        tape.eval_into(u, &mut out, &mut slots);
                        for (o, (a, b)) in got[p].iter().zip(&out).enumerate() {
                            prop_assert!(
                                b.is_finite() && a.to_bits() == b.to_bits(),
                                "{} point {p} output {o}: {a:e} vs {b:e}",
                                tape.strategy_name
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn all_strategies_and_tapes_agree_on_random_dags(
            ops in prop::collection::vec((0u8..6, 0u8..64, 0u8..64), 1..40),
            inputs in prop::array::uniform4(-2.0f64..2.0),
        ) {
            let mut g = ExprGraph::new();
            let roots = build_random(&ops, &mut g);
            // Skip degenerate all-leaf root sets.
            let interior_roots: Vec<NodeId> =
                roots.iter().copied().filter(|r| !g.op(*r).is_leaf()).collect();
            prop_assume!(!interior_roots.is_empty());
            let expect = g.eval(&interior_roots, &inputs);
            for strat in ScheduleStrategy::all() {
                let sch = schedule(&g, &interior_roots, strat);
                // Schedule sanity: peak live within node count.
                prop_assert!(sch.max_live(&g) <= sch.order.len());
                let tape = Tape::compile(&g, &sch, 8);
                let got = tape.eval(&inputs);
                for (a, b) in got.iter().zip(expect.iter()) {
                    if b.is_finite() {
                        prop_assert!(
                            (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                            "{strat:?}: {a} vs {b}"
                        );
                    }
                }
                // Spill model must be well-defined even at a tiny budget.
                let s = crate::regalloc::simulate_spills(&g, &sch, 2);
                prop_assert!(s.spill_load_bytes >= s.spill_store_bytes || s.spill_store_bytes == 0 || s.spill_load_bytes > 0);
            }
        }
    }
}
