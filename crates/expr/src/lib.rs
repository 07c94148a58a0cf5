//! Symbolic expression DAGs and code generation for the BSSN right-hand
//! side.
//!
//! The paper's `A` component — the algebraic combination of the 24 evolved
//! fields and their 210 derivatives into the 24 RHS outputs — is far too
//! entangled to write by hand, so Dendro-GR generates it with
//! SymPy + NetworkX. This crate is the native equivalent:
//!
//! * [`graph`] — a hash-consed expression DAG ([`graph::ExprGraph`]).
//!   Hash-consing *is* common-subexpression elimination: structurally equal
//!   subtrees share a node, mirroring SymPy's CSE output.
//! * [`symbols`] — the input-symbol table: 24 field variables, 72 first
//!   derivatives, 66 second derivatives, 72 Kreiss–Oliger derivatives
//!   (the paper's 234 inputs).
//! * [`tensor`] — 3-vector / symmetric-3×3 helpers used to transcribe the
//!   tensorial BSSN equations.
//! * [`bssn`] — the full BSSN RHS (Eqs. 1–19 of the paper) built
//!   symbolically: Lie derivatives, Christoffel symbols, Ricci tensor,
//!   covariant second derivatives of the lapse, trace-free projection,
//!   Gamma-driver gauge.
//! * [`schedule`](mod@schedule) — the three evaluation-order strategies compared in
//!   Table II / Fig. 11: `CseTopo` (SymPyGR baseline), `BinaryReduce`
//!   (Algorithm 3: line-graph topological traversal minimizing temporary
//!   live ranges), `StagedCse` (evaluate each equation as soon as its
//!   inputs are ready).
//! * [`regalloc`] — a register file + Belady-eviction spill model that
//!   turns a schedule into `ptxas`-style spill load/store byte counts for
//!   a given per-thread register budget (the paper uses 56 registers from
//!   `__launch_bounds__(343,3)`).
//! * [`tape`] — compiles a schedule into an executable bytecode tape and
//!   interprets it; the solver's generated-RHS backends run these tapes.

pub mod bssn;
pub mod graph;
pub mod regalloc;
pub mod schedule;
pub mod symbols;
pub mod tape;
pub mod tensor;

pub use graph::{ExprGraph, NodeId, Op};
pub use regalloc::{simulate_spills, SpillStats};
pub use schedule::{schedule, Schedule, ScheduleStrategy};
pub use symbols::{SymbolTable, NUM_INPUTS, NUM_OUTPUTS};
pub use tape::{Tape, TapeInstr};
