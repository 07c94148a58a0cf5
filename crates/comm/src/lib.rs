//! Simulated MPI: rank-parallel execution with typed message passing.
//!
//! The paper's distributed layer (Intel MPI on Frontera / Lonestar 6) is
//! replaced — per the DESIGN.md substitution policy — by an in-process
//! world: ranks are OS threads, point-to-point messages are crossbeam
//! channels, and collectives are built on them. Message counts and byte
//! volumes are metered per rank, which is what the weak/strong scaling
//! models (Figs. 17, 18, 20) consume.
//!
//! * [`world`] — [`world::World::run`] spawns `p` ranks and gives each a
//!   [`world::RankCtx`] with exactly what the distributed driver calls:
//!   `send`, the reliable receive `irecv` (polled or waited on), the
//!   `try_allgatherv` collective and the timeout-aware `try_barrier`.
//!   Point-to-point delivery is reliable: per-link sequence numbers,
//!   receiver-driven acks, and bounded retransmission with exponential
//!   backoff recover injected drop/truncate/corrupt faults transparently.
//!   A per-rank liveness view means a dead rank is detected by name,
//!   never waited on forever.
//! * [`ghost`] — the ghost/halo exchange schedule: given an octant
//!   partition and the cross-partition scatter dependencies, build the
//!   per-rank aggregated message plan (one message per neighbor rank per
//!   round — the aggregation ablation of DESIGN.md §5).
//! * [`crc`] — CRC-32 used for message and checkpoint integrity.
//! * [`fault`] — deterministic, seeded fault injection for the message
//!   layer (dropped / truncated / corrupted messages), off by default.

pub mod crc;
pub mod fault;
pub mod ghost;
pub mod world;

pub use fault::{CommFaultPlan, FaultAction};
pub use ghost::{GhostPlan, GhostSchedule};
pub use world::{CommError, RankCtx, RankTraffic, RecvHandle, World, WorldConfig};
