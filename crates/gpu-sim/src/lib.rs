//! A software-simulated GPU device.
//!
//! The paper's contribution is evaluated on NVIDIA A100s. Rust has no
//! mature CUDA ecosystem, so — per the substitution policy in `DESIGN.md` —
//! this crate provides a *simulated device* that preserves everything the
//! paper's analysis depends on while executing on host threads:
//!
//! * **Explicit residency**: data must be moved into a [`DeviceBuffer`]
//!   before a kernel can touch it; host↔device transfers are explicit,
//!   metered operations ([`Device::htod`], [`Device::dtoh`]), so the
//!   "re-grid is the only synchronous host↔device movement" property of
//!   Algorithm 1 is checkable.
//! * **Block-parallel kernel launches** ([`Device::launch`]): a kernel runs
//!   one *block* per octant/patch (exactly the paper's mapping), and blocks
//!   are claimed one at a time by the threads of the shared `gw-par` pool,
//!   sized like the machine's SM count (capped at host parallelism). The
//!   pool persists across launches, so per-thread kernel caches do too.
//! * **Hardware counters** ([`Counters`]): kernels meter global/shared
//!   traffic and flops; the `gw-perfmodel` crate converts these into the
//!   paper's roofline / RAM-model estimates (arithmetic intensity,
//!   GFlop/s), which is how Tables II–III and Fig. 14 are regenerated.
//! * **Machine descriptions** ([`MachineSpec`]): the A100 and EPYC-7763
//!   parameter sets from section III-D.

pub mod buffer;
pub mod counters;
pub mod device;
pub mod machine;

pub use buffer::DeviceBuffer;
pub use counters::{CounterSnapshot, Counters};
pub use device::{BlockCtx, Device, LaunchConfig};
pub use gw_par::UnsafeSlice;
pub use machine::MachineSpec;
