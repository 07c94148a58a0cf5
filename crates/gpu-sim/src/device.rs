//! The simulated device and its kernel-launch machinery.

use crate::buffer::DeviceBuffer;
use crate::counters::{Counters, LocalCounters};
use crate::machine::MachineSpec;
use gw_par::{ThreadPool, UnsafeSlice};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static NEXT_DEVICE_ID: AtomicUsize = AtomicUsize::new(0);

/// A simulated GPU.
///
/// Kernels are closures executed once per *block* over the shared
/// `gw-par` pool sized like the machine's SM count (capped at host
/// parallelism, [`MachineSpec::host_workers`]). The paper maps one octant
/// (or one octant×dof pair) to one block; the solver kernels in `gw-core`
/// do the same.
pub struct Device {
    spec: MachineSpec,
    counters: Arc<Counters>,
    id: usize,
    probe: gw_obs::Probe,
    pool: Arc<ThreadPool>,
}

/// Launch geometry: a 1D or 2D grid of blocks, CUDA-style.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Grid x dimension (e.g. number of octants `|E|`).
    pub grid_x: usize,
    /// Grid y dimension (e.g. degrees of freedom per point).
    pub grid_y: usize,
    /// Kernel name, for diagnostics.
    pub name: &'static str,
}

impl LaunchConfig {
    /// 1D grid.
    pub fn grid1(n: usize, name: &'static str) -> Self {
        Self { grid_x: n, grid_y: 1, name }
    }

    /// 2D grid `(|E|, dof)` — the paper's octant-to-patch geometry.
    pub fn grid2(x: usize, y: usize, name: &'static str) -> Self {
        Self { grid_x: x, grid_y: y, name }
    }

    pub fn total_blocks(&self) -> usize {
        self.grid_x * self.grid_y
    }
}

/// Per-block execution context handed to kernels.
pub struct BlockCtx {
    /// Block x index (`blockIdx.x`).
    pub bx: usize,
    /// Block y index (`blockIdx.y`).
    pub by: usize,
    local: LocalCounters,
}

impl BlockCtx {
    /// Meter a global-memory read of `n` f64 values.
    #[inline]
    pub fn global_load(&mut self, n: usize) {
        self.local.global_load_bytes += (n * 8) as u64;
    }

    /// Meter a global-memory write of `n` f64 values.
    #[inline]
    pub fn global_store(&mut self, n: usize) {
        self.local.global_store_bytes += (n * 8) as u64;
    }

    /// Meter shared-memory traffic of `n` f64 values.
    #[inline]
    pub fn shared_traffic(&mut self, n: usize) {
        self.local.shared_bytes += (n * 8) as u64;
    }

    /// Meter `n` double-precision flops.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.local.flops += n;
    }

    /// Meter register-spill traffic (bytes), as `ptxas` would report.
    #[inline]
    pub fn spill(&mut self, load_bytes: u64, store_bytes: u64) {
        self.local.spill_load_bytes += load_bytes;
        self.local.spill_store_bytes += store_bytes;
    }
}

impl Device {
    pub fn new(spec: MachineSpec) -> Self {
        Self {
            counters: Arc::new(Counters::new()),
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            probe: gw_obs::Probe::disabled(),
            pool: ThreadPool::shared(spec.host_workers()),
            spec,
        }
    }

    /// Attach an observability probe: every subsequent launch records a
    /// `kernel`-category span named after its [`LaunchConfig`] (timing
    /// only — the numeric path is untouched, see gw-obs).
    pub fn set_probe(&mut self, probe: gw_obs::Probe) {
        self.probe = probe;
    }

    /// The attached probe (disabled by default).
    pub fn probe(&self) -> &gw_obs::Probe {
        &self.probe
    }

    pub fn a100() -> Self {
        Self::new(MachineSpec::a100())
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Host threads that execute this device's blocks (the size of its
    /// `gw-par` pool).
    pub fn n_threads(&self) -> usize {
        self.pool.n_threads()
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Allocate a zeroed device buffer.
    pub fn alloc<T: Default + Clone>(&self, n: usize) -> DeviceBuffer<T> {
        DeviceBuffer { data: vec![T::default(); n], device_id: self.id }
    }

    /// Copy host data to a new device buffer (metered).
    pub fn htod<T: Copy>(&self, src: &[T]) -> DeviceBuffer<T> {
        self.counters.h2d_bytes.fetch_add(std::mem::size_of_val(src) as u64, Ordering::Relaxed);
        DeviceBuffer { data: src.to_vec(), device_id: self.id }
    }

    /// Copy host data into an existing device buffer (metered).
    pub fn htod_into<T: Copy>(&self, src: &[T], dst: &mut DeviceBuffer<T>) {
        assert_eq!(dst.device_id, self.id, "buffer belongs to another device");
        assert_eq!(src.len(), dst.data.len(), "size mismatch");
        self.counters.h2d_bytes.fetch_add(std::mem::size_of_val(src) as u64, Ordering::Relaxed);
        dst.data.copy_from_slice(src);
    }

    /// Copy a device buffer back to the host (metered).
    pub fn dtoh<T: Copy>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        assert_eq!(buf.device_id, self.id, "buffer belongs to another device");
        self.counters
            .d2h_bytes
            .fetch_add((buf.data.len() * std::mem::size_of::<T>()) as u64, Ordering::Relaxed);
        buf.data.clone()
    }

    /// Device-to-device copy within this device (unmetered on h2d/d2h;
    /// kernels meter their own traffic).
    pub fn d2d<T: Copy>(&self, src: &DeviceBuffer<T>, dst: &mut DeviceBuffer<T>) {
        assert_eq!(src.device_id, self.id);
        assert_eq!(dst.device_id, self.id);
        assert_eq!(src.data.len(), dst.data.len());
        dst.data.copy_from_slice(&src.data);
    }

    /// Read-only kernel view of a buffer.
    ///
    /// Host code must not use this to bypass [`Device::dtoh`]; it exists
    /// for passing inputs into [`Device::launch`] closures.
    pub fn kernel_view<'a, T>(&self, buf: &'a DeviceBuffer<T>) -> &'a [T] {
        assert_eq!(buf.device_id, self.id, "buffer belongs to another device");
        buf.as_slice()
    }

    /// Writable kernel view of a buffer, shareable across blocks.
    pub fn kernel_view_mut<'a, T>(&self, buf: &'a mut DeviceBuffer<T>) -> UnsafeSlice<'a, T> {
        assert_eq!(buf.device_id, self.id, "buffer belongs to another device");
        UnsafeSlice::new(buf.as_mut_slice())
    }

    /// Launch a kernel: `body` runs once per block, in parallel over the
    /// device's pool, each participant claiming one block at a time.
    /// Returns when all blocks complete (CUDA stream semantics with an
    /// implicit sync).
    pub fn launch<F>(&self, cfg: LaunchConfig, body: F)
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.counters.launches.fetch_add(1, Ordering::Relaxed);
        self.probe.add(gw_obs::Counter::KernelLaunches, 1);
        let _span = self.probe.start_labeled(gw_obs::Phase::Kernel, cfg.name);
        let counters = &self.counters;
        self.pool.for_each_chunked(cfg.total_blocks(), 1, |b| {
            let mut ctx = BlockCtx {
                bx: b % cfg.grid_x,
                by: b / cfg.grid_x,
                local: LocalCounters::default(),
            };
            body(&mut ctx);
            ctx.local.flush(counters);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn htod_dtoh_roundtrip_and_metering() {
        let dev = Device::a100();
        let host: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let buf = dev.htod(&host);
        let back = dev.dtoh(&buf);
        assert_eq!(host, back);
        let s = dev.counters().snapshot();
        assert_eq!(s.h2d_bytes, 8000);
        assert_eq!(s.d2h_bytes, 8000);
    }

    #[test]
    fn launch_runs_every_block_once() {
        let dev = Device::a100();
        let mut out = dev.alloc::<u64>(1000);
        let view = dev.kernel_view_mut(&mut out);
        dev.launch(LaunchConfig::grid1(1000, "mark"), |ctx| {
            // Safety: each block writes only its own index.
            unsafe { view.write(ctx.bx, ctx.bx as u64 + 1) };
        });
        let host = dev.dtoh(&out);
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
        assert_eq!(dev.counters().snapshot().launches, 1);
    }

    #[test]
    fn launches_share_one_persistent_pool() {
        // Blocks run on the device pool's threads, the same ones launch
        // after launch: never more distinct threads than the pool holds.
        let dev = Device::a100();
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        for _ in 0..4 {
            dev.launch(LaunchConfig::grid1(64, "who"), |_| {
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        }
        let (seen, pool) = (threads.into_inner().unwrap().len(), dev.n_threads());
        assert!((1..=pool).contains(&seen), "{seen} threads ran blocks of a {pool}-thread pool");
        assert_eq!(dev.n_threads(), dev.spec().host_workers());
    }

    #[test]
    fn grid2_block_indices() {
        let dev = Device::a100();
        let (gx, gy) = (7, 5);
        let mut out = dev.alloc::<u64>(gx * gy);
        let view = dev.kernel_view_mut(&mut out);
        dev.launch(LaunchConfig::grid2(gx, gy, "idx"), |ctx| unsafe {
            view.write(ctx.by * gx + ctx.bx, 1);
        });
        let host = dev.dtoh(&out);
        assert!(host.iter().all(|&v| v == 1));
    }

    #[test]
    fn kernel_metering_aggregates_across_blocks() {
        let dev = Device::a100();
        dev.launch(LaunchConfig::grid1(64, "meter"), |ctx| {
            ctx.global_load(10);
            ctx.global_store(5);
            ctx.flops(100);
            ctx.shared_traffic(16);
        });
        let s = dev.counters().snapshot();
        assert_eq!(s.global_load_bytes, 64 * 80);
        assert_eq!(s.global_store_bytes, 64 * 40);
        assert_eq!(s.flops, 6400);
        assert_eq!(s.shared_bytes, 64 * 128);
    }

    #[test]
    #[should_panic(expected = "another device")]
    fn cross_device_access_rejected() {
        let d1 = Device::a100();
        let d2 = Device::a100();
        let buf = d1.htod(&[1.0f64]);
        let _ = d2.dtoh(&buf);
    }

    #[test]
    fn empty_launch_is_noop() {
        let dev = Device::a100();
        dev.launch(LaunchConfig::grid1(0, "empty"), |_| panic!("must not run"));
    }

    #[test]
    fn d2d_copies() {
        let dev = Device::a100();
        let a = dev.htod(&[1.0f64, 2.0, 3.0]);
        let mut b = dev.alloc::<f64>(3);
        dev.d2d(&a, &mut b);
        assert_eq!(dev.dtoh(&b), vec![1.0, 2.0, 3.0]);
    }
}
