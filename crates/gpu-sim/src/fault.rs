//! Deterministic device-fault injection.
//!
//! Long GPU campaigns see soft errors: a bit flips in HBM, a kernel
//! writes garbage, a stream dies. The supervisor layer in `gw-core`
//! exists to detect and recover from exactly these, and this module is
//! the harness that manufactures them on demand: seeded, reproducible
//! corruption of [`DeviceBuffer`] contents and forced [`Stream`](crate::stream::Stream)
//! failures.
//!
//! Everything here is an *explicit* test hook — nothing consults a fault
//! plan in kernel launches or transfers, so the fault-free hot path pays
//! zero overhead (the injector is not even constructed).

use crate::buffer::DeviceBuffer;
use crate::device::Device;

/// Seeded generator of buffer corruptions. The sequence of corrupted
/// (index, bit) choices is a pure function of the seed — rerunning a
/// test reproduces the identical fault.
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero state; splitmix tolerates any seed but
        // mixing in a constant keeps seed=0 distinct from seed absent.
        Self { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// splitmix64 step.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Deterministically pick an index in `[0, n)`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        (self.next() % n as u64) as usize
    }

    /// Overwrite one deterministic element with NaN (simulates a kernel
    /// writing garbage / an uncorrectable memory error surfacing as a
    /// poisoned value). Returns the poisoned index.
    pub fn poison_nan(&mut self, dev: &Device, buf: &mut DeviceBuffer<f64>) -> usize {
        let idx = self.pick(buf.len());
        dev.corrupt(buf, |data| data[idx] = f64::NAN);
        idx
    }

    /// Flip one deterministic bit of one deterministic element
    /// (simulates a radiation-induced single-bit upset in device
    /// memory). Returns `(index, bit)`.
    pub fn flip_bit(&mut self, dev: &Device, buf: &mut DeviceBuffer<f64>) -> (usize, u32) {
        let idx = self.pick(buf.len());
        let bit = (self.next() % 64) as u32;
        dev.corrupt(buf, |data| {
            data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << bit));
        });
        (idx, bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_is_deterministic() {
        let dev = Device::a100();
        let run = |seed: u64| {
            let mut buf = dev.htod(&vec![1.0f64; 257]);
            let mut inj = FaultInjector::new(seed);
            let a = inj.poison_nan(&dev, &mut buf);
            let b = inj.poison_nan(&dev, &mut buf);
            (a, b, dev.dtoh(&buf))
        };
        let (a1, b1, d1) = run(42);
        let (a2, b2, d2) = run(42);
        assert_eq!((a1, b1), (a2, b2));
        assert_eq!(
            d1.iter().map(|v| v.is_nan()).collect::<Vec<_>>(),
            d2.iter().map(|v| v.is_nan()).collect::<Vec<_>>()
        );
        assert!(d1[a1].is_nan());
    }

    #[test]
    fn different_seeds_corrupt_differently() {
        let pick = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            (0..16).map(|_| inj.pick(1_000_000)).collect::<Vec<_>>()
        };
        assert_ne!(pick(1), pick(2));
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let dev = Device::a100();
        let host = vec![3.5f64; 64];
        let mut buf = dev.htod(&host);
        let mut inj = FaultInjector::new(7);
        let (idx, bit) = inj.flip_bit(&dev, &mut buf);
        let back = dev.dtoh(&buf);
        for (i, (orig, got)) in host.iter().zip(back.iter()).enumerate() {
            if i == idx {
                assert_eq!(orig.to_bits() ^ got.to_bits(), 1u64 << bit);
            } else {
                assert_eq!(orig.to_bits(), got.to_bits());
            }
        }
    }
}
