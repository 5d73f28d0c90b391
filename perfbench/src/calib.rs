//! Host-speed reference: a fixed computation that calls nothing in
//! corral, timed in bursts spread over a run.
//!
//! The benchmark's host shares its cores with other tenants, and its
//! speed drifts by up to 40% over minutes, which swamps the bounds of the
//! host-time metrics. A change to corral does not change how long this
//! kernel takes, while a slower host slows both alike. So `sim_tasks_per_s`
//! and `setup_s` are reported in reference seconds: host seconds scaled
//! by [`KERNEL_REF_S`] over the kernel's mean time in the same run.

use crate::arrivals::mix;
use crate::setup_burst;
use crate::stats::mean;

/// The kernel's time on the host the bounds were set on (2-vCPU Xeon VM).
pub const KERNEL_REF_S: f64 = 0.009;

/// Pointer-chases a fixed 256 KiB permutation and sorts a fixed array: a
/// mix of cache-latency and branch-bound work, like the simulator's. The
/// buffers are small so the kernel barely moves the process's peak memory.
pub fn kernel() -> u64 {
    const N: usize = 1 << 16;
    let mut next: Vec<u32> = (0..N as u32).collect();
    // Sattolo's shuffle: one cycle through every slot.
    let mut s = 0x5EED;
    for i in (1..N).rev() {
        s = mix(s);
        next.swap(i, (s % i as u64) as usize);
    }
    let mut at = 0u32;
    for _ in 0..16 * N {
        at = next[at as usize];
    }
    let mut v: Vec<u64> = (0..1u64 << 14).map(mix).collect();
    for round in 0..8 {
        v.iter_mut().for_each(|x| *x = mix(*x ^ round));
        v.sort_unstable();
    }
    at as u64 ^ v[v.len() / 2]
}

/// Kernel burst medians taken over a run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    times: Vec<f64>,
}

impl HostSpeed {
    /// Times one burst of the kernel.
    pub fn sample(&mut self) {
        self.times.push(setup_burst(kernel).0);
    }

    /// Converts host seconds into reference seconds.
    pub fn reference_s(&self, host_s: f64) -> f64 {
        host_s * KERNEL_REF_S / mean(self.times.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        assert_eq!(kernel(), kernel());
        let speed = HostSpeed {
            times: vec![2.0 * KERNEL_REF_S, 2.0 * KERNEL_REF_S],
        };
        assert_eq!(
            speed.reference_s(10.0),
            5.0,
            "a host twice as slow halves the time"
        );
    }
}
