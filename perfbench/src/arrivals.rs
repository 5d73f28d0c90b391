//! Seeded arrival patterns for the generated inputs.

use corral::prelude::{JobSpec, SimTime};

/// splitmix64: one step of the benchmark's seed derivation.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Assigns each job an arrival time uniform over `[0, window)`,
/// stratified: a seeded permutation gives every job one of `n` equal
/// slots of the window, and its time is uniform within that slot. Each
/// job's arrival is still uniform over the window, as in the paper's
/// online scenario, but arrivals do not clump by chance. Clumps would
/// make the simulated work of one seed differ from another's by far more
/// than any code change the benchmark must resolve.
pub fn stratified(jobs: &mut [JobSpec], window: SimTime, seed: u64) {
    let n = jobs.len();
    let mut state = seed;
    let mut next = || {
        state = mix(state);
        state
    };
    let mut slot: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        slot.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let width = window.as_secs() / n.max(1) as f64;
    for (job, &s) in jobs.iter_mut().zip(&slot) {
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
        job.arrival = SimTime((s as f64 + u) * width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corral::prelude::*;

    fn jobs(n: u32) -> Vec<JobSpec> {
        corral::workloads::w1::generate(
            &corral::workloads::w1::W1Params {
                jobs: n as usize,
                ..corral::workloads::w1::W1Params::with_seed(1)
            },
            Scale::bench_default(),
        )
    }

    #[test]
    fn one_arrival_per_slot_and_seed_deterministic() {
        let mut a = jobs(20);
        stratified(&mut a, SimTime(200.0), 9);
        let mut slots: Vec<usize> = a
            .iter()
            .map(|j| (j.arrival.as_secs() / 10.0) as usize)
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..20).collect::<Vec<_>>());
        let mut b = jobs(20);
        stratified(&mut b, SimTime(200.0), 9);
        assert_eq!(a, b);
        stratified(&mut b, SimTime(200.0), 10);
        assert_ne!(a, b);
    }
}
