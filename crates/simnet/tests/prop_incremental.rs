//! Property tests for the incremental fabric path and its completion
//! heap.
//!
//! The incremental max-min path (memoryless allocators) and the
//! coflow-incremental Varys/SEBF path must each be *bit-identical* to a
//! from-scratch solve at every recompute: the fabric carries a
//! same-process oracle (`Fabric::set_full_oracle`) that re-derives the
//! full solution from scratch on dedicated scratch buffers and asserts
//! `rate.to_bits()` equality per flow. These tests drive the fabric
//! through random churn scripts — flow starts (coflow-tagged and
//! singleton), partial advances, cancels, background changes — with the
//! oracle armed, and additionally assert the oracle itself is invisible
//! (oracle-on and oracle-off runs produce byte-identical completion
//! streams and `FabricStats`).
//!
//! The fabric's indexed completion heap must pop its live entries in the
//! order an `EventQueue` gives them when every set is a push and every
//! superseded or removed entry is skipped on pop.

use corral_model::{Bandwidth, Bytes, ClusterConfig, MachineId, RackId, SimTime};
use corral_simnet::{
    CoflowId, CompletionHeap, EventQueue, Fabric, FairShare, FlowKind, FlowSpec, FlowTag,
    RateAllocator, ReferenceFairShare, VarysSebf,
};
use proptest::prelude::*;

fn cfg() -> ClusterConfig {
    ClusterConfig::tiny_test()
}

/// One step of a churn script. Encoded as a flat tuple so the strategy
/// stays shrinkable: `(op, a, b, x, cf)` where `op` selects the action
/// and the rest are reinterpreted per action.
type Step = (u8, u32, u32, f64, Option<u64>);

fn steps(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..6,
            0u32..12,
            0u32..12,
            1e3f64..3e9,
            proptest::option::of(0u64..4),
        ),
        n,
    )
}

/// Replays `script` against a fresh fabric and returns the completion
/// stream (id, finished-time bits, byte bits) plus the final stats
/// rendered via `Debug` (`FabricStats` has no `PartialEq`; the render is
/// exact for the integer counters and prints the float fields with enough
/// digits to catch real divergence).
fn run_script(
    script: &[Step],
    allocator: Box<dyn RateAllocator>,
    oracle: bool,
) -> (Vec<(u64, u64, u64)>, String) {
    let mut fabric = Fabric::new(cfg(), allocator);
    fabric.set_full_oracle(oracle);
    let mut live = Vec::new();
    let mut done = Vec::new();
    let collect = |completed: Vec<corral_simnet::CompletedFlow>,
                   live: &mut Vec<corral_model::FlowId>,
                   done: &mut Vec<(u64, u64, u64)>| {
        for c in completed {
            live.retain(|&id| id != c.id);
            done.push((c.id.0, c.finished.0.to_bits(), c.bytes.0.to_bits()));
        }
    };
    for &(op, a, b, x, cf) in script {
        match op {
            // Flow starts dominate the mix so scripts build up real
            // contention before churning it.
            0 | 1 => {
                let id = fabric.start_flow(FlowSpec {
                    src: MachineId(a),
                    dst: MachineId(b),
                    bytes: Bytes(x),
                    tag: FlowTag::infrastructure(FlowKind::Shuffle),
                    coflow: cf.map(CoflowId),
                });
                live.push(id);
            }
            2 => {
                // Advance by a script-derived fraction of a second; long
                // enough to complete small flows, short enough to leave
                // big ones in flight.
                let dt = (x / 3e9).max(1e-4);
                let t = SimTime(fabric.now().0 + dt);
                collect(fabric.advance_to(t), &mut live, &mut done);
            }
            3 => {
                if !live.is_empty() {
                    let id = live[a as usize % live.len()];
                    fabric.cancel_flow(id);
                    live.retain(|&l| l != id);
                }
            }
            4 => {
                let frac = (x / 3e9).clamp(0.0, 0.8);
                fabric.set_rack_background(RackId(a % 3), Bandwidth(frac * 1.25e9));
            }
            _ => {
                // Step to the next completion boundary exactly (the case
                // most likely to expose stale-deadline bugs).
                if let Some(t) = fabric.next_completion() {
                    collect(fabric.advance_to(t), &mut live, &mut done);
                }
            }
        }
    }
    collect(fabric.drain(), &mut live, &mut done);
    assert!(live.is_empty(), "drain left live flows behind");
    fabric.flush_accounting();
    (done, format!("{:?}", fabric.stats()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churn with the from-scratch oracle armed: every incremental
    /// recompute is asserted bit-identical to a full re-solve (the oracle
    /// panics inside the fabric on any mismatch), and every injected flow
    /// is either completed or cancelled by the final drain.
    #[test]
    fn incremental_matches_full_solve_under_churn(script in steps(1..40)) {
        let (done, _) = run_script(&script, Box::new(FairShare), true);
        // Completion times never go backwards.
        for w in done.windows(2) {
            prop_assert!(f64::from_bits(w[1].1) >= f64::from_bits(w[0].1) - 1e-9);
        }
    }

    /// The oracle is observation-only: arming it changes no completion
    /// time, no byte count, and no stats counter.
    #[test]
    fn oracle_is_invisible(script in steps(1..32)) {
        let (done_on, stats_on) = run_script(&script, Box::new(FairShare), true);
        let (done_off, stats_off) = run_script(&script, Box::new(FairShare), false);
        prop_assert_eq!(done_on, done_off);
        prop_assert_eq!(stats_on, stats_off);
    }

    /// The CSR kernel and the reference (per-component re-solve) kernel
    /// ride the same incremental decomposition and must agree bit-for-bit
    /// on every completion and on the byte accounting.
    #[test]
    fn csr_and_reference_kernels_agree(script in steps(1..32)) {
        let (done_csr, _) = run_script(&script, Box::new(FairShare), true);
        let (done_ref, _) = run_script(&script, Box::new(ReferenceFairShare), true);
        prop_assert_eq!(done_csr, done_ref);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Varys/SEBF churn with the from-scratch oracle armed: on *every*
    /// coflow-incremental recompute the fabric re-solves the entire CSR
    /// through `allocate_from_scratch` (canonical SEBF + MADD +
    /// per-component backfill, no cached state) and panics unless each
    /// flow's `rate.to_bits()` matches the incrementally maintained
    /// table. Scripts interleave coflow-tagged and singleton starts,
    /// cancels, exact completion boundaries, and background (capacity
    /// epoch) changes — the capacity changes force full-boundary rebuilds
    /// mid-script, so cache rebuild + re-dirty transitions are covered
    /// too.
    #[test]
    fn varys_incremental_matches_full_solve_under_churn(script in steps(1..40)) {
        let (done, _) = run_script(&script, Box::new(VarysSebf), true);
        // Completion times never go backwards.
        for w in done.windows(2) {
            prop_assert!(f64::from_bits(w[1].1) >= f64::from_bits(w[0].1) - 1e-9);
        }
    }

    /// The coflow-mode oracle is observation-only, exactly like the
    /// memoryless one: arming it changes no completion time, no byte
    /// count, and no stats counter.
    #[test]
    fn varys_oracle_is_invisible(script in steps(1..32)) {
        let (done_on, stats_on) = run_script(&script, Box::new(VarysSebf), true);
        let (done_off, stats_off) = run_script(&script, Box::new(VarysSebf), false);
        prop_assert_eq!(done_on, done_off);
        prop_assert_eq!(stats_on, stats_off);
    }
}

/// One step of a completion-heap script: `(op, slot, time_bucket)`.
/// `op` 0–1 sets the slot (insert or re-key), 2 removes it, 3 pops.
fn heap_steps(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    proptest::collection::vec((0u8..4, 0u32..16, 0u8..4), n)
}

/// The lazily-invalidated model of a completion heap: every set pushes a
/// generation-stamped entry into an `EventQueue`, and pops skip
/// entries whose slot was removed or re-keyed since.
struct LazyModel {
    queue: EventQueue<(u32, u32)>,
    gen: Vec<u32>,
    key: Vec<Option<f64>>,
}

impl LazyModel {
    fn new(slots: usize) -> Self {
        LazyModel {
            queue: EventQueue::new(),
            gen: vec![0; slots],
            key: vec![None; slots],
        }
    }

    fn set(&mut self, slot: u32, at: f64) {
        let s = slot as usize;
        self.gen[s] += 1;
        self.key[s] = Some(at);
        self.queue.schedule(SimTime(at), (slot, self.gen[s]));
    }

    fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        self.gen[s] += 1;
        self.key[s] = None;
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        loop {
            let (t, (slot, g)) = self.queue.pop()?;
            let s = slot as usize;
            if self.key[s].is_some() && self.gen[s] == g {
                self.key[s] = None;
                return Some((t.0, slot));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The completion heap pops live entries in exactly the lazy model's
    /// `(time, seq)` order under random set / re-key / remove / pop
    /// scripts with coarse time buckets forcing equal-time ties, and its
    /// per-slot keys and structure stay consistent after every step.
    #[test]
    fn completion_heap_matches_lazy_heap_order(script in heap_steps(1..96)) {
        let mut heap = CompletionHeap::new();
        let mut model = LazyModel::new(16);
        for (op, slot, bucket) in script {
            match op {
                0 | 1 => {
                    // Never before the model's clock, as in the fabric.
                    let at = model.queue.now().0 + f64::from(bucket) * 0.25;
                    heap.set(slot, at);
                    model.set(slot, at);
                }
                2 => {
                    prop_assert_eq!(heap.remove(slot), model.key[slot as usize]);
                    model.remove(slot);
                }
                _ => {
                    let want = model.pop();
                    prop_assert_eq!(heap.peek(), want);
                    prop_assert_eq!(heap.pop(), want);
                }
            }
            heap.check();
            for s in 0..16u32 {
                prop_assert_eq!(heap.get(s), model.key[s as usize]);
            }
            prop_assert_eq!(heap.len(), model.key.iter().flatten().count());
        }
        loop {
            let want = model.pop();
            prop_assert_eq!(heap.pop(), want);
            if want.is_none() {
                break;
            }
        }
    }
}
