//! Pluggable bandwidth allocation policies.
//!
//! The fabric calls the active [`RateAllocator`] whenever the flow set or
//! link capacities change; the allocator assigns every active flow an
//! instantaneous rate. Two policies are provided, matching the paper's
//! simulation study (§6.6):
//!
//! * [`FairShare`] — per-flow max-min fairness (the TCP stand-in);
//! * [`VarysSebf`] — Varys' coflow scheduling (SEBF + MADD + backfill),
//!   re-exported from [`crate::varys`].

use crate::flow::CoflowId;
use crate::link::{Link, LinkId};
use crate::maxmin::{self, MaxMinScratch};
use crate::varys::VarysScratch;
pub use crate::varys::VarysSebf;

/// The active flow set in flat CSR form: flow `f` traverses
/// `flow_links[flow_off[f] .. flow_off[f+1]]`. Built by the fabric into
/// persistent buffers, so handing it to an allocator performs no
/// allocation. Flows appear in ascending [`FlowId`](corral_model::FlowId)
/// order.
#[derive(Debug, Clone, Copy)]
pub struct FlowTable<'a> {
    /// Prefix offsets into `flow_links`; length is `len() + 1`.
    pub flow_off: &'a [u32],
    /// Concatenated per-flow link paths.
    pub flow_links: &'a [LinkId],
    /// Bytes still to transfer, per flow.
    pub remaining: &'a [f64],
    /// Coflow membership, per flow.
    pub coflow: &'a [Option<CoflowId>],
}

impl<'a> FlowTable<'a> {
    /// Number of flows in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.flow_off.len().saturating_sub(1)
    }

    /// True when the table holds no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The links flow `f` traverses.
    #[inline]
    pub fn path(&self, f: usize) -> &'a [LinkId] {
        &self.flow_links[self.flow_off[f] as usize..self.flow_off[f + 1] as usize]
    }
}

/// Reusable workspaces threaded through the [`RateAllocator`] entry points.
/// Owned by the fabric and reused across recomputes, so steady-state rate
/// allocation performs no heap allocation.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Effective link capacities, refreshed each call.
    pub caps: Vec<f64>,
    /// Progressive-filling workspace (CSR link→flow index).
    pub maxmin: MaxMinScratch,
    /// Varys grouping/ordering workspace.
    pub varys: VarysScratch,
}

impl AllocScratch {
    /// Fresh, empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total reserved capacity across all scratch buffers, in elements.
    /// Growth of this number indicates a (re)allocation; a flat reading
    /// across recomputes certifies the steady state is allocation-free.
    pub fn footprint(&self) -> usize {
        self.caps.capacity() + self.maxmin.footprint() + self.varys.footprint()
    }

    /// Refreshes `caps` from the link table without reallocating once
    /// capacity suffices.
    pub(crate) fn refresh_caps(&mut self, links: &[Link]) {
        self.caps.clear();
        self.caps
            .extend(links.iter().map(|l| l.effective_capacity().0));
    }
}

/// Event delta handed to [`RateAllocator::allocate_dirty`]: which flows
/// arrived or departed since the previous recompute, which links those
/// events touched, and whether effective capacities moved. Group keys are
/// the fabric's stable per-coflow keys (synthetic singleton keys for
/// coflow-less flows), so an allocator can dirty exactly the touched
/// groups. All slot lists ride ascending flow-id order.
#[derive(Debug, Clone, Copy)]
pub struct DirtyCtx<'a> {
    /// Fabric flow slot of each CSR row, ascending (parallel to `rates`).
    pub slots: &'a [u32],
    /// Row index per fabric slot; `u32::MAX` when the slot has no row
    /// (departed, local, or never-networked flows).
    pub row_of: &'a [u32],
    /// Flows admitted since the last recompute, `(group_key, slot)` in
    /// admission (= ascending slot) order. Flows that already departed
    /// again are filtered out by the fabric.
    pub added: &'a [(u64, u32)],
    /// Flows departed (completed or cancelled) since the last recompute,
    /// `(group_key, slot)` in event order.
    pub departed: &'a [(u64, u32)],
    /// Links touched by arrivals/departures/background events since the
    /// last recompute (may contain duplicates).
    pub dirty_links: &'a [LinkId],
    /// Effective link capacities changed since the last recompute
    /// (background-traffic epoch); invalidates every cached residual.
    pub caps_changed: bool,
}

/// What [`RateAllocator::allocate_dirty`] actually did. The fabric uses
/// this to attribute the recompute to the right probe counter and stats
/// bucket; in either case `rates` is fully written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyOutcome {
    /// The dirtied priority boundary covered the whole order (capacity
    /// change or cold cache): a full pass ran and rebuilt the caches.
    Full {
        /// Max-min freeze rounds executed across all component solves.
        rounds: u64,
    },
    /// Coflow-local incremental solve: only dirtied groups were
    /// re-ranked and only dirtied components re-solved.
    Incremental {
        /// Flows living in re-solved components (the dirty set).
        dirty_flows: u64,
        /// Max-min freeze rounds executed across the dirty components.
        rounds: u64,
    },
}

/// A bandwidth allocation policy.
///
/// The fabric picks the entry points it drives from
/// [`memoryless`](Self::memoryless): memoryless policies are solved one
/// connected component at a time through
/// [`allocate_component`](Self::allocate_component); every other policy
/// owns its dirty decomposition through
/// [`allocate_dirty`](Self::allocate_dirty), checked against
/// [`allocate_from_scratch`](Self::allocate_from_scratch) by the shadow
/// oracle. A policy implements the entry points of its family; the
/// others are never called.
pub trait RateAllocator: Send {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// True when the policy's rates depend only on flow paths and
    /// effective link capacities — not on remaining bytes or coflow
    /// grouping. Memoryless policies decompose over connected components
    /// of the link↔flow graph, which is what the fabric's incremental
    /// recompute exploits; policies with cross-component coupling (Varys'
    /// SEBF ordering) run the coflow-local incremental form instead.
    fn memoryless(&self) -> bool {
        false
    }

    /// Solves one connected component on its compacted subproblem:
    /// `caps[l]` is the effective capacity of compact link `l`, and the
    /// table's `flow_links` are compact link ids in `0..caps.len()`.
    /// Only called when [`memoryless`](Self::memoryless) returns true.
    fn allocate_component(
        &mut self,
        caps: &[f64],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
    ) {
        let _ = (caps, table, rates, scratch);
        unreachable!("allocate_component called on a non-memoryless allocator");
    }

    /// Coflow-granular incremental entry point. Given the full current
    /// CSR `table` (links carry effective capacities, background traffic
    /// already subtracted via [`Link::effective_capacity`]) plus the event
    /// delta in `ctx`, writes every rate in `rates` — re-ranking only the
    /// touched coflows and re-solving only the dirtied components when
    /// possible. Only called when [`memoryless`](Self::memoryless) returns
    /// false.
    fn allocate_dirty(
        &mut self,
        links: &[Link],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
        ctx: &DirtyCtx<'_>,
    ) -> DirtyOutcome {
        let _ = (links, table, rates, scratch, ctx);
        unreachable!("allocate_dirty called on a memoryless allocator");
    }

    /// From-scratch reference solve used by the fabric's shadow oracle
    /// against the coflow-incremental path. Must compute the same rates
    /// [`allocate_dirty`](Self::allocate_dirty) converges to, using no
    /// state cached across calls (the oracle owns dedicated scratch and
    /// this method must reset any incremental cache living in it). Only
    /// called when [`memoryless`](Self::memoryless) returns false.
    fn allocate_from_scratch(
        &mut self,
        links: &[Link],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
    ) {
        let _ = (links, table, rates, scratch);
        unreachable!("allocate_from_scratch called on a memoryless allocator");
    }
}

/// Max-min fair sharing: the fluid proxy for long-lived TCP with ideal
/// congestion control.
#[derive(Debug, Default, Clone)]
pub struct FairShare;

impl RateAllocator for FairShare {
    fn name(&self) -> &'static str {
        "tcp-fair"
    }

    fn memoryless(&self) -> bool {
        true
    }

    fn allocate_component(
        &mut self,
        caps: &[f64],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
    ) {
        maxmin::max_min_rates_csr(
            caps,
            table.flow_off,
            table.flow_links,
            rates,
            &mut scratch.maxmin,
        );
    }
}

/// The pre-optimization max-min kernel, kept as a benchmarking and
/// golden-test oracle. It rides the same incremental component
/// decomposition as [`FairShare`], but solves each component through the
/// allocating reference [`maxmin::max_min_rates_into`] (per-call
/// `Vec<&[LinkId]>` paths and `Vec<Vec<u32>>` link membership) instead of
/// the CSR kernel. It reports the same policy name as [`FairShare`] so
/// run summaries are comparable verbatim.
#[derive(Debug, Default, Clone)]
pub struct ReferenceFairShare;

impl RateAllocator for ReferenceFairShare {
    fn name(&self) -> &'static str {
        "tcp-fair"
    }

    fn memoryless(&self) -> bool {
        true
    }

    fn allocate_component(
        &mut self,
        caps: &[f64],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
    ) {
        let _ = scratch;
        let paths: Vec<&[LinkId]> = (0..table.len()).map(|f| table.path(f)).collect();
        maxmin::max_min_rates_into(caps, &paths, rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use corral_model::Bandwidth;

    #[test]
    fn fair_share_respects_background() {
        let mut uplink = Link::new(LinkClass::RackUp, 0, Bandwidth(100.0));
        uplink.background = Bandwidth(60.0);
        // The fabric hands components their effective capacities.
        let caps = [uplink.effective_capacity().0];
        let flow_links = [LinkId(0), LinkId(0)];
        let table = FlowTable {
            flow_off: &[0, 1, 2],
            flow_links: &flow_links,
            remaining: &[1000.0, 1000.0],
            coflow: &[None, None],
        };
        let mut rates = [0.0; 2];
        FairShare.allocate_component(&caps, &table, &mut rates, &mut AllocScratch::new());
        // 40 available, split two ways.
        assert!((rates[0] - 20.0).abs() < 1e-6);
        assert!((rates[1] - 20.0).abs() < 1e-6);
    }
}
