//! `serve-10k-churn`: the resident scheduler on 10,000 machines, fed W1
//! arrivals plus seeded Poisson machine churn as JSONL lines. Completions
//! are self-clocked by the scheduler. The workload never enters the
//! cluster engine or the fabric; it stresses the planner through the
//! scheduler's replans, and the wire and snapshot paths around them.

use crate::arrivals;
use crate::calib::HostSpeed;
use crate::spans::Spans;
use crate::stats::{backlog_growing, ladder_max, mean, median, tail, Fnv, Tail};
use crate::{setup_burst, Args, Outcome};
use corral::prelude::*;
use corral::serve::source::events_from_specs;
use corral::serve::{
    chaos, snapshot, wire, ChaosSpec, Decision, Scheduler, ServeConfig, ServeEvent, ServeStats,
};
use corral::trace::probe::{self, ProbeCounter, SpanKind};
use corral::workloads::w1;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Workload name on the command line.
pub const NAME: &str = "serve-10k-churn";

/// W1 arrivals in the stream.
const JOBS: usize = 120;
/// Arrival and churn window, seconds.
const WINDOW_S: f64 = 1200.0;
/// Per-machine mean time between failures, seconds.
const MTBF_S: f64 = 3600.0;
/// Mean repair time, seconds.
const MEAN_REPAIR_S: f64 = 600.0;
/// The service writes a snapshot checkpoint after every this many events.
const SNAPSHOT_EVERY: usize = 1000;
/// Events of the stream replayed with the oracle tripwire armed.
const TRIPWIRE_PREFIX: usize = 1000;
/// Capacity of the generator → service channel.
const CHANNEL_BOUND: usize = 64;
/// The fixed offered-rate ladder, events per second, climbed upwards.
const LADDER: [f64; 5] = [1000.0, 1500.0, 2000.0, 3000.0, 4000.0];
/// The two rates whose latency is always reported.
const LOW_EPS: f64 = 1000.0;
const HIGH_EPS: f64 = 2000.0;
/// Latency limit on the tail percentile for a rung to hold.
const LIMIT_MS: f64 = 10.0;
/// Independent streams (cells) per run. Closed-loop passes cycle through
/// them; the open loop and the traced pass use the first.
const CELLS: usize = 6;
/// The fixed W1 population (see the simulator workloads).
const POPULATION_SEED: u64 = 0xA001;

fn config(tripwire: bool) -> ServeConfig {
    ServeConfig {
        cluster: ClusterConfig {
            racks: 250,
            machines_per_rack: 40,
            ..ClusterConfig::testbed_210()
        },
        objective: Objective::AvgCompletionTime,
        tripwire,
        ..ServeConfig::default()
    }
}

/// The generated input of one cell: JSONL event lines, plus each job's
/// arrival time and task count for the simulated completion-time figures.
struct Stream {
    lines: Vec<String>,
    jobs: BTreeMap<u32, (f64, u64)>,
}

/// The cell's events: W1 arrivals merged with the churn schedule.
fn events(seed: u64) -> (Vec<ServeEvent>, BTreeMap<u32, (f64, u64)>) {
    let population = w1::generate(
        &w1::W1Params::with_seed(POPULATION_SEED),
        Scale::bench_default(),
    );
    // W1's generator makes 60 jobs per parameter set; repeat the
    // population with fresh ids until the stream has JOBS arrivals.
    let mut specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| JobSpec {
            id: JobId(i as u32),
            ..population[i % population.len()].clone()
        })
        .collect();
    arrivals::stratified(&mut specs, SimTime(WINDOW_S), seed);
    let jobs = specs
        .iter()
        .map(|s| {
            (
                s.id.0,
                (s.arrival.as_secs(), s.profile.total_tasks() as u64),
            )
        })
        .collect();
    let churn = ChaosSpec {
        mtbf: SimTime(MTBF_S),
        mean_repair: SimTime(MEAN_REPAIR_S),
        horizon: SimTime(WINDOW_S),
        seed: seed ^ 0xC4A0_5EED,
    };
    let evs = chaos::merge(
        events_from_specs(&specs),
        churn.events(&config(false).cluster),
    );
    (evs, jobs)
}

fn stream(seed: u64) -> Stream {
    let (evs, jobs) = events(seed);
    let lines = evs
        .iter()
        .map(|e| wire::format_event(e).expect("generated events are well-formed"))
        .collect();
    Stream { lines, jobs }
}

/// The run's cells: one stream per seed derived from the run seed.
fn streams(seed: u64) -> Vec<Stream> {
    (0..CELLS as u64)
        .map(|c| stream(arrivals::mix(seed ^ arrivals::mix(c))))
        .collect()
}

/// What an event is, for the per-kind latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Arrival,
    Failure,
    Other,
}

/// The service thread's loop body: wire in, scheduler, wire out, with a
/// digest over the decision stream and the simulated outcome.
struct Service<'a> {
    sched: Scheduler,
    out: Vec<(SimTime, Decision)>,
    digest: Fnv,
    jobs: &'a BTreeMap<u32, (f64, u64)>,
    kinds: Vec<Kind>,
    jct_sum: f64,
    completed: u64,
    tasks: u64,
    makespan: f64,
}

impl<'a> Service<'a> {
    fn new(tripwire: bool, jobs: &'a BTreeMap<u32, (f64, u64)>) -> Self {
        Service {
            sched: Scheduler::new(config(tripwire)),
            out: Vec::new(),
            digest: Fnv::default(),
            jobs,
            kinds: Vec::new(),
            jct_sum: 0.0,
            completed: 0,
            tasks: 0,
            makespan: 0.0,
        }
    }

    fn handle(&mut self, i: usize, line: &str, spans: &mut Spans) -> Result<(), String> {
        let root = spans.enter("serve.event", i as u64);
        let ev = spans
            .time("serve.parse_event", i as u64, || wire::parse_event(line))
            .map_err(|e| format!("event {i}: {e}"))?;
        self.kinds.push(match ev {
            ServeEvent::Arrival(_) => Kind::Arrival,
            ServeEvent::MachineFailed { .. }
            | ServeEvent::MachineRepaired { .. }
            | ServeEvent::RackFailed { .. } => Kind::Failure,
            _ => Kind::Other,
        });
        let o = spans.enter("serve.on_event", i as u64);
        self.sched.on_event(ev, &mut self.out);
        spans.exit(o);
        self.emit(i as u64, spans);
        if (i + 1).is_multiple_of(SNAPSHOT_EVERY) {
            let snap = spans
                .time("serve.snapshot_write", i as u64, || {
                    snapshot::write(&self.sched)
                })
                .map_err(|e| format!("snapshot after event {i}: {e}"))?;
            std::hint::black_box(snap);
        }
        spans.exit(root);
        Ok(())
    }

    fn emit(&mut self, id: u64, spans: &mut Spans) {
        for (t, d) in self.out.drain(..) {
            let line = spans.time("serve.format_decision", id, || wire::format_decision(t, &d));
            self.digest.bytes(line.as_bytes());
            self.digest.bytes(b"\n");
            if let Decision::Complete { job } = d {
                let (arrival, tasks) = self.jobs[&job.0];
                self.jct_sum += t.as_secs() - arrival;
                self.completed += 1;
                self.tasks += tasks;
                self.makespan = self.makespan.max(t.as_secs());
            }
        }
    }

    /// Drains the remaining timers and returns the pass summary.
    fn finish(mut self, spans: &mut Spans) -> Pass {
        self.sched.finish(&mut self.out);
        self.emit(u64::MAX, spans);
        Pass {
            digest: self.digest.finish(),
            prefix_digest: None,
            wall: 0.0,
            stats: self.sched.stats(),
            kinds: self.kinds,
            jct_mean: self.jct_sum / self.completed.max(1) as f64,
            completed: self.completed,
            tasks: self.tasks,
            makespan: self.makespan,
        }
    }
}

/// Summary of one pass over the stream.
struct Pass {
    digest: u64,
    /// Digest of the decisions of the first [`TRIPWIRE_PREFIX`] events.
    prefix_digest: Option<u64>,
    wall: f64,
    stats: ServeStats,
    kinds: Vec<Kind>,
    jct_mean: f64,
    completed: u64,
    tasks: u64,
    makespan: f64,
}

impl Pass {
    /// Admission accounting holds and every admitted job completed.
    fn consistent(&self) -> bool {
        let s = &self.stats;
        s.admitted + s.rejected == s.arrivals
            && s.completed == s.admitted
            && self.completed == s.admitted
    }
}

/// Closed loop: every event as soon as the previous one is done.
fn closed_loop(
    st: &Stream,
    upto: usize,
    tripwire: bool,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let mut svc = Service::new(tripwire, &st.jobs);
    let mut prefix = None;
    let t = Instant::now();
    for (i, line) in st.lines[..upto].iter().enumerate() {
        svc.handle(i, line, spans)?;
        if i + 1 == TRIPWIRE_PREFIX {
            prefix = Some(svc.digest.finish());
        }
    }
    let mut p = svc.finish(spans);
    p.wall = t.elapsed().as_secs_f64();
    p.prefix_digest = prefix;
    Ok(p)
}

/// Open loop at a fixed offered rate.
struct Rung {
    rate: f64,
    pass: Pass,
    latency: Tail,
    wait: Tail,
    lag: Tail,
    busy_frac: f64,
    growing: bool,
}

impl Rung {
    fn holds(&self) -> bool {
        self.latency.tail * 1e3 <= LIMIT_MS && !self.growing
    }
}

/// Sleeps (then spins for the last stretch) until `t`.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One generator thread sends the lines on a fixed schedule over a
/// bounded channel (blocking when full); the calling thread serves them.
/// Latency runs from each event's due time to the end of its handling.
fn open_loop(st: &Stream, rate: f64) -> Result<Rung, String> {
    let n = st.lines.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut svc = Service::new(false, &st.jobs);
    let mut spans = Spans::new(false);
    let (mut lat, mut wait, mut depth) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut busy = 0.0;
    let mut end = start;
    let (tx, rx) = sync_channel::<(usize, &str)>(CHANNEL_BOUND);
    let (lag, served) = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut lag = Vec::with_capacity(n);
            for (i, line) in st.lines.iter().enumerate() {
                let d = due(i);
                wait_until(d);
                lag.push(Instant::now().saturating_duration_since(d).as_secs_f64());
                if tx.send((i, line.as_str())).is_err() {
                    break;
                }
            }
            lag
        });
        let mut served = Ok(());
        for (i, line) in rx.iter() {
            let t0 = Instant::now();
            if let Err(e) = svc.handle(i, line, &mut spans) {
                served = Err(e);
                break;
            }
            let t1 = Instant::now();
            busy += (t1 - t0).as_secs_f64();
            lat.push(t1.saturating_duration_since(due(i)).as_secs_f64());
            wait.push(t0.saturating_duration_since(due(i)).as_secs_f64());
            // Events due by now but not yet served: queued in the
            // channel, or not yet sent because the channel was full.
            let due_by_now =
                ((t1.saturating_duration_since(start).as_secs_f64() * rate) as usize + 1).min(n);
            depth.push(due_by_now.saturating_sub(i + 1) as f64);
            end = t1;
        }
        drop(rx);
        (gen.join().expect("generator thread panicked"), served)
    });
    served?;
    let wall = end.saturating_duration_since(start).as_secs_f64();
    Ok(Rung {
        rate,
        pass: svc.finish(&mut spans),
        latency: tail(&lat, 99.0),
        wait: tail(&wait, 99.0),
        lag: tail(&lag, 99.0),
        busy_frac: busy / wall.max(1e-9),
        growing: backlog_growing(&depth, CHANNEL_BOUND as f64 / 2.0),
    })
}

/// Runs `f`, turning a panic or an error into a failed batch of `n`
/// events. `check` rejects a result whose outputs are wrong.
fn checked<T>(
    out: &mut Outcome,
    what: &str,
    n: usize,
    f: impl FnOnce() -> Result<T, String>,
    check: impl FnOnce(&T) -> Result<(), String>,
) -> Option<T> {
    let r = catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".into()))
        .and_then(|v| check(&v).map(|()| v));
    out.tally(n as u64, r.is_ok());
    r.map_err(|e| eprintln!("{NAME}: {what}: {e}")).ok()
}

/// Pass-level checks against the reference pass's digest.
fn same_output(reference: Option<u64>) -> impl Fn(&Pass) -> Result<(), String> {
    move |p: &Pass| {
        if !p.consistent() {
            return Err(format!("inconsistent admission accounting {:?}", p.stats));
        }
        match reference {
            Some(d) if d != p.digest => {
                Err(format!("decision digest {:#018x} != {d:#018x}", p.digest))
            }
            _ => Ok(()),
        }
    }
}

/// The untimed tripwire pass: the stream's prefix with the batch oracle
/// re-run on every replan; its decisions must match the normal pass's.
fn tripwire_gate(st: &Stream, reference: &Pass, out: &mut Outcome) {
    let upto = TRIPWIRE_PREFIX.min(st.lines.len());
    let expect = reference.prefix_digest;
    checked(
        out,
        "tripwire pass",
        upto,
        || closed_loop(st, upto, true, &mut Spans::new(false)),
        |p| match (p.prefix_digest, expect) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (a, b) => Err(format!("tripwire prefix digest {a:?} != {b:?}")),
        },
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.set("workloads.generate_s", setup_burst(|| events(args.seed)).0);
    let (first_setup, cells) = setup_burst(|| streams(args.seed));
    let mut setup = vec![first_setup];
    let mut speed = HostSpeed::default();
    speed.sample();
    for (c, st) in cells.iter().enumerate() {
        eprintln!(
            "{NAME}: cell {c}: {} events, {} arrivals",
            st.lines.len(),
            st.jobs.len()
        );
    }

    if args.trace {
        traced(&cells, args, &mut out);
        return out;
    }
    // Timed part: cycle through the cells until the time is up, after
    // every cell ran once and the first ran twice.
    let mut first: Vec<Option<Pass>> = (0..cells.len()).map(|_| None).collect();
    let (mut tasks, mut wall) = (0u64, 0.0);
    let t0 = Instant::now();
    let mut i = 0;
    while i <= cells.len() || t0.elapsed().as_secs_f64() < args.seconds {
        let c = i % cells.len();
        let st = &cells[c];
        let n = st.lines.len();
        let reference = first[c].as_ref().map(|p| p.digest);
        let pass = checked(
            &mut out,
            "closed-loop pass",
            n,
            || closed_loop(st, n, false, &mut Spans::new(false)),
            same_output(reference),
        );
        if let Some(p) = pass {
            tasks += p.tasks;
            wall += p.wall;
            first[c].get_or_insert(p);
        }
        setup.push(setup_burst(|| streams(args.seed)).0);
        speed.sample();
        i += 1;
    }
    out.set("setup_s", speed.reference_s(mean(setup.into_iter())));
    let done: Vec<&Pass> = first.iter().flatten().collect();
    if let Some(p) = &first[0] {
        tripwire_gate(&cells[0], p, &mut out);
    }
    if wall > 0.0 {
        out.set("sim_tasks_per_s", tasks as f64 / speed.reference_s(wall));
        out.set("jct_mean_s", mean(done.iter().map(|p| p.jct_mean)));
        out.set("makespan_s", mean(done.iter().map(|p| p.makespan)));
    }
    eprintln!(
        "{NAME}: {i} closed-loop passes in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / (a + b).max(1) as f64
}

/// The traced run: an untraced closed-loop pass over every cell (reference
/// digests, `replay_eps`, overhead baseline), the open-loop rate ladder on
/// the first cell (tracing off), then a traced closed-loop pass over the
/// first cell for the per-layer figures.
fn traced(cells: &[Stream], args: &Args, out: &mut Outcome) {
    let mut base = Vec::new();
    for st in cells {
        let n = st.lines.len();
        base.extend(checked(
            out,
            "closed-loop pass",
            n,
            || closed_loop(st, n, false, &mut Spans::new(false)),
            same_output(None),
        ));
    }
    if base.len() < cells.len() {
        return;
    }
    let st = &cells[0];
    let n = st.lines.len();
    tripwire_gate(st, &base[0], out);
    let events: usize = cells.iter().map(|s| s.lines.len()).sum();
    out.set(
        "replay_eps",
        events as f64 / base.iter().map(|p| p.wall).sum::<f64>(),
    );
    let (rejected, admitted) = base.iter().fold((0, 0), |(r, a), p| {
        (r + p.stats.rejected, a + p.stats.admitted)
    });
    out.set("reject_frac", ratio(rejected, admitted));
    let base = &base[0];

    let mut ladder = Vec::new();
    for rate in LADDER {
        let Some(r) = checked(
            out,
            &format!("open loop at {rate} eps"),
            n,
            || open_loop(st, rate),
            |r| same_output(Some(base.digest))(&r.pass),
        ) else {
            break;
        };
        eprintln!(
            "{NAME}: {rate} eps: p50 {:.3} ms, tail {:.3} ms (n={}), lag tail {:.3} ms, busy {:.2}, growing {}",
            r.latency.p50 * 1e3,
            r.latency.tail * 1e3,
            r.latency.n,
            r.lag.tail * 1e3,
            r.busy_frac,
            r.growing
        );
        let stop = !r.holds() && rate >= HIGH_EPS;
        ladder.push(r);
        if stop {
            break;
        }
    }
    let held: Vec<(f64, bool)> = ladder.iter().map(|r| (r.rate, r.holds())).collect();
    out.set("serve_max_eps", ladder_max(&held));
    let at = |rate: f64| ladder.iter().find(|r| r.rate == rate);
    for (rate, [p50, p99, samples]) in [
        (LOW_EPS, ["p50_ms.low", "p99_ms.low", "samples.low"]),
        (HIGH_EPS, ["p50_ms.high", "p99_ms.high", "samples.high"]),
    ] {
        if let Some(r) = at(rate) {
            out.set(p50, r.latency.p50 * 1e3);
            out.set(p99, r.latency.tail * 1e3);
            out.set(samples, r.latency.n as f64);
        }
    }
    if let Some(r) = at(HIGH_EPS) {
        out.set("serve.queue_wait_ms.p99", r.wait.tail * 1e3);
        out.set("serve.busy_frac", r.busy_frac);
        out.set("serve.generator_lag_ms", r.lag.tail * 1e3);
    }

    let mut spans = Spans::new(true);
    probe::reset();
    probe::set_enabled(true);
    let traced_pass = checked(
        out,
        "traced pass",
        n,
        || closed_loop(st, n, false, &mut spans),
        same_output(Some(base.digest)),
    );
    probe::set_enabled(false);
    let Some(p) = traced_pass else { return };
    let report = probe::report();
    let total = |k: SpanKind| report.span_stat(k).map_or(0.0, |s| s.total_s);

    let on_event = spans.durations("serve.on_event");
    let of_kind = |k: Kind| -> Vec<f64> {
        on_event
            .iter()
            .zip(&p.kinds)
            .filter(|(_, &kind)| kind == k)
            .map(|(d, _)| d * 1e6)
            .collect()
    };
    let arrivals = tail(&of_kind(Kind::Arrival), 99.0);
    out.set("serve.arrival_us.p50", arrivals.p50);
    out.set("serve.arrival_us.p99", arrivals.tail);
    out.set(
        "serve.failure_us.p50",
        tail(&of_kind(Kind::Failure), 50.0).p50,
    );
    out.set(
        "serve.wire_parse_us.p50",
        1e6 * median(&spans.durations("serve.parse_event")),
    );
    out.set(
        "serve.wire_format_us.p50",
        1e6 * median(&spans.durations("serve.format_decision")),
    );
    out.set(
        "serve.snapshot_ms",
        1e3 * median(&spans.durations("serve.snapshot_write")),
    );
    out.set(
        "serve.cache_hit_ratio",
        ratio(p.stats.cache_hits, p.stats.cache_misses),
    );
    out.set(
        "serve.incremental_replan_ratio",
        ratio(p.stats.replans_incremental, p.stats.replans_full),
    );
    out.set("core.plan_s", total(SpanKind::PlanDecision));
    out.set("core.provision_s", total(SpanKind::Provision));
    out.set(
        "core.heap_pops",
        report.counter(ProbeCounter::HeapPops) as f64,
    );
    out.set(
        "core.plan_candidates",
        report
            .span_stat(SpanKind::CandidateScore)
            .map_or(0, |s| s.count) as f64,
    );
    out.set("trace.overhead_pct", 100.0 * (p.wall / base.wall - 1.0));

    let path =
        std::path::Path::new("perfbench/out").join(format!("{NAME}-{}.spans.jsonl", args.seed));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("{NAME}: writing {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two in-process passes over the same stream produce the same
    /// decision stream; the tripwire pass agrees on its prefix.
    #[test]
    fn decision_digest_is_stable_across_passes() {
        let st = stream(3);
        assert_eq!(st.lines, stream(3).lines);
        let upto = 400;
        let pass = || closed_loop(&st, upto, false, &mut Spans::new(false)).unwrap();
        let (a, b) = (pass(), pass());
        assert_eq!(a.digest, b.digest);
        assert!(a.consistent());
        assert_eq!(a.prefix_digest, None, "prefix longer than the pass");
        let mut out = Outcome::default();
        let full = Pass {
            prefix_digest: Some(0),
            ..pass()
        };
        tripwire_gate(&st, &full, &mut out);
        assert_eq!(
            out.failed, out.attempted,
            "a wrong prefix digest fails the gate"
        );
    }
}
