//! Unified performance report: runs live probe cells for the four hot
//! subsystems (fabric event loop, planner provisioning loop, sweep/engine
//! path, serving loop), measures the probe layer's own overhead, merges
//! the result with
//! every `BENCH_*.json` the other benches have written, and emits
//! `BENCH_report.json` (machine-readable) plus `PERF.md` (human-readable)
//! in the working directory.
//!
//! Not part of `repro all`; CI runs `repro perfreport` after the
//! fabricbench/plannerbench/servebench perf-smoke steps so the report
//! folds their fresh JSON in. The live cells double as *regression
//! tripwires*: the fabric small-scale recompute count, the planner
//! large-scale candidate count, and the serve small-cell decision count
//! must match the same golden constants the benches
//! assert, and drift panics here too (bless via the owning bench's
//! `CORRAL_*BENCH_BLESS=1`, then rerun). Wall-clock numbers — including
//! the probe-overhead measurement — are reported but never asserted.

use crate::experiments::{fabricbench, plannerbench, servebench};
use crate::jsonv::{self, Value};
use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_core::Objective;
use corral_model::SimTime;
use corral_trace::probe;
use corral_workloads::{assign_uniform_arrivals, w1};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Repetitions for the probes-on vs probes-off overhead pair (minimum
/// wall of each side; one warmup pass discarded).
const OVERHEAD_REPEATS: usize = 5;

/// Span kinds the live cells are guaranteed to exercise; an empty stat
/// for one of these means the probe wiring regressed, and that *is*
/// asserted (unlike wall-clock, span presence is deterministic).
const REQUIRED_SPANS: [probe::SpanKind; 9] = [
    probe::SpanKind::FabricRecompute,
    probe::SpanKind::FabricMaxMin,
    probe::SpanKind::CandidateEnum,
    probe::SpanKind::CandidateScore,
    probe::SpanKind::Provision,
    probe::SpanKind::PlanDecision,
    probe::SpanKind::EngineEvent,
    probe::SpanKind::SweepCell,
    probe::SpanKind::ServeDecision,
];

/// Probe counters the live cells must leave non-zero; a zero means the
/// counter wiring (or the code path that feeds it) regressed. The split
/// fabric recompute counters `recompute_full_boundary` /
/// `recompute_incremental` and the `varys_scratch_elems` footprint gauge
/// are fed by the Varys live cell.
const REQUIRED_COUNTERS: [&str; 4] = [
    "fabric.recompute_incremental",
    "fabric.recompute_full_boundary",
    "fabric.varys_scratch_elems",
    "fabric.scratch_grows",
];

/// One golden-counter tripwire result.
struct Tripwire {
    name: &'static str,
    observed: u64,
    golden: u64,
}

impl Tripwire {
    fn ok(&self) -> bool {
        self.observed == self.golden
    }
}

/// Formats a duration with a unit that keeps 3 significant digits
/// readable from nanoseconds up to minutes.
fn fmt_dur(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Rounds for JSON embedding: wall-clock seconds to the microsecond,
/// enough for every quantile the histograms resolve.
fn num(v: f64) -> Value {
    Value::Num((v * 1e6).round() / 1e6)
}

/// The engine/sweep live cell: a reduced W1 online grid (1 seed × all
/// variants) through the sweep pool — populates `engine.event`,
/// `planner.plan`, `sweep.cell` (and the worker-path spans when the host
/// has the CPUs for them).
fn run_engine_cell() {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 12,
            bytes_per_task: 512e6,
            ..w1::W1Params::with_seed(0xA001)
        },
        crate::experiments::bench_scale(),
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(20.0), 0x1);
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);
    let pool = crate::config::pool().progress(false);
    let nv = Variant::ALL.len();
    let reports = pool.run_all(nv, |i| run_variant(Variant::ALL[i], &jobs, &rc));
    assert_eq!(reports.len(), nv);
}

/// Parses every `BENCH_*.json` in the working directory except the
/// report itself. Returns `(key, filename, value)` sorted by key.
fn load_bench_files() -> Vec<(String, String, Value)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir(".") else {
        return out;
    };
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(key) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        if key == "report" {
            continue;
        }
        match std::fs::read_to_string(entry.path()).map_err(|e| e.to_string()) {
            Ok(text) => match jsonv::parse(&text) {
                Ok(v) => out.push((key.to_string(), name, v)),
                Err(e) => println!("   warning: {name}: unparsable ({e}); skipped"),
            },
            Err(e) => println!("   warning: {name}: unreadable ({e}); skipped"),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Renders one parsed bench file as markdown: scalars as bullets,
/// arrays-of-objects as tables (generic, so new benches show up without
/// touching this module).
fn bench_markdown(md: &mut String, file: &str, v: &Value) {
    let _ = writeln!(md, "### `{file}`\n");
    let Value::Obj(top) = v else {
        let _ = writeln!(md, "```json\n{}\n```\n", v.to_json());
        return;
    };
    for (k, field) in top {
        match field {
            Value::Num(_) | Value::Bool(_) | Value::Str(_) | Value::Null => {
                let _ = writeln!(md, "- `{k}`: {}", field.to_json());
            }
            Value::Obj(_) => {
                let _ = writeln!(md, "- `{k}`: `{}`", field.to_json());
            }
            Value::Arr(rows) => {
                let objs: Vec<&BTreeMap<String, Value>> = rows
                    .iter()
                    .filter_map(|r| match r {
                        Value::Obj(m) => Some(m),
                        _ => None,
                    })
                    .collect();
                if objs.len() == rows.len() && !objs.is_empty() {
                    // Union of keys, first row's order is close enough to
                    // intent because BTreeMap sorts anyway.
                    let mut cols: Vec<&String> = Vec::new();
                    for o in &objs {
                        for c in o.keys() {
                            if !cols.contains(&c) {
                                cols.push(c);
                            }
                        }
                    }
                    let _ = writeln!(
                        md,
                        "\n| {} |",
                        cols.iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" | ")
                    );
                    let _ = writeln!(
                        md,
                        "|{}|",
                        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
                    );
                    for o in &objs {
                        let cells: Vec<String> = cols
                            .iter()
                            .map(|c| o.get(*c).map(Value::to_json).unwrap_or_default())
                            .collect();
                        let _ = writeln!(md, "| {} |", cells.join(" | "));
                    }
                    let _ = writeln!(md);
                } else {
                    let _ = writeln!(md, "- `{k}`: `{}`", field.to_json());
                }
            }
        }
    }
    let _ = writeln!(md);
}

/// Runs the live cells, the overhead pair, the merge, and the two
/// writers. See module docs.
pub fn main() {
    table::section("perfreport: live probe cells + merged BENCH_* report");
    let was_enabled = probe::enabled();
    probe::set_enabled(true);
    probe::reset();

    // -- Live cells -------------------------------------------------------
    println!(
        "   running live probe cells (fabric small fair + varys, planner large, \
         engine grid, serve small)"
    );
    let (fab_recomputes, fab_golden) = fabricbench::probe_cell_small();
    let (fab_varys_recomputes, fab_varys_golden) = fabricbench::probe_cell_varys();
    let planner_cell = plannerbench::probe_cell_large();
    let (planner_cands, _) = planner_cell.run();
    run_engine_cell();
    let serve_cell = servebench::probe_cell_small();
    let serve_decisions = serve_cell.run();

    // -- Probe overhead on the planner large cell -------------------------
    // Warm once, then min-of-N with probes on vs off. The off passes
    // leave no trace in the report (spans are inert when disabled).
    let _ = planner_cell.run();
    let mut on_s = f64::INFINITY;
    for _ in 0..OVERHEAD_REPEATS {
        let t0 = Instant::now();
        let _ = planner_cell.run();
        on_s = on_s.min(t0.elapsed().as_secs_f64());
    }
    probe::set_enabled(false);
    let mut off_s = f64::INFINITY;
    for _ in 0..OVERHEAD_REPEATS {
        let t0 = Instant::now();
        let _ = planner_cell.run();
        off_s = off_s.min(t0.elapsed().as_secs_f64());
    }
    probe::set_enabled(true);
    let overhead_pct = (on_s - off_s) / off_s.max(1e-9) * 100.0;
    println!(
        "   probe overhead (planner large cell): on {} vs off {} = {overhead_pct:+.1}%",
        fmt_dur(on_s),
        fmt_dur(off_s)
    );
    if overhead_pct >= 5.0 {
        println!("   warning: probe overhead {overhead_pct:.1}% at or above the 5% budget");
    }

    let report = probe::report();

    // -- Span table -------------------------------------------------------
    table::row(&["span", "count", "total", "p50", "p90", "p99", "max"]);
    for s in &report.spans {
        table::row(&[
            s.label.to_string(),
            s.count.to_string(),
            fmt_dur(s.total_s),
            fmt_dur(s.p50_s),
            fmt_dur(s.p90_s),
            fmt_dur(s.p99_s),
            fmt_dur(s.max_s),
        ]);
    }
    for &(label, v) in &report.counters {
        if v > 0 {
            println!("   {label} = {v}");
        }
    }
    println!(
        "   {} thread(s) merged, {} ring record(s) dropped",
        report.threads, report.dropped
    );

    // Span presence is deterministic: an unexercised required kind means
    // the instrumentation wiring regressed.
    let missing: Vec<&str> = REQUIRED_SPANS
        .iter()
        .filter(|&&k| report.span_stat(k).is_none())
        .map(|k| k.label())
        .collect();
    assert!(
        missing.is_empty(),
        "perfreport: live cells left required span(s) empty: {}",
        missing.join(", ")
    );
    let zero_counters: Vec<&str> = REQUIRED_COUNTERS
        .iter()
        .filter(|&&want| {
            !report
                .counters
                .iter()
                .any(|&(label, v)| label == want && v > 0)
        })
        .copied()
        .collect();
    assert!(
        zero_counters.is_empty(),
        "perfreport: live cells left required counter(s) zero: {}",
        zero_counters.join(", ")
    );

    // -- Tripwires --------------------------------------------------------
    let tripwires = [
        Tripwire {
            name: "fabric_small_recomputes",
            observed: fab_recomputes,
            golden: fab_golden,
        },
        Tripwire {
            name: "fabric_varys_small_recomputes",
            observed: fab_varys_recomputes,
            golden: fab_varys_golden,
        },
        Tripwire {
            name: "planner_large_candidates",
            observed: planner_cands,
            golden: planner_cell.golden(),
        },
        Tripwire {
            name: "serve_small_decisions",
            observed: serve_decisions,
            golden: serve_cell.golden(),
        },
    ];
    let drift: Vec<String> = tripwires
        .iter()
        .filter(|t| !t.ok())
        .map(|t| format!("{}: {} != golden {}", t.name, t.observed, t.golden))
        .collect();

    // -- Merge with the other benches' JSON -------------------------------
    let benches = load_bench_files();
    for (_, file, _) in &benches {
        println!("   merged {file}");
    }
    if benches.is_empty() {
        println!("   note: no BENCH_*.json found; run fabricbench/plannerbench/sweepbench first");
    }

    // -- BENCH_report.json ------------------------------------------------
    let spans_json = Value::Arr(
        report
            .spans
            .iter()
            .map(|s| {
                Value::Obj(BTreeMap::from([
                    ("span".into(), Value::Str(s.label.into())),
                    ("count".into(), Value::Num(s.count as f64)),
                    ("total_s".into(), num(s.total_s)),
                    ("p50_s".into(), num(s.p50_s)),
                    ("p90_s".into(), num(s.p90_s)),
                    ("p99_s".into(), num(s.p99_s)),
                    ("max_s".into(), num(s.max_s)),
                ]))
            })
            .collect(),
    );
    let counters_json = Value::Obj(
        report
            .counters
            .iter()
            .map(|&(label, v)| (label.to_string(), Value::Num(v as f64)))
            .collect(),
    );
    let tripwires_json = Value::Arr(
        tripwires
            .iter()
            .map(|t| {
                Value::Obj(BTreeMap::from([
                    ("name".into(), Value::Str(t.name.into())),
                    ("observed".into(), Value::Num(t.observed as f64)),
                    ("golden".into(), Value::Num(t.golden as f64)),
                    ("ok".into(), Value::Bool(t.ok())),
                ]))
            })
            .collect(),
    );
    let overhead_json = Value::Obj(BTreeMap::from([
        ("cell".into(), Value::Str("planner_large_fast".into())),
        ("probes_on_s".into(), num(on_s)),
        ("probes_off_s".into(), num(off_s)),
        (
            "overhead_pct".into(),
            Value::Num((overhead_pct * 10.0).round() / 10.0),
        ),
    ]));
    let root = Value::Obj(BTreeMap::from([
        ("report".into(), Value::Str("corral_perfreport".into())),
        (
            "probe".into(),
            Value::Obj(BTreeMap::from([
                ("spans".into(), spans_json),
                ("counters".into(), counters_json),
                ("threads".into(), Value::Num(report.threads as f64)),
                ("ring_dropped".into(), Value::Num(report.dropped as f64)),
            ])),
        ),
        ("tripwires".into(), tripwires_json),
        ("overhead".into(), overhead_json),
        (
            "benches".into(),
            Value::Obj(
                benches
                    .iter()
                    .map(|(k, _, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        ),
    ]));
    {
        let _probe = probe::span(probe::SpanKind::Export);
        let mut json = root.to_json();
        json.push('\n');
        std::fs::write("BENCH_report.json", json).expect("write BENCH_report.json");
    }
    println!("   wrote BENCH_report.json");

    // -- PERF.md ----------------------------------------------------------
    let mut md = String::new();
    let _ = writeln!(md, "# Corral performance report\n");
    let _ = writeln!(
        md,
        "Generated by `repro perfreport`: live `corral-probe` cells for the \
         fabric, planner, and engine/sweep hot paths, merged with every \
         `BENCH_*.json` in the working directory. Host wall-clock; only the \
         golden counters below are asserted.\n"
    );
    let _ = writeln!(md, "## Probe spans (live cells)\n");
    let _ = writeln!(md, "| span | count | total | p50 | p90 | p99 | max |");
    let _ = writeln!(md, "|---|---|---|---|---|---|---|");
    for s in &report.spans {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            s.label,
            s.count,
            fmt_dur(s.total_s),
            fmt_dur(s.p50_s),
            fmt_dur(s.p90_s),
            fmt_dur(s.p99_s),
            fmt_dur(s.max_s),
        );
    }
    let _ = writeln!(
        md,
        "\n{} thread(s) merged; {} span record(s) dropped by the rings.\n",
        report.threads, report.dropped
    );
    let _ = writeln!(md, "## Hot-path counters\n");
    let _ = writeln!(md, "| counter | value |");
    let _ = writeln!(md, "|---|---|");
    for &(label, v) in &report.counters {
        if v > 0 {
            let _ = writeln!(md, "| `{label}` | {v} |");
        }
    }
    let _ = writeln!(md, "\n## Regression tripwires\n");
    let _ = writeln!(md, "| tripwire | observed | golden | status |");
    let _ = writeln!(md, "|---|---|---|---|");
    for t in &tripwires {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} |",
            t.name,
            t.observed,
            t.golden,
            if t.ok() { "ok" } else { "**DRIFT**" },
        );
    }
    let _ = writeln!(
        md,
        "\n## Probe overhead\n\nPlanner large cell (256 jobs, 24 racks), \
         min of {OVERHEAD_REPEATS}: probes on {} vs off {} — \
         **{overhead_pct:+.1}%** (budget < 5%; informational, not asserted).\n",
        fmt_dur(on_s),
        fmt_dur(off_s),
    );
    let _ = writeln!(md, "## Bench files\n");
    if benches.is_empty() {
        let _ = writeln!(md, "_No `BENCH_*.json` found in the working directory._\n");
    }
    for (_, file, v) in &benches {
        bench_markdown(&mut md, file, v);
    }
    {
        let _probe = probe::span(probe::SpanKind::Export);
        std::fs::write("PERF.md", &md).expect("write PERF.md");
    }
    println!("   wrote PERF.md");

    probe::set_enabled(was_enabled);

    if !drift.is_empty() {
        panic!(
            "perfreport golden-counter drift (bless via the owning bench):\n  {}",
            drift.join("\n  ")
        );
    }
}
