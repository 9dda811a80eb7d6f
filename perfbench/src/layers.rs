//! The traced run: per-layer self times and counts.
//!
//! The benchmark calls each layer's public entry point itself, in
//! dependency order over every `(loop × design point)` unit of the
//! workload's experiments: widening, then MII bounds, then the base
//! schedule, then the full compile. Each stage's inputs are memoized by
//! the time it runs, so each span is that layer's own time. The
//! experiments then run over the warm stores and their spans hold what
//! is left: aggregation, reporting, and (for `simulate`) execution.

use std::collections::BTreeMap;

use widening::cost::{CostModel, Technology};
use widening::experiments::Context;
use widening::ir::Loop;
use widening::machine::{Configuration, CycleModel};
use widening::pipeline::{PipelineError, PointSpec};
use widening::regalloc::{SpillOptions, SpillPolicy};
use widening::sched::Strategy;
use widening::sim::{run_reference, store_nodes, ReferenceRun, WideMachine, WideRun};
use widening::EvalOptions;

use crate::check::{digest, Tally};
use crate::spans::{layer_totals, quantile, self_times, Recorder};
use crate::workload::{check_experiment, context, make_loops, Checks, Corpus, Workload};

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
/// A traced run prints all of them; one a workload does not exercise
/// reads 0 and is named on stderr.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("widen.self_s", "s"),
    ("widen.calls", "count"),
    ("sched.mii_self_s", "s"),
    ("sched.mii_calls", "count"),
    ("sched.base_self_s", "s"),
    ("sched.base_calls", "count"),
    ("regalloc.rounds_self_s", "s"),
    ("regalloc.units", "count"),
    ("regalloc.unit_p50_ms", "ms"),
    ("regalloc.unit_p99_ms", "ms"),
    ("regalloc.unit_max_ms", "ms"),
    ("regalloc.top10_share", "ratio"),
    ("regalloc.failed_time_share", "ratio"),
    ("regalloc.pressure_failures", "count"),
    ("regalloc.spill_ops", "count"),
    ("pipeline.widen.runs", "count"),
    ("pipeline.widen.requests", "count"),
    ("pipeline.mii.runs", "count"),
    ("pipeline.mii.requests", "count"),
    ("pipeline.base_schedule.runs", "count"),
    ("pipeline.base_schedule.requests", "count"),
    ("pipeline.schedule.runs", "count"),
    ("pipeline.schedule.requests", "count"),
    ("pipeline.lower.runs", "count"),
    ("pipeline.lower.requests", "count"),
    ("pipeline.memo_hit_ratio", "ratio"),
    ("pipeline.resident_mib", "MiB"),
    ("lower.self_s", "s"),
    ("lower.calls", "count"),
    ("lower.insts", "count"),
    ("lower.exec_s", "s"),
    ("sim.interpret_s", "s"),
    ("sim.reference_s", "s"),
    ("sim.lowered_mops_per_s", "Mops/s"),
    ("sim.interpret_mops_per_s", "Mops/s"),
    ("sim.issued_ops", "count"),
    ("sim.cycles", "count"),
    ("core.fig2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig7_s", "s"),
    ("core.fig8a_s", "s"),
    ("core.fig8b_s", "s"),
    ("core.fig8c_s", "s"),
    ("core.fig8d_s", "s"),
    ("core.fig9_s", "s"),
    ("core.ablate_s", "s"),
    ("core.sweep_s", "s"),
    ("core.simulate_s", "s"),
    ("core.transients_s", "s"),
    ("obs.traced_wall_s", "s"),
    ("obs.trace_overhead", "s"),
    ("obs.unaccounted_s", "s"),
    ("obs.unattributed_stage_runs", "count"),
];

/// Span layer names (self time in ns is summed per layer).
const WIDEN: &str = "widen";
const MII: &str = "sched.mii";
const BASE: &str = "sched.base";
const UNIT: &str = "regalloc.unit";
const LOWER: &str = "lower";
const EXEC: &str = "lower.exec";
const INTERPRET: &str = "sim.interpret";
const REFERENCE: &str = "sim.reference";
const TRACED: &str = "traced";

/// Per-layer metric values, keyed by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The design points experiment `name` evaluates, mirroring the
/// experiment code. A point missed here shows up as
/// `obs.unattributed_stage_runs`, its time inside `core.<name>_s`.
pub fn experiment_specs(name: &str) -> Vec<PointSpec> {
    let cfg = |s: &str| -> Configuration { s.parse().expect("static configuration") };
    let mono = |x, y, z| Configuration::monolithic(x, y, z).expect("valid configuration");
    let plain = |c: Configuration, model| PointSpec::scheduled(&c, model, EvalOptions::default());
    let cost = CostModel::paper();
    let cost_aware = |cfgs: Vec<Configuration>| -> Vec<PointSpec> {
        let mut specs = vec![plain(mono(1, 1, 32), CycleModel::Cycles4)];
        specs.extend(cfgs.iter().map(|c| plain(*c, cost.cycle_model(c))));
        specs
    };
    let pairs = |factor: u32| {
        std::iter::successors(Some(factor), |x| (*x > 1).then_some(x / 2))
            .map(move |x| (x, factor / x))
    };
    let fig8 = |names: [&str; 4]| cost_aware(names.map(cfg).to_vec());
    match name {
        "fig2" => std::iter::once(1)
            .chain((1..=7).map(|k| 1 << k))
            .flat_map(pairs)
            .map(|(x, y)| PointSpec::peak(x, y, CycleModel::Cycles4))
            .collect(),
        "fig3" => {
            let mut specs = vec![plain(mono(1, 1, 256), CycleModel::Cycles4)];
            for (x, y) in [
                (2, 1),
                (1, 2),
                (4, 1),
                (2, 2),
                (1, 4),
                (8, 1),
                (4, 2),
                (2, 4),
                (1, 8),
            ] {
                for z in [32, 64, 128, 256] {
                    specs.push(plain(mono(x, y, z), CycleModel::Cycles4));
                }
            }
            specs
        }
        "fig7" => [2, 4, 8]
            .into_iter()
            .flat_map(pairs)
            .map(|(x, y)| plain(mono(x, y, 256), CycleModel::Cycles4))
            .collect(),
        "fig8a" => fig8(["1w1(32:1)", "1w1(64:1)", "1w1(128:1)", "1w1(256:1)"]),
        "fig8b" => fig8(["1w1(128:1)", "2w1(128:2)", "4w1(128:4)", "8w1(128:8)"]),
        "fig8c" => fig8(["1w1(128:1)", "1w2(128:1)", "1w4(128:1)", "1w8(128:1)"]),
        "fig8d" => fig8(["8w1(128:8)", "4w2(128:4)", "2w4(128:2)", "1w8(128:1)"]),
        "fig9" => cost_aware(
            Technology::ALL
                .iter()
                .flat_map(|t| cost.implementable_configurations(t, 16))
                .map(|p| p.config)
                .collect(),
        ),
        "ablate" => {
            let mut specs: Vec<PointSpec> = Strategy::ALL
                .iter()
                .map(|&strategy| {
                    let opts = EvalOptions {
                        strategy,
                        ..Default::default()
                    };
                    PointSpec::scheduled(&mono(4, 1, 64), CycleModel::Cycles4, opts)
                })
                .collect();
            specs.push(plain(mono(1, 1, 256), CycleModel::Cycles4));
            let policies = [
                SpillPolicy::SpillFirst,
                SpillPolicy::IncreaseIiOnly,
                SpillPolicy::Adaptive,
            ];
            for policy in policies {
                let opts = EvalOptions {
                    spill: SpillOptions {
                        policy,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                for (x, y, z) in [(4, 1, 32), (4, 2, 32), (4, 2, 64), (8, 1, 64)] {
                    specs.push(PointSpec::scheduled(
                        &mono(x, y, z),
                        CycleModel::Cycles4,
                        opts,
                    ));
                }
            }
            let latency = ["2w1(64:1)", "4w2(128:2)", "8w1(128:8)", "2w4(128:1)"].map(cfg);
            specs.extend(cost_aware(latency.to_vec()));
            specs.extend(latency.iter().map(|c| plain(*c, CycleModel::Cycles4)));
            specs
        }
        "sweep" => ["1w1", "2w2", "4w2"]
            .iter()
            .flat_map(|xy| [64, 128].map(|z| format!("{xy}({z}:1)")))
            .map(|s| plain(cfg(&s), CycleModel::Cycles4))
            .collect(),
        "simulate" | "transients" => sim_specs(),
        _ => Vec::new(),
    }
}

/// The design points of the simulation experiments.
fn sim_specs() -> Vec<PointSpec> {
    ["1w1(128:1)", "1w4(128:1)", "4w1(128:1)", "4w2(128:1)"]
        .iter()
        .map(|s| {
            let c: Configuration = s.parse().expect("static configuration");
            PointSpec::scheduled(&c, CycleModel::Cycles4, EvalOptions::default())
        })
        .collect()
}

/// Distinct design points of `w`'s experiments, first-use order.
fn workload_specs(w: Workload) -> Vec<PointSpec> {
    let mut out: Vec<PointSpec> = Vec::new();
    for spec in w.experiments().iter().flat_map(|e| experiment_specs(e)) {
        if !out.contains(&spec) {
            out.push(spec);
        }
    }
    out
}

/// Distinct values of `key` over `specs`, first-use order.
fn distinct<K: PartialEq>(specs: &[PointSpec], key: impl Fn(&PointSpec) -> K) -> Vec<PointSpec> {
    let mut out: Vec<PointSpec> = Vec::new();
    for s in specs {
        if !out.iter().any(|o| key(o) == key(s)) {
            out.push(*s);
        }
    }
    out
}

/// The `core.<experiment>_s` metric name of experiment `name`.
fn core_layer(name: &str) -> &'static str {
    let metric = format!("core.{name}_s");
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == metric)
        .expect("every experiment has a core metric")
        .0
}

/// The traced run of `w`. `untraced_wall` is the same run's untraced
/// wall time, for `obs.trace_overhead`.
pub fn traced(
    w: Workload,
    corpus: Corpus,
    seed: u64,
    untraced_wall: f64,
    checks: Checks,
    tally: &mut Tally,
) -> Metrics {
    let mut m: Metrics = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let mut rec = Recorder::new();
    let setup = rec.open("setup", None);
    let (loops, gen) = rec.time("workload.generate", setup, || make_loops(w, corpus, seed));
    m.insert("workload.generate_s", secs(gen));
    let specs = workload_specs(w);
    let ctx = context(loops.clone());
    rec.close(setup);

    let root = rec.open(TRACED, None);
    let p = ctx.eval.pipeline();
    let n = loops.len();
    for s in distinct(&specs, |s| s.width) {
        for li in 0..n {
            let _ = rec.time(WIDEN, root, || p.widened(li, s.width));
        }
    }
    for s in distinct(&specs, |s| (s.replication, s.width, s.model)) {
        for li in 0..n {
            let _ = rec.time(MII, root, || {
                p.mii_bounds(li, s.replication, s.width, s.model)
            });
        }
    }
    let scheduled: Vec<PointSpec> = specs
        .iter()
        .filter(|s| s.registers.is_some())
        .copied()
        .collect();
    for s in distinct(&scheduled, |s| {
        (s.replication, s.width, s.model, s.opts.strategy)
    }) {
        for li in 0..n {
            let _ = rec.time(BASE, root, || p.base_schedule(li, &s));
        }
    }
    let mut units: Vec<(u64, bool)> = Vec::new();
    let (mut pressure, mut spill_ops) = (0u64, 0u64);
    for s in &scheduled {
        for li in 0..n {
            let (out, ns) = rec.time(UNIT, root, || p.compile(li, s));
            let failed = matches!(out, Err(PipelineError::Pressure { .. }));
            pressure += u64::from(failed);
            spill_ops += out.map_or(0, |c| u64::from(c.spill_ops()));
            units.push((ns, failed));
        }
    }
    m.insert("regalloc.pressure_failures", pressure as f64);
    m.insert("regalloc.spill_ops", spill_ops as f64);
    // The stage counters the `sweep` report prints differ once the
    // layers ran first, so traced reports have digests of their own.
    let key = format!("{}+trace", w.name());
    let before = p.stage_counts().live_runs();
    for &name in w.experiments() {
        let (reports, _) = rec.time(core_layer(name), root, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                widening::experiments::run(name, &ctx)
            }))
        });
        check_experiment(name, reports.ok().flatten(), &key, checks, tally);
    }
    let unattributed = p.stage_counts().live_runs() - before;
    let traced_wall = secs(rec.close(root));
    if w == Workload::Simulate {
        simulate_probe(&ctx, &loops, &mut rec, &mut m, checks, tally);
    }
    stage_metrics(&ctx, &mut m);
    unit_metrics(&units, &mut m);

    let spans = rec.spans();
    for (layer, (ns, calls)) in layer_totals(spans) {
        let (time, count) = match layer {
            WIDEN => ("widen.self_s", Some("widen.calls")),
            MII => ("sched.mii_self_s", Some("sched.mii_calls")),
            BASE => ("sched.base_self_s", Some("sched.base_calls")),
            UNIT => ("regalloc.rounds_self_s", Some("regalloc.units")),
            LOWER => ("lower.self_s", Some("lower.calls")),
            EXEC => ("lower.exec_s", None),
            INTERPRET => ("sim.interpret_s", None),
            REFERENCE => ("sim.reference_s", None),
            l if l.starts_with("core.") => (l, None),
            _ => continue,
        };
        m.insert(time, secs(ns));
        if let Some(count) = count {
            m.insert(count, calls as f64);
        }
    }
    let unaccounted: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_none() && s.layer != "setup")
        .map(|(_, own)| own)
        .sum();
    let issued = m["sim.issued_ops"];
    for (rate, time) in [
        ("sim.lowered_mops_per_s", "lower.exec_s"),
        ("sim.interpret_mops_per_s", "sim.interpret_s"),
    ] {
        if m[time] > 0.0 {
            m.insert(rate, issued / m[time] / 1e6);
        }
    }
    m.insert("obs.traced_wall_s", traced_wall);
    m.insert("obs.trace_overhead", traced_wall - untraced_wall);
    m.insert("obs.unaccounted_s", secs(unaccounted));
    m.insert("obs.unattributed_stage_runs", unattributed as f64);
    m
}

fn stage_metrics(ctx: &Context, m: &mut Metrics) {
    let c = ctx.eval.pipeline().stage_counts();
    let requests = [
        ("pipeline.widen.requests", c.widen_requests),
        ("pipeline.mii.requests", c.mii_requests),
        ("pipeline.base_schedule.requests", c.base_schedule_requests),
        ("pipeline.schedule.requests", c.schedule_requests),
        ("pipeline.lower.requests", c.lower_requests),
    ];
    let runs = [
        ("pipeline.widen.runs", c.widen_runs),
        ("pipeline.mii.runs", c.mii_runs),
        ("pipeline.base_schedule.runs", c.base_schedule_runs),
        ("pipeline.schedule.runs", c.schedule_runs),
        ("pipeline.lower.runs", c.lower_runs),
    ];
    for (name, count) in requests.into_iter().chain(runs) {
        m.insert(name, count as f64);
    }
    let total: u64 = requests.iter().map(|r| r.1).sum();
    if total > 0 {
        m.insert("pipeline.memo_hit_ratio", c.hits() as f64 / total as f64);
    }
    m.insert(
        "pipeline.resident_mib",
        c.schedule_resident_bytes as f64 / f64::from(1 << 20),
    );
}

/// Distribution of per-unit compile times (`(ns, ended in pressure
/// failure)`).
fn unit_metrics(units: &[(u64, bool)], m: &mut Metrics) {
    let total: u64 = units.iter().map(|u| u.0).sum();
    if total == 0 {
        return;
    }
    let failed: u64 = units.iter().filter(|u| u.1).map(|u| u.0).sum();
    let mut times: Vec<u64> = units.iter().map(|u| u.0).collect();
    times.sort_unstable();
    let top10: u64 = times.iter().rev().take(10).sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    m.insert("regalloc.unit_p50_ms", ms(quantile(&times, 0.5)));
    m.insert("regalloc.unit_p99_ms", ms(quantile(&times, 0.99)));
    m.insert("regalloc.unit_max_ms", ms(*times.last().expect("nonempty")));
    m.insert("regalloc.top10_share", top10 as f64 / total as f64);
    m.insert("regalloc.failed_time_share", failed as f64 / total as f64);
}

/// The simulation layers, each timed on its own over the `simulate`
/// experiment's units at natural trip counts: lowering, lowered
/// execution, the cycle-level interpreter and the scalar reference.
/// Every executed unit must match the reference bitwise, and the
/// lowered run must equal the interpreter's; the exact cycle and
/// issued-operation totals are checked against their digest.
fn simulate_probe(
    ctx: &Context,
    loops: &[Loop],
    rec: &mut Recorder,
    m: &mut Metrics,
    checks: Checks,
    tally: &mut Tally,
) {
    let p = ctx.eval.pipeline();
    let probe = rec.open("probe", None);
    let (mut cycles, mut issued, mut insts) = (0u64, 0u64, 0u64);
    for spec in sim_specs() {
        for (li, l) in loops.iter().enumerate() {
            let compiled = match p.compile(li, &spec) {
                Ok(c) => c,
                Err(PipelineError::Pressure { .. }) => continue,
                Err(e) => {
                    tally.record(false, || format!("loop {} at {spec:?}: {e}", l.name()));
                    continue;
                }
            };
            let stage = compiled.scheduled().expect("scheduled point");
            let trip = l.trip_count();
            let (program, _) = rec.time(LOWER, probe, || p.lowered(li, &spec));
            let Ok(program) = program else {
                tally.record(false, || format!("loop {}: lowering failed", l.name()));
                continue;
            };
            insts += program.num_insts() as u64;
            let (lowered, _) = rec.time(EXEC, probe, || program.exec(trip));
            let (interp, _) = rec.time(INTERPRET, probe, || {
                WideMachine::new(l.ddg(), compiled.wide(), &stage.result, spec.model, trip).run()
            });
            let (reference, _) = rec.time(REFERENCE, probe, || run_reference(l.ddg(), trip));
            let ok = match &interp {
                Ok(run) => {
                    cycles += run.stats.cycles;
                    issued += run.stats.issued_ops;
                    run.bitwise_eq(&lowered) && matches_reference(l, &reference, run)
                }
                Err(_) => false,
            };
            tally.record(ok, || {
                format!(
                    "loop {} at {spec:?}: simulation diverged or failed",
                    l.name()
                )
            });
        }
    }
    rec.close(probe);
    let totals = format!("cycles={cycles} issued_ops={issued}");
    tally.digest(
        checks.print,
        ["simulate", checks.corpus, "sim.totals"],
        &digest(totals.as_bytes()),
    );
    m.insert("sim.cycles", cycles as f64);
    m.insert("sim.issued_ops", issued as f64);
    m.insert("lower.insts", insts as f64);
}

/// Bitwise agreement of every store region and every node checksum.
fn matches_reference(l: &Loop, reference: &ReferenceRun, run: &WideRun) -> bool {
    reference.checksums == run.checksums
        && store_nodes(l.ddg()).into_iter().all(|v| {
            let (want, got) = (reference.memory.region(v), run.memory.region(v));
            want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{name} missing or unit differs");
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn every_experiment_has_design_points() {
        for w in crate::workload::ALL {
            for e in w.experiments() {
                assert!(!experiment_specs(e).is_empty(), "{e}");
            }
        }
        // fig2: 1 + 2 + 3 + … + 8 pairs over factors 1 … 128.
        assert_eq!(experiment_specs("fig2").len(), 36);
        assert_eq!(experiment_specs("fig3").len(), 37);
    }

    #[test]
    fn stores_cover_every_experiment_unit() {
        // On a small corpus, the layer calls must leave the experiments
        // nothing to compile.
        let loops = widening::workload::corpus::generate(
            &widening::workload::corpus::CorpusSpec::small(6, 3),
        );
        for w in [Workload::PressureTail, Workload::PaperGrid] {
            let ctx = context(loops.clone());
            let p = ctx.eval.pipeline();
            for s in workload_specs(w) {
                for li in 0..loops.len() {
                    let _ = p.compile(li, &s);
                }
            }
            let before = p.stage_counts().live_runs();
            for &e in w.experiments() {
                assert!(widening::experiments::run(e, &ctx).is_some(), "{e}");
            }
            assert_eq!(p.stage_counts().live_runs(), before, "{}", w.name());
        }
    }
}
