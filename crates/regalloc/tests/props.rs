//! Property tests for lifetimes, allocation bounds and the spill engine.

use proptest::prelude::*;
use widening_ir::{Ddg, NodeId};
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{
    allocate, allocate_in, lifetimes, lifetimes_into, max_lives, schedule_with_registers,
    AllocScratch, Lifetime, PressureResult, RegallocError, SpillOptions, SpillPolicy,
};
use widening_sched::{
    MiiBounds, ModuloScheduler, SchedScratch, Schedule, SchedulerOptions, Strategy as SchedStrategy,
};
use widening_transform::widen;
use widening_workload::corpus::{generate, CorpusSpec};

/// The `Adaptive` policy the long way: both pure policies run to
/// completion through the public API, then the spill-first result wins
/// if it succeeded at an II no larger than the II-increase result; when
/// both fail, the spill-first error is reported.
fn adaptive_reference(ddg: &Ddg, cfg: &Configuration) -> Result<PressureResult, RegallocError> {
    let run = |policy| {
        schedule_with_registers(
            ddg,
            cfg,
            CycleModel::Cycles4,
            &SchedulerOptions::default(),
            &SpillOptions {
                policy,
                ..SpillOptions::default()
            },
        )
    };
    let spill = run(SpillPolicy::SpillFirst);
    if matches!(&spill, Ok(r) if r.rounds == 1) {
        return spill;
    }
    match (spill, run(SpillPolicy::IncreaseIiOnly)) {
        (Ok(a), Ok(b)) => Ok(if a.schedule.ii() <= b.schedule.ii() {
            a
        } else {
            b
        }),
        (Ok(a), Err(_)) => Ok(a),
        (Err(_), Ok(b)) => Ok(b),
        (Err(a), Err(_)) => Err(a),
    }
}

/// The `IncreaseIiOnly` policy the long way: fresh scheduler calls at
/// a rising minimum II, each allocated in full, so a failure reports
/// the exact best requirement seen.
fn increase_ii_reference(ddg: &Ddg, cfg: &Configuration) -> Result<(Schedule, u32), RegallocError> {
    let scheduler = ModuloScheduler::new(*cfg, CycleModel::Cycles4);
    let mut min_ii = 1;
    let mut best = u32::MAX;
    for round in 1..=SpillOptions::default().max_rounds {
        let schedule = scheduler.schedule_with_min_ii(ddg, min_ii)?;
        let lts = lifetimes(ddg, &schedule, CycleModel::Cycles4);
        let needed = allocate(&lts, schedule.ii()).registers_used();
        if needed <= cfg.registers() {
            return Ok((schedule, round));
        }
        best = best.min(needed);
        min_ii = schedule.ii() + 1;
    }
    Err(RegallocError::Pressure {
        needed: best,
        available: cfg.registers(),
    })
}

fn arb_lifetimes() -> impl Strategy<Value = (Vec<Lifetime>, u32)> {
    (
        1u32..24,
        proptest::collection::vec((0u32..60, 1u32..40), 1..40),
    )
        .prop_map(|(ii, raw)| {
            let lts = raw
                .into_iter()
                .enumerate()
                .map(|(i, (start, len))| Lifetime {
                    def: NodeId(i as u32),
                    start,
                    end: start + len,
                })
                .collect();
            (lts, ii)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The clique bound is a hard floor; Lam's per-value expansion
    /// (power-of-two rounded) is a hard ceiling.
    #[test]
    fn allocation_between_bounds((lts, ii) in arb_lifetimes()) {
        let a = allocate(&lts, ii);
        prop_assert_eq!(a.max_lives(), max_lives(&lts, ii));
        prop_assert!(a.registers_used() >= a.max_lives());
        let lam: u32 = lts
            .iter()
            .map(|lt| lt.concurrent_instances(ii).max(1).next_power_of_two())
            .sum();
        prop_assert!(a.registers_used() <= lam);
    }

    /// The assignment covers one entry per (lifetime, kernel copy) and
    /// never names a register outside the allocation.
    #[test]
    fn assignment_is_complete((lts, ii) in arb_lifetimes()) {
        let a = allocate(&lts, ii);
        prop_assert_eq!(
            a.assignment().len(),
            lts.len() * a.kernel_unroll() as usize
        );
        for &(lifetime, register) in a.assignment() {
            prop_assert!((lifetime as usize) < lts.len());
            prop_assert!(register < a.registers_used());
        }
    }

    /// MaxLives is monotone: growing any lifetime cannot reduce it.
    #[test]
    fn max_lives_monotone((lts, ii) in arb_lifetimes(), extra in 1u32..10) {
        let before = max_lives(&lts, ii);
        let grown: Vec<Lifetime> = lts
            .iter()
            .map(|lt| Lifetime { def: lt.def, start: lt.start, end: lt.end + extra })
            .collect();
        prop_assert!(max_lives(&grown, ii) >= before);
    }

    /// A larger II never increases the instance count of a lifetime.
    #[test]
    fn instances_monotone_in_ii((lts, ii) in arb_lifetimes()) {
        for lt in &lts {
            prop_assert!(lt.concurrent_instances(ii + 1) <= lt.concurrent_instances(ii));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat-table hot paths are drop-in: for random DDGs × machine
    /// configs × strategies, scheduling and allocating through one warm,
    /// repeatedly reused scratch arena produces bitwise-identical
    /// results (issue cycles, `registers_used`, the dense location
    /// table) to the fresh-scratch convenience entry points.
    #[test]
    fn warm_scratch_matches_fresh(
        seed in 0u64..5000,
        x in 0u32..3,
        strat in 0usize..3,
    ) {
        let strategy = [SchedStrategy::Hrms, SchedStrategy::Ims, SchedStrategy::Asap][strat];
        let opts = SchedulerOptions { strategy, ..SchedulerOptions::default() };
        let cfg = Configuration::monolithic(1 << x, 2, 256).expect("valid");
        let model = CycleModel::Cycles4;
        let scheduler = ModuloScheduler::with_options(cfg, model, opts);
        // One arena across every loop: later loops must not see state
        // leaked from earlier ones.
        let mut sched_scratch = SchedScratch::new();
        let mut alloc_scratch = AllocScratch::new();
        let mut lts_buf = Vec::new();
        for l in generate(&CorpusSpec::small(4, seed)) {
            let bounds = MiiBounds::compute(l.ddg(), &cfg, model);
            let fresh = scheduler.schedule_with_bounds(l.ddg(), &bounds);
            let warm = scheduler.schedule_with(l.ddg(), &bounds, 1, &mut sched_scratch);
            match (fresh, warm) {
                (Ok(f), Ok(w)) => {
                    prop_assert_eq!(f.ii(), w.ii());
                    prop_assert_eq!(f.times(), w.times());
                    let f_lts = lifetimes(l.ddg(), &f, model);
                    lifetimes_into(l.ddg(), &w, model, &mut lts_buf);
                    prop_assert_eq!(&f_lts, &lts_buf);
                    let f_alloc = allocate(&f_lts, f.ii());
                    let w_alloc = allocate_in(&lts_buf, w.ii(), &mut alloc_scratch);
                    prop_assert_eq!(f_alloc, w_alloc);
                }
                (Err(_), Err(_)) => {}
                (f, w) => {
                    return Err(TestCaseError::fail(format!(
                        "fresh/warm disagree on feasibility: {f:?} vs {w:?}"
                    )));
                }
            }
        }
    }

    /// The spill engine (which reuses its scratch arenas *across
    /// rounds* internally) is deterministic end to end: repeated runs
    /// agree on issue cycles, the location table and the spill rewrite.
    #[test]
    fn spill_engine_is_deterministic(seed in 0u64..5000, z in 0usize..2) {
        let regs = [32u32, 64][z];
        let cfg = Configuration::monolithic(4, 1, regs).expect("valid");
        for l in generate(&CorpusSpec::small(3, seed)) {
            let run = || schedule_with_registers(
                l.ddg(),
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions::default(),
            );
            match (run(), run()) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.schedule.times(), b.schedule.times());
                    prop_assert_eq!(a.allocation, b.allocation);
                    prop_assert_eq!(a.lifetimes, b.lifetimes);
                    prop_assert_eq!(a.spills, b.spills);
                    prop_assert_eq!(
                        (a.spill_stores, a.spill_loads, a.rounds),
                        (b.spill_stores, b.spill_loads, b.rounds)
                    );
                }
                (Err(_), Err(_)) => {}
                _ => return Err(TestCaseError::fail("nondeterministic outcome")),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: whatever corpus loop and machine we draw, a
    /// successful pressure result always fits the register file, and its
    /// schedule is verified by construction.
    #[test]
    fn pressure_results_fit_the_file(seed in 0u64..5000, x in 0u32..3, z in 0usize..3) {
        let loops = generate(&CorpusSpec::small(3, seed));
        let regs = [32u32, 64, 128][z];
        let cfg = Configuration::monolithic(1 << x, 1, regs).expect("valid");
        for l in &loops {
            match schedule_with_registers(
                l.ddg(),
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions::default(),
            ) {
                Ok(r) => {
                    prop_assert!(r.allocation.registers_used() <= regs);
                    prop_assert!(r.ddg.num_nodes() >= l.ddg().num_nodes());
                }
                Err(widening_regalloc::RegallocError::Pressure { needed, available }) => {
                    prop_assert!(needed > available);
                    prop_assert_eq!(available, regs);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The production `Adaptive` run (II increase first, capped
    /// spill-first run, MaxLives verdicts) equals the exhaustive
    /// reference on widened corpus loops at register-starved points:
    /// the same schedule, allocation, graph, spills and round count, or
    /// the same error. The standalone II-increase run (prepared-table
    /// reuse across II bumps) matches its own reference, down to the
    /// `needed` of a failure.
    #[test]
    fn adaptive_matches_exhaustive_reference(
        seed in 0u64..5000,
        y in 0usize..2,
        z in 0usize..2,
    ) {
        let width = [8u32, 16][y];
        let cfg = Configuration::monolithic(1, width, [32u32, 64][z]).expect("valid");
        for l in generate(&CorpusSpec::small(3, seed)) {
            let wide = widen(l.ddg(), width);
            let got = schedule_with_registers(
                wide.ddg(),
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions::default(),
            );
            // The standalone II-increase run keeps its exact `needed`.
            let stretch = schedule_with_registers(
                wide.ddg(),
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions {
                    policy: SpillPolicy::IncreaseIiOnly,
                    ..SpillOptions::default()
                },
            );
            match (stretch, increase_ii_reference(wide.ddg(), &cfg)) {
                (Ok(a), Ok((schedule, rounds))) => {
                    prop_assert_eq!((a.schedule, a.rounds), (schedule, rounds));
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "II-increase outcomes differ: {:?} vs {:?}",
                        a.map(|r| r.schedule.ii()),
                        b.map(|(s, _)| s.ii())
                    )));
                }
            }
            match (got, adaptive_reference(wide.ddg(), &cfg)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.schedule, b.schedule);
                    prop_assert_eq!(a.allocation, b.allocation);
                    prop_assert_eq!(a.ddg, b.ddg);
                    prop_assert_eq!(a.lifetimes, b.lifetimes);
                    prop_assert_eq!(a.spills, b.spills);
                    prop_assert_eq!(
                        (a.spill_stores, a.spill_loads, a.rounds),
                        (b.spill_stores, b.spill_loads, b.rounds)
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "outcomes differ: {:?} vs {:?}",
                        a.map(|r| r.schedule.ii()),
                        b.map(|r| r.schedule.ii())
                    )));
                }
            }
        }
    }
}
