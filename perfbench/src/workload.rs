//! The benchmark's workloads, their inputs, and the untraced end-to-end
//! measurement.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use widening::experiments::{self, Context};
use widening::ir::Loop;
use widening::report::Report;
use widening::workload::corpus::{self, CorpusSpec};
use widening::Evaluator;

use crate::check::{digest, report_digest, Tally};
use crate::pace;
use crate::spans::quantile;

/// One named set of inputs and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig9`, `fig3`, `ablate` on 120 loops: the spill round loop's
    /// heavy tail.
    PressureTail,
    /// The register-ample figures on the 1180-loop paper corpus.
    PaperGrid,
    /// The simulation experiments on the paper corpus.
    Simulate,
}

/// Which generator seed the corpus comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The seed the reproduction itself uses.
    Default,
    /// A second seed, kept for re-checking a claim on inputs that were
    /// not used while the claimed change was written.
    HeldOut,
}

/// Every workload, in documentation order.
pub const ALL: [Workload; 3] = [
    Workload::PressureTail,
    Workload::PaperGrid,
    Workload::Simulate,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PressureTail => "pressure-tail",
            Workload::PaperGrid => "paper-grid",
            Workload::Simulate => "simulate",
        }
    }

    /// The experiments whose wall time is `wall_s`, in run order.
    pub fn experiments(self) -> &'static [&'static str] {
        match self {
            Workload::PressureTail => &["fig9", "fig3", "ablate"],
            Workload::PaperGrid => &["fig2", "fig7", "fig8a", "fig8b", "fig8c", "fig8d", "sweep"],
            Workload::Simulate => &["simulate", "transients"],
        }
    }

    /// How many shards the untraced run splits the workload's loops
    /// into. Each shard's experiments take up to about a second, so that
    /// a shard is timed many times in a run (see [`measure`]).
    pub fn shards(self) -> usize {
        8
    }

    /// The workload's loops are every `stride`-th loop of its generated
    /// corpus: 40 of the 120-loop small corpus, 590 or 148 of the
    /// 1180-loop paper corpus. This keeps one pass over them at 2 to 3 s,
    /// so that a run of 35 s times every shard 7 to 10 times.
    pub fn stride(self) -> usize {
        match self {
            Workload::PressureTail => 3,
            Workload::PaperGrid => 2,
            Workload::Simulate => 8,
        }
    }

    fn corpus_spec(self, corpus: Corpus) -> CorpusSpec {
        match (self, corpus) {
            (Workload::PressureTail, Corpus::Default) => CorpusSpec::small(120, 1998),
            (Workload::PressureTail, Corpus::HeldOut) => CorpusSpec::small(120, 2027),
            (_, Corpus::Default) => CorpusSpec::default(),
            (_, Corpus::HeldOut) => CorpusSpec {
                seed: 2027,
                ..CorpusSpec::default()
            },
        }
    }
}

impl Corpus {
    pub fn parse(name: &str) -> Option<Corpus> {
        [Corpus::Default, Corpus::HeldOut]
            .into_iter()
            .find(|c| c.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Corpus::Default => "default",
            Corpus::HeldOut => "heldout",
        }
    }
}

/// The loops handed to the program: the workload's loops (see
/// [`Workload::stride`]), shuffled by `seed`. The shuffle changes every
/// per-loop index the stack sees but neither the set of `(loop × design
/// point)` units nor any rendered result, so run cost stays comparable
/// across seeds and one digest checks every seed.
pub fn make_loops(w: Workload, corpus: Corpus, seed: u64) -> Vec<Loop> {
    let mut loops = workload_loops(w, corpus);
    shuffle(&mut loops, seed);
    loops
}

/// Every [`Workload::stride`]-th loop of the workload's corpus, in
/// generation order.
fn workload_loops(w: Workload, corpus: Corpus) -> Vec<Loop> {
    corpus::generate(&w.corpus_spec(corpus))
        .into_iter()
        .step_by(w.stride())
        .collect()
}

/// The workload's loops dealt into [`Workload::shards`] shards in
/// generation order (loop `i` goes to shard `i mod shards`), each then
/// shuffled by `seed`. Which loops share a shard does not depend on the
/// seed, so each shard's results, and their digests, do not either.
pub fn make_shards(w: Workload, corpus: Corpus, seed: u64) -> Vec<Vec<Loop>> {
    let mut shards = vec![Vec::new(); w.shards()];
    for (i, l) in workload_loops(w, corpus).into_iter().enumerate() {
        shards[i % w.shards()].push(l);
    }
    for (k, shard) in shards.iter_mut().enumerate() {
        shuffle(shard, seed.wrapping_add(k as u64));
    }
    shards
}

/// Fisher–Yates under SplitMix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// An experiment context over `loops` on one worker thread.
pub fn context(loops: Vec<Loop>) -> Context {
    Context::over(Evaluator::new(loops).with_threads(1))
}

/// What a run checks its outputs against.
#[derive(Debug, Clone, Copy)]
pub struct Checks<'a> {
    /// Corpus name in the digest table.
    pub corpus: &'a str,
    /// Print digests instead of checking them.
    pub print: bool,
}

/// One experiment's reports, or `None` if it panicked or is unknown.
pub type Outcome = Option<Vec<Report>>;

/// Runs `w`'s experiments on `ctx`. Returns the host seconds spent
/// inside the experiment calls and each experiment's outcome.
pub fn run_timed(ctx: &Context, w: Workload) -> (f64, Vec<Outcome>) {
    let mut seconds = 0.0;
    let mut outcomes = Vec::new();
    for &name in w.experiments() {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| experiments::run(name, ctx)));
        seconds += t.elapsed().as_secs_f64();
        outcomes.push(out.ok().flatten());
    }
    (seconds, outcomes)
}

/// Runs `w`'s experiments on `ctx`, checking each one's reports against
/// the digests shipped under `digest_key`. Returns the host seconds spent
/// inside the experiment calls.
pub fn run_experiments(
    ctx: &Context,
    w: Workload,
    digest_key: &str,
    checks: Checks,
    tally: &mut Tally,
) -> f64 {
    let (seconds, outcomes) = run_timed(ctx, w);
    for (&name, out) in w.experiments().iter().zip(outcomes) {
        check_experiment(name, out, digest_key, checks, tally);
    }
    seconds
}

/// Checks one experiment's outcome (`None`: it panicked or is unknown).
pub fn check_experiment(
    name: &str,
    reports: Option<Vec<Report>>,
    digest_key: &str,
    checks: Checks,
    tally: &mut Tally,
) {
    let Some(reports) = reports else {
        tally.record(false, || format!("{name}: experiment panicked"));
        return;
    };
    if name == "simulate" {
        check_simulation_rows(&reports[0], tally);
    }
    let got = report_digest(&reports);
    tally.digest(checks.print, [digest_key, checks.corpus, name], &got);
}

/// Checks one experiment over every shard of a sharded round: each
/// shard's outcome is checked on its own (a panic, `simulate`'s rows),
/// and the shards' report digests, in shard order, are digested into
/// the one checked under `<workload>+shards`.
pub fn check_sharded(
    w: Workload,
    name: &str,
    shards: Vec<Outcome>,
    checks: Checks,
    tally: &mut Tally,
) {
    let mut joined = String::new();
    for (k, reports) in shards.into_iter().enumerate() {
        let Some(reports) = reports else {
            tally.record(false, || {
                format!("{name}: experiment panicked on shard {k}")
            });
            return;
        };
        if name == "simulate" {
            check_simulation_rows(&reports[0], tally);
        }
        joined.push_str(&report_digest(&reports));
        joined.push('\n');
    }
    let key = format!("{}+shards", w.name());
    tally.digest(
        checks.print,
        [&key, checks.corpus, name],
        &digest(joined.as_bytes()),
    );
}

/// Every row of the `simulate` report: each simulated loop is one
/// operation; a loop that diverged from the scalar reference fails.
fn check_simulation_rows(report: &Report, tally: &mut Tally) {
    let col = |row: &[String], name: &str| -> Option<u64> {
        let i = report.columns.iter().position(|c| c == name)?;
        row.get(i)?.parse().ok()
    };
    for row in &report.rows {
        match (
            col(row, "loops"),
            col(row, "validated"),
            col(row, "divergent"),
            col(row, "failed"),
        ) {
            (Some(loops), Some(valid), Some(divergent), Some(failed)) => {
                tally.attempted += loops;
                tally.failed += divergent;
                tally.record(valid + divergent + failed == loops, || {
                    format!("simulate row {row:?}: outcomes do not add up")
                });
            }
            _ => tally.record(false, || format!("simulate row {row:?} is malformed")),
        }
    }
}

/// Host-time samples of one untraced run.
#[derive(Debug)]
pub struct Samples {
    /// Seconds per set-up.
    pub setup: Vec<f64>,
    /// Seconds per shard (outer) per round (inner).
    pub shard: Vec<Vec<f64>>,
    /// Seconds of the reference kernel run right after each shard, in
    /// the same layout.
    pub pace: Vec<Vec<f64>>,
    /// `peak_rss_mib`: the process's peak resident set after the warm-up
    /// round, before the reference kernel first runs.
    pub peak_rss_mib: f64,
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Each row's fastest entry.
fn row_minima(rows: &[Vec<f64>]) -> impl Iterator<Item = f64> + '_ {
    rows.iter()
        .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
}

impl Samples {
    /// The sum over shards of each shard's fastest round, in host seconds.
    pub fn raw_wall(&self) -> f64 {
        row_minima(&self.shard).sum()
    }

    /// The lower decile of the run's set-ups, in host seconds.
    pub fn raw_setup(&self) -> f64 {
        lower_decile(&self.setup)
    }

    /// The host's pace over the run: the mean over shards of the fastest
    /// reference kernel run after each shard, the same estimator as
    /// [`Samples::raw_wall`] takes over the shards' times.
    pub fn pace(&self) -> f64 {
        row_minima(&self.pace).sum::<f64>() / self.pace.len() as f64
    }

    /// `wall_s`: [`Samples::raw_wall`] scaled to the reference pace.
    pub fn wall(&self) -> f64 {
        self.raw_wall() * pace::REFERENCE_PACE_S / self.pace()
    }

    /// `setup_s`: [`Samples::raw_setup`] scaled to the reference pace.
    pub fn setup(&self) -> f64 {
        self.raw_setup() * pace::REFERENCE_PACE_S / self.pace()
    }
}

/// The 0.1-quantile of `values` by the nearest-rank rule.
fn lower_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.1)
}

/// Host seconds of back-to-back set-ups after each shard. A set-up takes
/// 0.5 to 8 ms, so a run holds hundreds to thousands of samples, spread
/// over its whole length.
const SETUP_SLICE_SECONDS: f64 = 0.03;

/// The shuffle seed of the warm-up round, whatever `--seed` is.
const WARM_UP_SEED: u64 = 0;

/// Fewest rounds an untraced run makes, so every shard has a second
/// sample to take the faster of.
const MIN_ROUNDS: usize = 2;

/// The untraced run. After a warm-up round it makes timed rounds over the
/// shards, each shard on a fresh evaluator, with a slice of set-ups and
/// then one run of the reference kernel after every shard. It makes at
/// least [`MIN_ROUNDS`] timed rounds,
/// and more while another round as long as the last one ends within
/// `seconds` of the run's start.
///
/// On a shared 2-vCPU KVM guest (Intel Xeon), execution slows by up to
/// 1.45× for spells of one second to minutes; see the noise record in
/// `README.md`. Keeping each shard's fastest round, and the lower decile
/// of set-ups, leaves out the spells that end within the run; scaling by
/// the reference kernel's pace (see [`crate::pace`]) takes out those that
/// cover it.
pub fn measure(
    w: Workload,
    corpus: Corpus,
    seed: u64,
    seconds: f64,
    checks: Checks,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples {
        setup: Vec::new(),
        shard: vec![Vec::new(); w.shards()],
        pace: vec![Vec::new(); w.shards()],
        peak_rss_mib: 0.0,
    };
    let setup_slice = |setup: &mut Vec<f64>| {
        let start = Instant::now();
        while setup.is_empty() || start.elapsed().as_secs_f64() < SETUP_SLICE_SECONDS {
            let t = Instant::now();
            let ctx = context(make_loops(w, corpus, seed));
            setup.push(t.elapsed().as_secs_f64());
            drop(ctx);
        }
    };
    let start = Instant::now();
    let shards = make_shards(w, corpus, seed);
    // An untimed warm-up round with one set-up. The peak resident set is
    // read after it, before the reference kernel adds its few MiB. Loop
    // order moves the peak by up to 8% on `simulate`, so the warm-up
    // runs every seed's shards in one order.
    for loops in make_shards(w, corpus, WARM_UP_SEED) {
        run_timed(&context(loops), w);
    }
    drop(context(make_loops(w, corpus, seed)));
    s.peak_rss_mib = peak_rss_mib();
    let mut rounds = 0;
    loop {
        let mut outcomes: Vec<Vec<Outcome>> = vec![Vec::new(); w.experiments().len()];
        let round = Instant::now();
        for (k, loops) in shards.iter().enumerate() {
            let ctx = context(loops.clone());
            let (t, outs) = run_timed(&ctx, w);
            drop(ctx);
            s.shard[k].push(t);
            setup_slice(&mut s.setup);
            s.pace[k].push(pace::sample());
            for (e, out) in outs.into_iter().enumerate() {
                outcomes[e].push(out);
            }
        }
        for (&name, shard_outcomes) in w.experiments().iter().zip(outcomes) {
            check_sharded(w, name, shard_outcomes, checks, tally);
        }
        rounds += 1;
        let round = round.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() + round > seconds {
            return s;
        }
    }
}

/// One untraced pass over the whole corpus on one evaluator: a traced
/// run's reference for `obs.trace_overhead`. Returns its host seconds.
pub fn reference_pass(
    w: Workload,
    corpus: Corpus,
    seed: u64,
    checks: Checks,
    tally: &mut Tally,
) -> f64 {
    let ctx = context(make_loops(w, corpus, seed));
    run_experiments(&ctx, w, w.name(), checks, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn simulate_rows_count_loops_and_divergences() {
        let mut r = Report::new("sim").with_columns([
            "config",
            "loops",
            "validated",
            "divergent",
            "failed",
        ]);
        r.push_row(["1w1", "10", "9", "0", "1"]);
        r.push_row(["4w2", "10", "7", "2", "1"]);
        let mut t = Tally::default();
        check_simulation_rows(&r, &mut t);
        // 20 loops + one sum check per row; the 2 divergent loops fail.
        assert_eq!((t.attempted, t.failed), (22, 2));
    }

    #[test]
    fn a_panicking_experiment_fails() {
        let mut t = Tally::default();
        let checks = Checks {
            corpus: "default",
            print: false,
        };
        check_experiment("fig3", None, "pressure-tail", checks, &mut t);
        assert_eq!((t.attempted, t.failed), (1, 1));
    }

    #[test]
    fn wall_keeps_each_shards_fastest_round() {
        let s = Samples {
            setup: vec![],
            shard: vec![vec![1.0, 1.4], vec![2.9, 2.0], vec![0.5]],
            pace: vec![vec![0.1]; 3],
            peak_rss_mib: 0.0,
        };
        assert_eq!(s.raw_wall(), 3.5);
    }

    #[test]
    fn setup_is_the_lower_decile() {
        let s = Samples {
            // Nearest rank: the 2nd of 20.
            setup: (0..20).rev().map(f64::from).collect(),
            shard: vec![],
            pace: vec![],
            peak_rss_mib: 0.0,
        };
        assert_eq!(s.raw_setup(), 1.0);
        assert_eq!(lower_decile(&[5.0]), 5.0);
    }

    #[test]
    fn a_run_at_half_the_reference_pace_is_scaled_down_by_half() {
        let slow = 2.0 * pace::REFERENCE_PACE_S;
        let s = Samples {
            setup: vec![0.4],
            shard: vec![vec![3.0, 2.0], vec![1.0]],
            // Shard 0's fastest kernel run is the slow one: each shard
            // keeps its fastest, and the pace is their mean.
            pace: vec![vec![slow, 3.0 * pace::REFERENCE_PACE_S], vec![slow]],
            peak_rss_mib: 0.0,
        };
        assert!((s.pace() - slow).abs() < 1e-12);
        assert!((s.wall() - 1.5).abs() < 1e-12);
        assert!((s.setup() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn shard_membership_does_not_depend_on_the_seed() {
        let names = |seed| -> Vec<Vec<String>> {
            make_shards(Workload::PressureTail, Corpus::Default, seed)
                .iter()
                .map(|shard| {
                    let mut n: Vec<String> = shard.iter().map(|l| l.name().to_string()).collect();
                    n.sort();
                    n
                })
                .collect()
        };
        let a = names(1);
        assert_eq!(a.len(), Workload::PressureTail.shards());
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 40);
        assert_eq!(a, names(2));
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Corpus::parse("heldout"), Some(Corpus::HeldOut));
        assert_eq!(Workload::parse("nope"), None);
    }
}
