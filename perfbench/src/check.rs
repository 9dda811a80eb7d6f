//! Output checks: report digests against shipped expectations, and the
//! attempted / failed operation count every run reports.

use std::fmt::Write as _;

use widening::report::Report;

/// Expected digests, one `workload corpus check digest` line each.
const EXPECTED: &str = include_str!("../expected_digests.txt");

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of an experiment's reports as rendered for a reader.
pub fn report_digest(reports: &[Report]) -> String {
    let mut text = String::new();
    for r in reports {
        writeln!(text, "{r}").expect("writing to a String cannot fail");
    }
    digest(text.as_bytes())
}

/// The shipped digest for `check` of `workload` on `corpus`, if any.
pub fn expected(workload: &str, corpus: &str, check: &str) -> Option<&'static str> {
    lookup(EXPECTED, workload, corpus, check)
}

fn lookup<'a>(table: &'a str, workload: &str, corpus: &str, check: &str) -> Option<&'a str> {
    table
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == workload && f[1] == corpus && f[2] == check)
        .map(|f| f[3])
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is explained on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Counts one digest check: `got` must equal the shipped digest.
    /// With `print` set, the digest line is written to stdout instead
    /// (for refreshing `expected_digests.txt`) and nothing is counted.
    pub fn digest(&mut self, print: bool, key: [&str; 3], got: &str) {
        let [workload, corpus, check] = key;
        if print {
            println!("{workload} {corpus} {check} {got}");
            return;
        }
        let want = expected(workload, corpus, check);
        self.record(want == Some(got), || match want {
            Some(want) => format!("{workload}/{corpus}/{check}: digest {got}, expected {want}"),
            None => format!("{workload}/{corpus}/{check}: no expected digest shipped"),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn changed_report_is_caught() {
        let mut r = Report::new("t").with_columns(["config", "speed-up"]);
        r.push_row(["4w2", "2.25"]);
        let good = report_digest(std::slice::from_ref(&r));
        let table = format!("# header\nw default fig3 {good}\n");
        assert_eq!(lookup(&table, "w", "default", "fig3"), Some(good.as_str()));

        let mut changed = r.clone();
        changed.rows[0][1] = "2.26".into();
        let mut noted = r.clone();
        noted.push_note("extra");
        for bad in [changed, noted] {
            assert_ne!(report_digest(&[bad]), good);
        }
        assert_eq!(lookup(&table, "w", "heldout", "fig3"), None);
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut t = Tally::default();
        t.record(true, String::new);
        t.record(false, || "boom".into());
        t.record(true, String::new);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(!t.correct());
    }

    #[test]
    fn missing_or_wrong_digest_fails() {
        let mut t = Tally::default();
        t.digest(false, ["no-such-workload", "default", "fig3"], "0");
        assert_eq!((t.attempted, t.failed), (1, 1));
        // Printing mode counts nothing.
        t.digest(true, ["w", "default", "fig3"], "0");
        assert_eq!(t.attempted, 1);
    }
}
