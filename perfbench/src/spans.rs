//! In-memory span recording and self-time arithmetic.
//!
//! The traced run wraps each call it makes into a layer in a span. A
//! span's *self time* is its duration minus the part of its interval
//! that its children cover; children that overlap each other are
//! counted once (their union), so parallel children are never
//! subtracted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name the span's time is charged to.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`>= start`).
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("runs last under 584 years")
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            layer,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.duration()
    }

    /// Runs `f` inside a span of `layer` under `parent`; returns its
    /// result and the span's duration in ns.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(layer, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns, parallel to `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration() - covered(&mut kids))
        .collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per layer: (summed self time in ns, number of spans).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.layer).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by the nearest-rank rule;
/// 0 for an empty slice.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            layer,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two parallel children covering [10, 40) and [20, 50): their
        // union is 40 ns, not 30 + 30.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 30, 35),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span("root", None, 10, 20), span("a", Some(0), 0, 15)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("root", None, 0, 100),
            span("mid", Some(0), 0, 50),
            span("leaf", Some(1), 10, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"], (50, 1));
        assert_eq!(totals["leaf"], (30, 1));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None);
        let (v, _) = rec.time("child", root, || 7);
        rec.close(root);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
