//! Percentile, SLO and rate-search helpers.
//!
//! Everything here is pure so the rules that decide a benchmark figure
//! are unit-tested on their own:
//!
//! * [`tail_percentile`] — the highest percentile of a fixed ladder that
//!   still has at least [`MIN_BEYOND`] samples beyond it;
//! * [`judge_stage`] — whether one offered-rate stage met the latency SLO
//!   without a growing backlog and with the generator on schedule;
//! * [`RateSearch`] — the `max_rps_at_slo` search over offered rates.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n >= 1` samples. The
/// epsilon keeps `0.999 * 10_000` from rounding up past 9,990.
fn rank(n: usize, q: f64) -> usize {
    let exact = (q / 100.0) * n as f64;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest percentile on [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median, p90 and the best-supported tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// The tail percentile reported (see [`tail_percentile`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Digest {
    /// Digests `samples` (any order). `None` when there are too few
    /// samples to support even the median.
    pub fn of(samples: &[f64]) -> Option<Digest> {
        let tail_q = tail_percentile(samples.len())?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Digest {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            tail_q,
            tail: percentile_sorted(&sorted, tail_q),
        })
    }
}

/// Median of a sample (any order); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 50.0)
}

/// The service-level objective one offered-rate stage is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Latency limit on the stage's p99, milliseconds.
    pub p99_ms: f64,
    /// A send later than this behind its due time counts as late.
    pub late_ms: f64,
    /// Share of sends that may be late before the generator is judged
    /// to have lost pace.
    pub max_late_share: f64,
}

/// The limit `max_rps_at_slo` is defined against.
pub const SLO: Slo = Slo {
    p99_ms: 25.0,
    late_ms: 10.0,
    max_late_share: 0.01,
};

/// Late sends always forgiven: the host may deschedule the generator for
/// a few milliseconds now and then, which says nothing about its pace.
const LATE_SENDS_FORGIVEN: usize = 2;

/// What one offered-rate stage measured, as the judge needs it.
#[derive(Debug, Clone, Default)]
pub struct StageOutcome {
    /// Requests due in the stage's schedule.
    pub planned: usize,
    /// Requests actually sent (the sender stops early once the in-flight
    /// cap is hit).
    pub sent: usize,
    /// Requests that failed (error reply, wrong reply or no reply).
    pub failed: usize,
    /// Latency from due time to reply, ms, for every answered request.
    pub latencies_ms: Vec<f64>,
    /// How late each send left behind its due time, ms.
    pub lags_ms: Vec<f64>,
    /// Requests in flight sampled at evenly spaced points of the stage.
    pub in_flight: Vec<usize>,
}

/// Why a stage failed the SLO; empty when it passed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Failure reasons, in the order checked.
    pub reasons: Vec<&'static str>,
}

impl Verdict {
    /// Whether the stage passed.
    pub fn passed(&self) -> bool {
        self.reasons.is_empty()
    }
}

/// Whether the in-flight count grew over the stage by more than
/// `allowance` requests (a queue that the server does not drain).
pub fn backlog_grew(in_flight: &[usize], allowance: usize) -> bool {
    match (in_flight.first(), in_flight.last()) {
        (Some(&first), Some(&last)) => last > first + allowance,
        _ => false,
    }
}

/// Whether the generator kept to its schedule: at most
/// `slo.max_late_share` of sends (or [`LATE_SENDS_FORGIVEN`], whichever is
/// more) left more than `slo.late_ms` late.
pub fn generator_kept_pace(lags_ms: &[f64], slo: &Slo) -> bool {
    let late = lags_ms.iter().filter(|&&l| l > slo.late_ms).count();
    late <= LATE_SENDS_FORGIVEN || late as f64 <= slo.max_late_share * lags_ms.len() as f64
}

/// Judges one stage offered at `rate` requests/s against `slo`.
///
/// A stage fails when any request failed or was never sent, when its p99
/// exceeds the limit, when the backlog grew by more than the requests
/// one SLO interval of arrivals brings (plus slack for Poisson bursts),
/// or when the generator fell behind its schedule.
pub fn judge_stage(outcome: &StageOutcome, rate: f64, slo: &Slo) -> Verdict {
    let mut reasons = Vec::new();
    if outcome.sent < outcome.planned {
        reasons.push("stopped early: in-flight cap reached");
    }
    if outcome.failed > 0 {
        reasons.push("failed requests");
    }
    if outcome.latencies_ms.is_empty() {
        reasons.push("no answered requests");
    } else {
        let mut sorted = outcome.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if percentile_sorted(&sorted, 99.0) > slo.p99_ms {
            reasons.push("p99 above the limit");
        }
    }
    let allowance = (rate * slo.p99_ms / 1000.0).ceil() as usize + 4;
    if backlog_grew(&outcome.in_flight, allowance) {
        reasons.push("backlog grew");
    }
    if !generator_kept_pace(&outcome.lags_ms, slo) {
        reasons.push("generator fell behind");
    }
    Verdict { reasons }
}

/// One judged stage, as the rate search keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePoint {
    /// Offered rate, requests/s.
    pub offered: f64,
    /// The stage's p99, ms (`None` without answered requests).
    pub p99_ms: Option<f64>,
    /// Whether the stage met the SLO.
    pub passed: bool,
}

/// The `max_rps_at_slo` search: offered rates grow by `growth` from
/// `start` while stages pass, then the interval between the highest pass
/// and the lowest failure above it is bisected geometrically until the
/// stage budget runs out.
#[derive(Debug, Clone)]
pub struct RateSearch {
    growth: f64,
    points: Vec<StagePoint>,
    next: f64,
    stages_left: usize,
}

impl RateSearch {
    /// A search that first offers `start` and may run `stages` stages.
    pub fn new(start: f64, growth: f64, stages: usize) -> RateSearch {
        RateSearch {
            growth,
            points: Vec::new(),
            next: start,
            stages_left: stages,
        }
    }

    /// Records a stage run outside the search (the latency phase at the
    /// nominal rate) without spending the stage budget.
    pub fn seed(&mut self, point: StagePoint) {
        self.record(point);
    }

    /// The next offered rate to try, or `None` when the budget is spent.
    pub fn next_rate(&self) -> Option<f64> {
        (self.stages_left > 0).then_some(self.next)
    }

    /// Records the outcome of the stage offered at [`RateSearch::next_rate`].
    pub fn report(&mut self, point: StagePoint) {
        self.stages_left = self.stages_left.saturating_sub(1);
        self.record(point);
    }

    fn record(&mut self, point: StagePoint) {
        self.points.push(point);
        let best = self.best_offered();
        let lowest_fail = self
            .points
            .iter()
            .filter(|p| !p.passed && best.is_none_or(|b| p.offered > b))
            .map(|p| p.offered)
            .fold(None, |m: Option<f64>, r| Some(m.map_or(r, |m| m.min(r))));
        self.next = match (best, lowest_fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * self.growth,
            (None, Some(hi)) => hi / self.growth,
            (None, None) => self.next,
        };
    }

    /// The highest passing offered rate: `max_rps_at_slo`.
    pub fn best_offered(&self) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.passed)
            .map(|p| p.offered)
            .reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(2_000), Some(99.5));
        assert_eq!(tail_percentile(1_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 99, 100, 101, 999, 1000, 1200, 5000] {
            let q = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn digest_reports_the_supported_tail() {
        let samples: Vec<f64> = (0..1200).rev().map(f64::from).collect();
        let d = Digest::of(&samples).unwrap();
        assert_eq!(d.n, 1200);
        assert_eq!(d.tail_q, 99.0);
        assert_eq!(d.p50, 599.0);
        assert_eq!(d.p90, 1079.0);
        assert_eq!(d.tail, 1187.0);
        assert!(Digest::of(&samples[..5]).is_none());
    }

    fn stage(latency: f64, n: usize) -> StageOutcome {
        StageOutcome {
            planned: n,
            sent: n,
            failed: 0,
            latencies_ms: vec![latency; n],
            lags_ms: vec![0.1; n],
            in_flight: vec![1, 2, 1, 2],
        }
    }

    #[test]
    fn judge_passes_a_clean_stage_and_names_each_failure() {
        assert!(judge_stage(&stage(6.0, 400), 200.0, &SLO).passed());

        let slow = stage(30.0, 400);
        assert_eq!(
            judge_stage(&slow, 200.0, &SLO).reasons,
            ["p99 above the limit"]
        );

        let mut grew = stage(6.0, 400);
        grew.in_flight = vec![1, 5, 9, 20];
        assert_eq!(judge_stage(&grew, 200.0, &SLO).reasons, ["backlog grew"]);
        grew.in_flight = vec![1, 5, 9, 10];
        assert!(judge_stage(&grew, 200.0, &SLO).passed(), "within allowance");

        let mut lagging = stage(6.0, 400);
        for lag in lagging.lags_ms.iter_mut().take(5) {
            *lag = 12.0;
        }
        assert_eq!(
            judge_stage(&lagging, 200.0, &SLO).reasons,
            ["generator fell behind"]
        );
        lagging.lags_ms[..3].fill(0.0);
        assert!(judge_stage(&lagging, 200.0, &SLO).passed(), "2 late of 400");
        let mut short = stage(6.0, 50);
        short.lags_ms[..2].fill(30.0);
        assert!(
            judge_stage(&short, 200.0, &SLO).passed(),
            "2 late sends forgiven"
        );

        let mut cut = stage(6.0, 400);
        cut.sent = 300;
        cut.failed = 1;
        assert_eq!(
            judge_stage(&cut, 200.0, &SLO).reasons,
            ["stopped early: in-flight cap reached", "failed requests"]
        );
    }

    #[test]
    fn backlog_and_pace_checks_handle_edges() {
        assert!(!backlog_grew(&[], 0));
        assert!(!backlog_grew(&[7], 0));
        assert!(!backlog_grew(&[9, 3], 0));
        assert!(backlog_grew(&[0, 1], 0));
        assert!(generator_kept_pace(&[], &SLO));
    }

    /// Drives the search against a server whose p99 crosses the SLO at
    /// `capacity` (p99 grows linearly with the offered rate).
    fn search(capacity: f64, stages: usize) -> RateSearch {
        let point = |offered: f64| StagePoint {
            offered,
            p99_ms: Some(SLO.p99_ms * offered / capacity),
            passed: offered <= capacity,
        };
        let mut s = RateSearch::new(200.0, 2.0, stages);
        s.seed(point(100.0));
        while let Some(rate) = s.next_rate() {
            s.report(point(rate));
        }
        s
    }

    #[test]
    fn rate_search_brackets_then_bisects() {
        let best = search(260.0, 8).best_offered().unwrap();
        assert!(best <= 260.0 && best > 255.0, "{best}");
        let best = search(5_000.0, 10).best_offered().unwrap();
        assert!(best <= 5_000.0 && best > 4_500.0, "{best}");
        // Below the seeded nominal rate the search walks down.
        let best = search(60.0, 8).best_offered().unwrap();
        assert!(best <= 60.0 && best > 55.0, "{best}");
        assert!(search(1.0, 3).best_offered().is_none());
    }
}
