//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, and the phase boundaries a run is cut into. Nothing here calls the
//! simulator.

/// The percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many samples must lie beyond a percentile before it may be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The median of `values` (any order, non-empty), averaging the two middle
/// samples of an even count.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail percentile chosen by the rule of reporting the highest percentile
/// that has at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when even the median has fewer than
    /// [`TAIL_MIN_BEYOND`] samples beyond it).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// Applies the tail rule to `values` (any order, non-empty).
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    let chosen = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: chosen,
        value: percentile(&sorted, chosen),
        samples: n,
    }
}

/// The simulated-time boundaries (ms) of a run's three phases: before the
/// first publication, while any event is valid, and after the last event
/// expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phases {
    /// The first publication instant (the end of the pre-publication phase).
    pub first_publication_ms: u64,
    /// The last expiry instant (the end of the dissemination phase).
    pub last_expiry_ms: u64,
}

impl Phases {
    /// Derives the phases from a publication plan of `(at_ms, validity_ms)`
    /// pairs; every boundary is capped at the run end `end_ms`. A plan without
    /// publications is one pre-publication phase.
    pub fn from_plan(publications: &[(u64, u64)], end_ms: u64) -> Phases {
        let first = publications.iter().map(|&(at, _)| at).min();
        let last = publications
            .iter()
            .map(|&(at, validity)| at.saturating_add(validity))
            .max();
        Phases {
            first_publication_ms: first.unwrap_or(end_ms).min(end_ms),
            last_expiry_ms: last.unwrap_or(end_ms).min(end_ms),
        }
    }

    /// Which phase a step ending at `deadline_ms` belongs to.
    pub fn of(&self, deadline_ms: u64) -> Phase {
        if deadline_ms <= self.first_publication_ms {
            Phase::Warmup
        } else if deadline_ms <= self.last_expiry_ms {
            Phase::Dissemination
        } else {
            Phase::Tail
        }
    }

    /// The step deadlines (ms) a traced run stops at: every mobility tick
    /// up to `end_ms`, plus the phase boundaries and the end itself, so that
    /// every step lies inside exactly one phase.
    pub fn step_deadlines(&self, tick_ms: u64, end_ms: u64) -> Vec<u64> {
        let mut deadlines: Vec<u64> = (1..)
            .map(|k| k * tick_ms.max(1))
            .take_while(|&t| t < end_ms)
            .collect();
        deadlines.extend([self.first_publication_ms, self.last_expiry_ms, end_ms]);
        deadlines.retain(|&t| t > 0);
        deadlines.sort_unstable();
        deadlines.dedup();
        deadlines
    }
}

/// One of the three phases of [`Phases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before (and including) the first publication.
    Warmup,
    /// While at least one event may still be valid.
    Dissemination,
    /// After the last event expired.
    Tail,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 90.0), 9.0);
        assert_eq!(percentile(&values, 99.0), 10.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values).percentile, 95.0);
        // 20 samples: the median leaves 10 beyond, p75 only 5.
        let values: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
        // Too few samples for any percentile: fall back to the median.
        let t = tail(&[7.0, 5.0, 6.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 6.0, 3));
    }

    #[test]
    fn phases_follow_the_publication_plan() {
        // Two overlapping events: the dissemination phase runs from the
        // first publication to the later of the two expiries.
        let phases = Phases::from_plan(&[(12_000, 5_000), (10_000, 4_000)], 30_000);
        assert_eq!(phases.first_publication_ms, 10_000);
        assert_eq!(phases.last_expiry_ms, 17_000);
        assert_eq!(phases.of(10_000), Phase::Warmup);
        assert_eq!(phases.of(10_500), Phase::Dissemination);
        assert_eq!(phases.of(17_000), Phase::Dissemination);
        assert_eq!(phases.of(17_500), Phase::Tail);
        // Expiry past the end is capped at the end; no plan means no events.
        let capped = Phases::from_plan(&[(600_000, 180_000)], 700_000);
        assert_eq!(capped.last_expiry_ms, 700_000);
        let none = Phases::from_plan(&[], 5_000);
        assert_eq!(
            (none.first_publication_ms, none.last_expiry_ms),
            (5_000, 5_000)
        );
    }

    #[test]
    fn step_deadlines_cover_ticks_and_boundaries() {
        let phases = Phases::from_plan(&[(1_250, 1_000)], 3_100);
        assert_eq!(
            phases.step_deadlines(500, 3_100),
            vec![500, 1_000, 1_250, 1_500, 2_000, 2_250, 2_500, 3_000, 3_100]
        );
        // Boundaries on tick multiples are not duplicated.
        let aligned = Phases::from_plan(&[(1_000, 1_000)], 2_000);
        assert_eq!(
            aligned.step_deadlines(500, 2_000),
            vec![500, 1_000, 1_500, 2_000]
        );
    }
}
