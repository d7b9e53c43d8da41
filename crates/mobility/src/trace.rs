//! Mobility trace recording and replay.
//!
//! A [`TraceRecorder`] samples the positions produced by any
//! [`MobilityModel`]; the resulting [`MobilityTrace`] can be replayed later
//! with [`TraceReplay`], which itself implements [`MobilityModel`]. Traces make
//! it possible to compare dissemination protocols on *identical* node movements
//! (the frugality experiments of Figures 17–20 compare four protocols under the
//! same mobility), and to write deterministic regression tests.

use crate::model::MobilityModel;
use crate::point::Point;
use simkit::{SimDuration, SimRng, SimTime};

/// One sampled position of one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Virtual time of the sample.
    pub time: SimTime,
    /// Position at that time.
    pub position: Point,
    /// Instantaneous speed at that time, in m/s.
    pub speed: f64,
}

/// A time-ordered list of position samples for one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MobilityTrace {
    samples: Vec<TraceSample>,
}

impl MobilityTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        MobilityTrace::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous sample (traces are
    /// append-only and time ordered).
    pub fn push(&mut self, time: SimTime, position: Point, speed: f64) {
        if let Some(last) = self.samples.last() {
            assert!(time >= last.time, "trace samples must be time-ordered");
        }
        self.samples.push(TraceSample {
            time,
            position,
            speed,
        });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over the samples in time order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter()
    }

    /// The position at `time`, linearly interpolated between the surrounding
    /// samples; clamped to the first/last sample outside the recorded range.
    /// Returns `None` for an empty trace.
    pub fn position_at(&self, time: SimTime) -> Option<Point> {
        let samples = &self.samples;
        if samples.is_empty() {
            return None;
        }
        if time <= samples[0].time {
            return Some(samples[0].position);
        }
        if time >= samples[samples.len() - 1].time {
            return Some(samples[samples.len() - 1].position);
        }
        let idx = samples.partition_point(|s| s.time <= time);
        let before = &samples[idx - 1];
        let after = &samples[idx];
        let span = (after.time - before.time).as_millis() as f64;
        if span == 0.0 {
            return Some(after.position);
        }
        let t = (time - before.time).as_millis() as f64 / span;
        Some(before.position.lerp(after.position, t))
    }

    /// Total distance covered by the trace, in meters.
    pub fn total_distance(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| w[0].position.distance(w[1].position))
            .sum()
    }
}

/// Records the movement of an inner mobility model while forwarding it.
#[derive(Debug)]
pub struct TraceRecorder<M> {
    inner: M,
    trace: MobilityTrace,
    now: SimTime,
}

impl<M: MobilityModel> TraceRecorder<M> {
    /// Wraps `inner`, recording its initial position as the first sample.
    pub fn new(inner: M) -> Self {
        let mut trace = MobilityTrace::new();
        trace.push(SimTime::ZERO, inner.position(), inner.speed());
        TraceRecorder {
            inner,
            trace,
            now: SimTime::ZERO,
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &MobilityTrace {
        &self.trace
    }

    /// Stops recording and returns the trace.
    pub fn into_trace(self) -> MobilityTrace {
        self.trace
    }
}

impl<M: MobilityModel> MobilityModel for TraceRecorder<M> {
    fn position(&self) -> Point {
        self.inner.position()
    }

    fn speed(&self) -> f64 {
        self.inner.speed()
    }

    fn advance(&mut self, dt: SimDuration, rng: &mut SimRng) {
        self.inner.advance(dt, rng);
        self.now += dt;
        self.trace
            .push(self.now, self.inner.position(), self.inner.speed());
    }
}

/// Replays a recorded [`MobilityTrace`] as a mobility model.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: MobilityTrace,
    now: SimTime,
}

impl TraceReplay {
    /// Creates a replay positioned at the start of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: MobilityTrace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        TraceReplay {
            trace,
            now: SimTime::ZERO,
        }
    }
}

impl MobilityModel for TraceReplay {
    fn position(&self) -> Point {
        self.trace
            .position_at(self.now)
            .expect("trace verified non-empty at construction")
    }

    fn speed(&self) -> f64 {
        // Report the speed of the most recent sample at or before `now`.
        let idx = self.trace.samples.partition_point(|s| s.time <= self.now);
        let idx = idx.saturating_sub(1);
        self.trace.samples[idx].speed
    }

    fn advance(&mut self, dt: SimDuration, _rng: &mut SimRng) {
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Stationary;
    use crate::point::Area;
    use crate::random_waypoint::{RandomWaypoint, RandomWaypointConfig};

    #[test]
    fn trace_push_and_interpolate() {
        let mut trace = MobilityTrace::new();
        trace.push(SimTime::ZERO, Point::new(0.0, 0.0), 1.0);
        trace.push(SimTime::from_secs(10), Point::new(100.0, 0.0), 1.0);
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.position_at(SimTime::from_secs(5)),
            Some(Point::new(50.0, 0.0))
        );
        assert_eq!(trace.position_at(SimTime::ZERO), Some(Point::new(0.0, 0.0)));
        // Clamping outside the range.
        assert_eq!(
            trace.position_at(SimTime::from_secs(99)),
            Some(Point::new(100.0, 0.0))
        );
        assert_eq!(trace.total_distance(), 100.0);
    }

    #[test]
    fn empty_trace_has_no_position() {
        assert_eq!(MobilityTrace::new().position_at(SimTime::ZERO), None);
        assert!(MobilityTrace::new().is_empty());
    }

    #[test]
    #[should_panic]
    fn trace_rejects_time_travel() {
        let mut trace = MobilityTrace::new();
        trace.push(SimTime::from_secs(5), Point::ORIGIN, 0.0);
        trace.push(SimTime::from_secs(1), Point::ORIGIN, 0.0);
    }

    #[test]
    fn recorder_captures_stationary_node() {
        let mut rng = SimRng::seed_from(1);
        let mut rec = TraceRecorder::new(Stationary::new(Point::new(5.0, 5.0)));
        for _ in 0..10 {
            rec.advance(SimDuration::from_secs(1), &mut rng);
        }
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 11);
        assert_eq!(trace.total_distance(), 0.0);
    }

    #[test]
    fn replay_matches_recording_at_sample_points() {
        let mut rng = SimRng::seed_from(77);
        let config =
            RandomWaypointConfig::new(Area::square(500.0), 5.0, 15.0, SimDuration::from_secs(1));
        let node = RandomWaypoint::new(config, &mut rng);
        let mut rec = TraceRecorder::new(node);
        let dt = SimDuration::from_millis(250);
        let mut recorded_positions = vec![rec.position()];
        for _ in 0..200 {
            rec.advance(dt, &mut rng);
            recorded_positions.push(rec.position());
        }
        let trace = rec.into_trace();

        let mut replay = TraceReplay::new(trace);
        let mut replay_rng = SimRng::seed_from(0); // replay ignores the RNG
        assert_eq!(replay.position(), recorded_positions[0]);
        for expected in recorded_positions.iter().skip(1) {
            replay.advance(dt, &mut replay_rng);
            let got = replay.position();
            assert!(
                got.distance(*expected) < 1e-6,
                "replay diverged: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn replay_interpolates_between_samples() {
        let mut trace = MobilityTrace::new();
        trace.push(SimTime::ZERO, Point::new(0.0, 0.0), 2.0);
        trace.push(SimTime::from_secs(2), Point::new(4.0, 0.0), 2.0);
        let mut replay = TraceReplay::new(trace);
        let mut rng = SimRng::seed_from(0);
        replay.advance(SimDuration::from_secs(1), &mut rng);
        assert_eq!(replay.position(), Point::new(2.0, 0.0));
        assert_eq!(replay.speed(), 2.0);
    }

    #[test]
    #[should_panic]
    fn replay_rejects_empty_trace() {
        let _ = TraceReplay::new(MobilityTrace::new());
    }
}
