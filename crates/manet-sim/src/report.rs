//! Results of simulation runs.
//!
//! [`RunReport`] captures everything one simulation run produced: per-event
//! reliability, per-node traffic and protocol counters, and the averages the
//! paper plots. [`ExperimentPoint`] aggregates many runs (different seeds) of
//! the same scenario into mean ± deviation summaries.

use netsim::TrafficCounters;
use pubsub::EventId;
use simkit::{OnlineStats, Summary};
use std::collections::BTreeMap;

/// The dissemination outcome of one published event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// The event.
    pub id: EventId,
    /// Index of the node that published it.
    pub publisher: usize,
    /// Number of processes subscribed to the event's topic (including the
    /// publisher when it is itself a subscriber).
    pub subscribers: usize,
    /// How many of those subscribers delivered the event to their application.
    pub delivered: usize,
}

impl EventOutcome {
    /// Delivered fraction among subscribers (1.0 when there are no subscribers,
    /// since nothing could be missed).
    pub fn reliability(&self) -> f64 {
        if self.subscribers == 0 {
            1.0
        } else {
            self.delivered as f64 / self.subscribers as f64
        }
    }
}

/// Per-node counters of one run, after warm-up subtraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Full events transmitted by this node.
    pub events_sent: u64,
    /// Protocol messages of any kind transmitted by this node.
    pub messages_sent: u64,
    /// Duplicate event copies received.
    pub duplicates: u64,
    /// Parasite events received.
    pub parasites: u64,
    /// Distinct events delivered to the application.
    pub delivered: u64,
    /// Radio traffic of this node.
    pub traffic: TrafficCounters,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario label.
    pub label: String,
    /// Protocol name.
    pub protocol: String,
    /// The seed this run used.
    pub seed: u64,
    /// Outcome of every published event.
    pub events: Vec<EventOutcome>,
    /// Per-node counters.
    pub nodes: Vec<NodeReport>,
}

impl RunReport {
    /// Mean reliability over all published events (1.0 when nothing was
    /// published).
    pub fn reliability(&self) -> f64 {
        if self.events.is_empty() {
            return 1.0;
        }
        self.events.iter().map(|e| e.reliability()).sum::<f64>() / self.events.len() as f64
    }

    /// Average number of full events sent per process.
    pub fn events_sent_per_process(&self) -> f64 {
        self.mean_over_nodes(|n| n.events_sent as f64)
    }

    /// Average number of duplicate events received per process.
    pub fn duplicates_per_process(&self) -> f64 {
        self.mean_over_nodes(|n| n.duplicates as f64)
    }

    /// Average number of parasite events received per process.
    pub fn parasites_per_process(&self) -> f64 {
        self.mean_over_nodes(|n| n.parasites as f64)
    }

    /// Average radio bandwidth used per process, in kilobytes (sent + received,
    /// including MAC overhead) — the quantity of the paper's Figure 17.
    pub fn bandwidth_kb_per_process(&self) -> f64 {
        self.mean_over_nodes(|n| n.traffic.total_bytes() as f64 / 1024.0)
    }

    fn mean_over_nodes<F: Fn(&NodeReport) -> f64>(&self, f: F) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(f).sum::<f64>() / self.nodes.len() as f64
    }
}

/// Aggregation of several [`RunReport`]s of the same scenario (one per seed).
#[derive(Debug, Clone, Default)]
pub struct ExperimentPoint {
    reliability: OnlineStats,
    events_sent: OnlineStats,
    duplicates: OnlineStats,
    parasites: OnlineStats,
    bandwidth_kb: OnlineStats,
    per_publisher_reliability: BTreeMap<usize, OnlineStats>,
}

impl ExperimentPoint {
    /// Creates an empty aggregation.
    pub fn new() -> Self {
        ExperimentPoint::default()
    }

    /// Adds one run.
    pub fn add(&mut self, report: &RunReport) {
        self.reliability.push(report.reliability());
        self.events_sent.push(report.events_sent_per_process());
        self.duplicates.push(report.duplicates_per_process());
        self.parasites.push(report.parasites_per_process());
        self.bandwidth_kb.push(report.bandwidth_kb_per_process());
        for event in &report.events {
            self.per_publisher_reliability
                .entry(event.publisher)
                .or_default()
                .push(event.reliability());
        }
    }

    /// Number of runs aggregated so far.
    pub fn runs(&self) -> u64 {
        self.reliability.count()
    }

    /// Mean ± deviation of the reliability.
    pub fn reliability(&self) -> Summary {
        self.reliability.summary()
    }

    /// Mean ± deviation of the events sent per process.
    pub fn events_sent(&self) -> Summary {
        self.events_sent.summary()
    }

    /// Mean ± deviation of the duplicates received per process.
    pub fn duplicates(&self) -> Summary {
        self.duplicates.summary()
    }

    /// Mean ± deviation of the parasite events received per process.
    pub fn parasites(&self) -> Summary {
        self.parasites.summary()
    }

    /// Mean ± deviation of the bandwidth per process in kilobytes.
    pub fn bandwidth_kb(&self) -> Summary {
        self.bandwidth_kb.summary()
    }

    /// The spread between the best- and worst-served publisher (max mean
    /// reliability minus min mean reliability across publishers) — the paper's
    /// Figure 15. Zero when fewer than two distinct publishers were observed.
    pub fn publisher_reliability_spread(&self) -> f64 {
        let means: Vec<f64> = self
            .per_publisher_reliability
            .values()
            .map(|s| s.mean())
            .collect();
        if means.len() < 2 {
            return 0.0;
        }
        let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub::ProcessId;

    fn outcome(publisher: usize, subscribers: usize, delivered: usize) -> EventOutcome {
        EventOutcome {
            id: EventId::new(ProcessId(publisher as u64), 0),
            publisher,
            subscribers,
            delivered,
        }
    }

    fn node(events_sent: u64, duplicates: u64, parasites: u64, bytes: u64) -> NodeReport {
        NodeReport {
            events_sent,
            messages_sent: events_sent,
            duplicates,
            parasites,
            delivered: 0,
            traffic: TrafficCounters {
                bytes_sent: bytes,
                ..TrafficCounters::default()
            },
        }
    }

    fn report(events: Vec<EventOutcome>, nodes: Vec<NodeReport>) -> RunReport {
        RunReport {
            label: "test".into(),
            protocol: "frugal".into(),
            seed: 1,
            events,
            nodes,
        }
    }

    #[test]
    fn reliability_is_delivered_over_subscribers() {
        assert_eq!(outcome(0, 100, 95).reliability(), 0.95);
        assert_eq!(outcome(0, 0, 0).reliability(), 1.0);
        let r = report(vec![outcome(0, 10, 10), outcome(1, 10, 5)], vec![]);
        assert_eq!(r.reliability(), 0.75);
        assert_eq!(report(vec![], vec![]).reliability(), 1.0);
    }

    #[test]
    fn per_process_averages() {
        let r = report(vec![], vec![node(4, 2, 6, 2048), node(0, 0, 0, 0)]);
        assert_eq!(r.events_sent_per_process(), 2.0);
        assert_eq!(r.duplicates_per_process(), 1.0);
        assert_eq!(r.parasites_per_process(), 3.0);
        assert_eq!(r.bandwidth_kb_per_process(), 1.0);
        let empty = report(vec![], vec![]);
        assert_eq!(empty.events_sent_per_process(), 0.0);
    }

    #[test]
    fn experiment_point_aggregates_runs() {
        let mut point = ExperimentPoint::new();
        point.add(&report(vec![outcome(0, 10, 8)], vec![node(1, 0, 0, 1024)]));
        point.add(&report(vec![outcome(0, 10, 10)], vec![node(3, 2, 4, 3072)]));
        assert_eq!(point.runs(), 2);
        assert!((point.reliability().mean - 0.9).abs() < 1e-12);
        assert!((point.events_sent().mean - 2.0).abs() < 1e-12);
        assert!((point.bandwidth_kb().mean - 2.0).abs() < 1e-12);
        assert_eq!(point.duplicates().count, 2);
    }

    #[test]
    fn publisher_spread_needs_two_publishers() {
        let mut point = ExperimentPoint::new();
        point.add(&report(vec![outcome(0, 10, 9)], vec![]));
        assert_eq!(point.publisher_reliability_spread(), 0.0);
        point.add(&report(vec![outcome(1, 10, 4)], vec![]));
        assert!((point.publisher_reliability_spread() - 0.5).abs() < 1e-12);
        // Adding a middling publisher does not change the max-min spread.
        point.add(&report(vec![outcome(2, 10, 7)], vec![]));
        assert!((point.publisher_reliability_spread() - 0.5).abs() < 1e-12);
    }
}
