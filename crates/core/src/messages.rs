//! Protocol messages exchanged over the broadcast medium.
//!
//! The paper's algorithm uses three kinds of one-hop broadcasts:
//!
//! 1. **heartbeats** carrying the sender's identifier, subscriptions and
//!    (optionally) current speed — neighborhood detection;
//! 2. **event-identifier lists** — so that neighbors learn what each other
//!    already holds and only missing events get transmitted;
//! 3. **event bundles** carrying full events plus the list of neighbors the
//!    sender believes will receive them — dissemination.
//!
//! Message sizes follow the paper's accounting: 50-byte heartbeats, 128-bit
//! event identifiers and 400-byte events (plus a small fixed header).

use crate::config::ProtocolConfig;
use pubsub::{Event, EventId, ProcessId, SubscriptionSet};

/// A protocol message broadcast to the one-hop neighborhood.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Periodic neighborhood-detection beacon.
    Heartbeat {
        /// The sending process.
        from: ProcessId,
        /// Its current subscriptions.
        subscriptions: SubscriptionSet,
        /// Its current speed in m/s, if the speed optimization is enabled.
        speed: Option<f64>,
    },
    /// The identifiers of the (still valid) events the sender holds that are of
    /// interest to the neighbor(s) that just appeared.
    EventIds {
        /// The sending process.
        from: ProcessId,
        /// Identifiers of the events the sender holds.
        ids: Vec<EventId>,
    },
    /// A bundle of full events, sent after a back-off period.
    Events {
        /// The sending process.
        from: ProcessId,
        /// The events themselves.
        events: Vec<Event>,
        /// The neighbors the sender believes are hearing this bundle; receivers
        /// use it to update their own neighborhood tables ("p2 heard the events
        /// that p1 sent for p3").
        recipients: Vec<ProcessId>,
    },
}

impl Message {
    /// The process that sent this message.
    pub fn sender(&self) -> ProcessId {
        match self {
            Message::Heartbeat { from, .. }
            | Message::EventIds { from, .. }
            | Message::Events { from, .. } => *from,
        }
    }

    /// Size of this message on the wire in bytes, following the paper's
    /// accounting rules (50-byte heartbeats, 16-byte event ids, payload-sized
    /// events) plus the configured per-message header.
    pub fn wire_size_bytes(&self, config: &ProtocolConfig) -> usize {
        match self {
            Message::Heartbeat { .. } => config.heartbeat_size_bytes,
            Message::EventIds { ids, .. } => {
                config.message_header_bytes + ids.len() * EventId::WIRE_SIZE_BYTES
            }
            Message::Events {
                events, recipients, ..
            } => {
                config.message_header_bytes
                    + events
                        .iter()
                        .map(|e| e.payload_bytes + EventId::WIRE_SIZE_BYTES)
                        .sum::<usize>()
                    + recipients.len() * 8
            }
        }
    }

    /// Number of full events carried by this message (zero for heartbeats and
    /// id lists). This is what the "events sent per process" metric counts.
    pub fn event_count(&self) -> usize {
        match self {
            Message::Events { events, .. } => events.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub::Topic;
    use simkit::{SimDuration, SimTime};

    fn config() -> ProtocolConfig {
        ProtocolConfig::paper_default()
    }

    fn event(seq: u64) -> Event {
        Event::new(
            EventId::new(ProcessId(1), seq),
            Topic::root().child("T0"),
            SimTime::ZERO,
            SimDuration::from_secs(60),
            Event::PAPER_PAYLOAD_BYTES,
        )
    }

    #[test]
    fn sender_is_exposed_for_all_variants() {
        let hb = Message::Heartbeat {
            from: ProcessId(3),
            subscriptions: SubscriptionSet::new(),
            speed: Some(10.0),
        };
        let ids = Message::EventIds {
            from: ProcessId(4),
            ids: vec![],
        };
        let events = Message::Events {
            from: ProcessId(5),
            events: vec![],
            recipients: vec![],
        };
        assert_eq!(hb.sender(), ProcessId(3));
        assert_eq!(ids.sender(), ProcessId(4));
        assert_eq!(events.sender(), ProcessId(5));
    }

    #[test]
    fn heartbeat_size_matches_paper() {
        let hb = Message::Heartbeat {
            from: ProcessId(1),
            subscriptions: SubscriptionSet::single(Topic::root().child("a")),
            speed: None,
        };
        assert_eq!(hb.wire_size_bytes(&config()), 50);
    }

    #[test]
    fn id_list_size_scales_with_128_bit_ids() {
        let cfg = config();
        let empty = Message::EventIds {
            from: ProcessId(1),
            ids: vec![],
        };
        let three = Message::EventIds {
            from: ProcessId(1),
            ids: (0..3).map(|s| EventId::new(ProcessId(1), s)).collect(),
        };
        assert_eq!(empty.wire_size_bytes(&cfg), cfg.message_header_bytes);
        assert_eq!(
            three.wire_size_bytes(&cfg) - empty.wire_size_bytes(&cfg),
            3 * 16
        );
    }

    #[test]
    fn event_bundle_size_counts_payload_and_recipients() {
        let cfg = config();
        let bundle = Message::Events {
            from: ProcessId(1),
            events: vec![event(0), event(1)],
            recipients: vec![ProcessId(2), ProcessId(3), ProcessId(4)],
        };
        let expected = cfg.message_header_bytes + 2 * (400 + 16) + 3 * 8;
        assert_eq!(bundle.wire_size_bytes(&cfg), expected);
        assert_eq!(bundle.event_count(), 2);
    }

    #[test]
    fn non_event_messages_carry_zero_events() {
        let hb = Message::Heartbeat {
            from: ProcessId(1),
            subscriptions: SubscriptionSet::new(),
            speed: None,
        };
        assert_eq!(hb.event_count(), 0);
        let ids = Message::EventIds {
            from: ProcessId(1),
            ids: vec![EventId::new(ProcessId(1), 0)],
        };
        assert_eq!(ids.event_count(), 0);
    }
}
