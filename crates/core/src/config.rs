//! Protocol configuration.
//!
//! [`ProtocolConfig`] gathers every tunable of the paper's algorithm (its
//! Figure 4 plus the values fixed in Section 5.1): the default heartbeat delay,
//! the `x`, `HB2BO` and `HB2NGC` factors, the heartbeat bounds, the event-table
//! capacity and the wire sizes used for bandwidth accounting.

use simkit::SimDuration;

/// Configuration of the frugal dissemination protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Default heartbeat delay used before any neighbor speed information is
    /// available. The paper's Figure 4 sets 15 000 ms.
    pub hb_delay_default: SimDuration,
    /// `x`: the numerator of the adaptive heartbeat delay `x / averageSpeed`.
    /// The paper sets it to 40 (roughly the propagation radius in meters
    /// divided by 10).
    pub x: f64,
    /// `HB2BO`: the factor by which the heartbeat delay is divided to obtain
    /// the back-off delay. The paper sets 2.
    pub hb2bo: f64,
    /// `HB2NGC`: the factor by which the heartbeat delay is multiplied to set
    /// the neighborhood garbage-collection delay. The paper sets 2.5.
    pub hb2ngc: f64,
    /// Upper bound on the heartbeat delay (heartbeats are sent at least this
    /// often). 1 s in the random-waypoint experiments; varied 1–5 s in Fig. 13.
    pub hb_upper_bound: SimDuration,
    /// Lower bound on the heartbeat delay, protecting against pathological
    /// speeds producing a heartbeat storm.
    pub hb_lower_bound: SimDuration,
    /// Maximum number of events the event table can hold before the
    /// garbage-collection policy of Eq. 1 must evict one.
    pub event_table_capacity: usize,
    /// Whether heartbeats carry the sender's current speed (the paper's
    /// optional optimization enabling the adaptive heartbeat period).
    pub adapt_to_speed: bool,
    /// Maximum fraction by which the back-off delay is stretched, using a
    /// deterministic per-process factor in `[1, 1 + bo_jitter_fraction)`.
    ///
    /// The paper's duplicate suppression relies on one process answering first
    /// and the others overhearing its bundle before their own back-off expires;
    /// when every contender computes exactly the same `HBDelay / (HB2BO · n)`
    /// the suppression never gets a chance (in the paper's testbed the 802.11
    /// contention window provides the required spread). Setting this to 0
    /// disables the jitter and is measured in the ablation study.
    pub bo_jitter_fraction: f64,
    /// How many recently departed neighbors the neighborhood table remembers
    /// (together with the events they were known to hold), so a neighbor that
    /// comes back into range is not mistaken for an empty-handed newcomer.
    /// Zero disables the memory and reproduces the paper's exact table.
    pub departed_memory_capacity: usize,
    /// Wire size of one heartbeat in bytes (50 in the paper's experiments).
    pub heartbeat_size_bytes: usize,
    /// Fixed per-message header size in bytes (sender id, message type,
    /// counts), used for bandwidth accounting of id lists and event bundles.
    pub message_header_bytes: usize,
}

impl ProtocolConfig {
    /// The configuration used throughout the paper's evaluation (Section 5.1):
    /// `x = 40`, `HB2BO = 2`, `HB2NGC = 2.5`, heartbeat upper bound 1 s,
    /// heartbeat size 50 bytes.
    pub fn paper_default() -> Self {
        ProtocolConfig {
            hb_delay_default: SimDuration::from_millis(15_000),
            x: 40.0,
            hb2bo: 2.0,
            hb2ngc: 2.5,
            hb_upper_bound: SimDuration::from_secs(1),
            hb_lower_bound: SimDuration::from_millis(100),
            event_table_capacity: 1024,
            adapt_to_speed: true,
            bo_jitter_fraction: 1.0,
            departed_memory_capacity: 128,
            heartbeat_size_bytes: 50,
            message_header_bytes: 8,
        }
    }

    /// Same as [`ProtocolConfig::paper_default`] but with a different heartbeat
    /// upper bound, the knob varied by the paper's Figure 13.
    pub fn with_hb_upper_bound(mut self, bound: SimDuration) -> Self {
        self.hb_upper_bound = bound;
        self
    }

    /// Same configuration with a different event-table capacity, the knob that
    /// exercises the garbage-collection policy of Eq. 1.
    pub fn with_event_table_capacity(mut self, capacity: usize) -> Self {
        self.event_table_capacity = capacity;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.x <= 0.0 || !self.x.is_finite() {
            return Err(format!("x must be positive and finite, got {}", self.x));
        }
        if self.hb2bo <= 0.0 || !self.hb2bo.is_finite() {
            return Err(format!(
                "HB2BO must be positive and finite, got {}",
                self.hb2bo
            ));
        }
        if self.hb2ngc <= 0.0 || !self.hb2ngc.is_finite() {
            return Err(format!(
                "HB2NGC must be positive and finite, got {}",
                self.hb2ngc
            ));
        }
        if self.hb_lower_bound > self.hb_upper_bound {
            return Err(format!(
                "heartbeat lower bound {} exceeds upper bound {}",
                self.hb_lower_bound, self.hb_upper_bound
            ));
        }
        if self.hb_upper_bound.is_zero() {
            return Err("heartbeat upper bound must be positive".to_owned());
        }
        if self.event_table_capacity == 0 {
            return Err("event table capacity must be at least 1".to_owned());
        }
        if self.bo_jitter_fraction < 0.0 || !self.bo_jitter_fraction.is_finite() {
            return Err(format!(
                "back-off jitter fraction must be non-negative and finite, got {}",
                self.bo_jitter_fraction
            ));
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5_1() {
        let cfg = ProtocolConfig::paper_default();
        assert_eq!(cfg.x, 40.0);
        assert_eq!(cfg.hb2bo, 2.0);
        assert_eq!(cfg.hb2ngc, 2.5);
        assert_eq!(cfg.hb_upper_bound, SimDuration::from_secs(1));
        assert_eq!(cfg.hb_delay_default, SimDuration::from_millis(15_000));
        assert_eq!(cfg.heartbeat_size_bytes, 50);
        assert!(cfg.validate().is_ok());
        assert_eq!(ProtocolConfig::default(), cfg);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = ProtocolConfig::paper_default()
            .with_hb_upper_bound(SimDuration::from_secs(5))
            .with_event_table_capacity(4);
        assert_eq!(cfg.hb_upper_bound, SimDuration::from_secs(5));
        assert_eq!(cfg.event_table_capacity, 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut cfg = ProtocolConfig::paper_default();
        cfg.x = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.hb2bo = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.hb2ngc = f64::NAN;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.hb_lower_bound = SimDuration::from_secs(10);
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.hb_upper_bound = SimDuration::ZERO;
        cfg.hb_lower_bound = SimDuration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.event_table_capacity = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ProtocolConfig::paper_default();
        cfg.bo_jitter_fraction = -0.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn backoff_jitter_default_is_enabled() {
        let cfg = ProtocolConfig::paper_default();
        assert_eq!(cfg.bo_jitter_fraction, 1.0);
        let mut disabled = cfg;
        disabled.bo_jitter_fraction = 0.0;
        assert!(disabled.validate().is_ok());
    }
}
