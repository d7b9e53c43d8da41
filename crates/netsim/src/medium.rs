//! The shared broadcast medium: who hears what, and which frames collide.
//!
//! [`RadioMedium`] models a single 802.11b-style broadcast channel:
//!
//! * every transmission is a **local broadcast** — it can be heard by every
//!   node within [`RadioConfig::range_m`] of the sender (the paper's model:
//!   "a process cannot send a message to only one of its neighboring
//!   processes");
//! * broadcast frames are unacknowledged and unprotected by RTS/CTS, so two
//!   transmissions that overlap in time at a receiver **collide** and are both
//!   lost at that receiver (this is what produces the paper's Fig. 13 dip);
//! * a node cannot receive while it is itself transmitting (half duplex);
//! * receivers in the outer fringe of the range suffer additional random loss,
//!   standing in for QualNet's statistical propagation model.
//!
//! The medium owns the node positions in a [`SpatialGrid`] (cell size = radio
//! range), updated incrementally as nodes move, so resolving a reception
//! touches only the sender's 3×3 cell neighborhood — O(neighbors) instead of
//! O(nodes). Candidates are visited in ascending node index, which keeps the
//! RNG stream — and therefore every simulation report — bit-identical to the
//! brute-force full scan (kept as [`RadioMedium::complete_transmission_brute`]
//! for equivalence tests and the scaling benchmark).
//!
//! The medium also does per-node traffic accounting ([`TrafficCounters`]),
//! which the frugality experiments (Fig. 17–20) read back.

use crate::grid::SpatialGrid;
use crate::radio::RadioConfig;
use mobility::Point;
use simkit::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;

/// Identifier of an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(u64);

/// Per-node traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// Bytes this node put on the air (payload + per-frame overhead).
    pub bytes_sent: u64,
    /// Frames this node successfully received.
    pub frames_received: u64,
    /// Bytes this node successfully received (payload + per-frame overhead).
    pub bytes_received: u64,
    /// Frames lost at this node because of a collision.
    pub frames_lost_collision: u64,
    /// Frames lost at this node because of fringe (statistical propagation) loss.
    pub frames_lost_fringe: u64,
}

impl TrafficCounters {
    /// Total bytes that crossed this node's radio, sent plus received.
    /// This is the quantity reported as "bandwidth used per process".
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

#[derive(Debug, Clone)]
struct Transmission {
    id: TxId,
    sender: usize,
    position: Point,
    start: SimTime,
    end: SimTime,
    payload_bytes: usize,
    completed: bool,
}

/// Outcome of a completed transmission at one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceptionOutcome {
    /// The frame was received successfully.
    Received,
    /// The frame was lost because another audible transmission overlapped.
    Collided,
    /// The frame was lost to fringe (statistical) propagation loss.
    FringeLoss,
    /// The receiver was itself transmitting (half duplex).
    SelfBusy,
}

/// RNG-free classification of one receiver against a completed transmission:
/// everything about the outcome that does not need the loss draw. Produced by
/// [`CompletionSnapshot::classify`], turned into a [`ReceptionOutcome`] (and
/// counter updates) by [`RadioMedium::resolve_classified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceptionClass {
    /// The receiver was itself on the air during the frame (half duplex).
    SelfBusy,
    /// Another transmission audible at the receiver overlapped the frame.
    Collided,
    /// In range and clear, but in the outer fringe of the disc: reception
    /// still needs the statistical loss draw.
    FringeCandidate,
    /// In range, clear, and inside the reliable part of the disc.
    Clear,
}

/// Sender and position of one transmission that overlapped a completed frame
/// in time — the only facts classification needs about an interferer.
#[derive(Debug, Clone, Copy)]
struct OverlapTx {
    sender: usize,
    position: Point,
}

/// A completed transmission detached from the medium, together with the set of
/// transmissions that overlapped it in time: the receiver-independent half of
/// reception resolution, shared by the grid and brute-force completion paths.
#[derive(Debug, Clone, Default)]
struct CompletionSnapshot {
    sender: usize,
    position: Point,
    payload_bytes: usize,
    overlaps: Vec<OverlapTx>,
}

impl CompletionSnapshot {
    /// Classifies reception of this frame at `receiver` located at `rx_pos`.
    /// Returns `None` when the receiver is the sender or out of range (no
    /// outcome is recorded for it at all).
    fn classify(
        &self,
        config: &RadioConfig,
        receiver: usize,
        rx_pos: Point,
    ) -> Option<ReceptionClass> {
        if receiver == self.sender {
            return None;
        }
        let distance = self.position.distance(rx_pos);
        if distance > config.range_m {
            return None;
        }
        // Half duplex: the receiver was itself on the air during the frame.
        if self.overlaps.iter().any(|t| t.sender == receiver) {
            return Some(ReceptionClass::SelfBusy);
        }
        // Collision: another transmission audible at the receiver overlapped.
        let collided = self
            .overlaps
            .iter()
            .any(|t| t.sender != receiver && t.position.distance(rx_pos) <= config.range_m);
        if collided {
            return Some(ReceptionClass::Collided);
        }
        let fringe_start = config.range_m * config.fringe_start_fraction;
        if distance > fringe_start {
            Some(ReceptionClass::FringeCandidate)
        } else {
            Some(ReceptionClass::Clear)
        }
    }
}

/// The shared wireless broadcast channel.
#[derive(Debug)]
pub struct RadioMedium {
    config: RadioConfig,
    /// Node positions, bucketed by radio-range-sized cells.
    grid: SpatialGrid,
    transmissions: Vec<Transmission>,
    /// Index of each tracked transmission in `transmissions`, keyed by id —
    /// completing a frame is a map lookup, not a linear scan.
    tx_index: HashMap<TxId, usize>,
    counters: Vec<TrafficCounters>,
    next_tx: u64,
    /// Scratch buffer for grid queries, reused across completions.
    candidates: Vec<usize>,
    /// Longest air time of any frame begun so far — the interference horizon
    /// used by pruning: a completed frame older than this cannot overlap
    /// anything still pending.
    max_air: SimDuration,
    /// Scratch snapshot reused by the all-in-one completion paths.
    snapshot: CompletionSnapshot,
}

impl RadioMedium {
    /// Creates a medium for `node_count` nodes sharing one `config`, all nodes
    /// initially at the origin. Push real positions with
    /// [`RadioMedium::update_position`] or [`RadioMedium::sync_positions`]
    /// before transmitting.
    ///
    /// # Panics
    ///
    /// Panics if the configured radio range is not strictly positive and
    /// finite.
    pub fn new(config: RadioConfig, node_count: usize) -> Self {
        RadioMedium {
            grid: SpatialGrid::new(config.range_m, node_count),
            config,
            transmissions: Vec::new(),
            tx_index: HashMap::new(),
            counters: vec![TrafficCounters::default(); node_count],
            next_tx: 0,
            candidates: Vec::new(),
            max_air: SimDuration::ZERO,
            snapshot: CompletionSnapshot::default(),
        }
    }

    /// Creates a medium with one node per entry of `positions`.
    pub fn with_positions(config: RadioConfig, positions: &[Point]) -> Self {
        let mut medium = RadioMedium::new(config, positions.len());
        medium.sync_positions(positions);
        medium
    }

    /// Clears all per-run state — traffic counters, the transmission slab and
    /// its id index — while keeping every allocation (including the spatial
    /// grid's buckets) for reuse by the next run. Node positions are left as
    /// they are; callers push the next run's initial positions with
    /// [`RadioMedium::update_position`] or [`RadioMedium::sync_positions`].
    ///
    /// After a reset the medium behaves exactly like a freshly built one:
    /// transmission ids restart at zero and all counters read zero.
    pub fn reset(&mut self) {
        for counters in &mut self.counters {
            *counters = TrafficCounters::default();
        }
        self.transmissions.clear();
        self.tx_index.clear();
        self.next_tx = 0;
        self.max_air = SimDuration::ZERO;
    }

    /// The radio configuration shared by all nodes.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Number of nodes known to the medium.
    pub fn node_count(&self) -> usize {
        self.counters.len()
    }

    /// Current position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: usize) -> Point {
        self.grid.position(node)
    }

    /// Moves `node` to `position` (typically once per mobility tick).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `position` is not finite.
    pub fn update_position(&mut self, node: usize, position: Point) {
        self.grid.update(node, position);
    }

    /// Replaces every node's position at once.
    ///
    /// # Panics
    ///
    /// Panics if `positions` does not hold exactly one entry per node.
    pub fn sync_positions(&mut self, positions: &[Point]) {
        assert_eq!(
            positions.len(),
            self.counters.len(),
            "one position per node is required"
        );
        for (node, &position) in positions.iter().enumerate() {
            self.grid.update(node, position);
        }
    }

    /// Traffic counters of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn counters(&self, node: usize) -> &TrafficCounters {
        &self.counters[node]
    }

    /// Traffic counters of every node, indexed by node id.
    pub fn all_counters(&self) -> &[TrafficCounters] {
        &self.counters
    }

    /// Registers that `sender` starts transmitting a frame of `payload_bytes`
    /// at time `now`, from its current position. Returns the transmission id
    /// and the time at which the frame ends (when
    /// [`RadioMedium::complete_transmission`] must be called).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn begin_transmission(
        &mut self,
        sender: usize,
        payload_bytes: usize,
        now: SimTime,
    ) -> (TxId, SimTime) {
        assert!(sender < self.counters.len(), "unknown sender {sender}");
        self.prune(now);
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        let air = self.config.air_time(payload_bytes);
        if air > self.max_air {
            self.max_air = air;
        }
        let end = now + air;
        self.tx_index.insert(id, self.transmissions.len());
        self.transmissions.push(Transmission {
            id,
            sender,
            position: self.grid.position(sender),
            start: now,
            end,
            payload_bytes,
            completed: false,
        });
        let counters = &mut self.counters[sender];
        counters.frames_sent += 1;
        counters.bytes_sent += self.config.wire_bytes(payload_bytes);
        (id, end)
    }

    /// Completes transmission `tx` and resolves reception at every node in
    /// range of the sender (excluding the sender itself), using the positions
    /// the medium tracks. Returns the per-receiver outcomes; nodes outside the
    /// range are not listed.
    ///
    /// Only the sender's 3×3 grid-cell neighborhood is examined, in ascending
    /// node index, so outcomes and RNG consumption are bit-identical to
    /// [`RadioMedium::complete_transmission_brute`].
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    pub fn complete_transmission(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
    ) -> Vec<(usize, ReceptionOutcome)> {
        let mut outcomes = Vec::new();
        self.complete_transmission_into(tx, rng, &mut outcomes);
        outcomes
    }

    /// Allocation-free variant of [`RadioMedium::complete_transmission`]:
    /// appends the per-receiver outcomes to a caller-owned scratch vector
    /// (which is **not** cleared first) instead of returning a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    pub fn complete_transmission_into(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
        outcomes: &mut Vec<(usize, ReceptionOutcome)>,
    ) {
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.begin_completion(tx, &mut snapshot);
        let mut candidates = std::mem::take(&mut self.candidates);
        self.grid
            .query_into(snapshot.position, self.config.range_m, &mut candidates);
        self.resolve_candidates(&snapshot, &candidates, rng, outcomes);
        self.candidates = candidates;
        self.snapshot = snapshot;
    }

    /// The pre-grid reference path: resolves reception by scanning **all**
    /// nodes in ascending index order. Semantically identical to
    /// [`RadioMedium::complete_transmission`] but O(nodes) per frame; kept so
    /// equivalence tests and the scaling benchmark can compare the two.
    #[doc(hidden)]
    pub fn complete_transmission_brute(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
    ) -> Vec<(usize, ReceptionOutcome)> {
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.begin_completion(tx, &mut snapshot);
        let everyone: Vec<usize> = (0..self.counters.len()).collect();
        let mut outcomes = Vec::new();
        self.resolve_candidates(&snapshot, &everyone, rng, &mut outcomes);
        self.snapshot = snapshot;
        outcomes
    }

    /// Marks `tx` completed and captures it into `out` together with every
    /// transmission that overlapped it in time. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    fn begin_completion(&mut self, tx: TxId, out: &mut CompletionSnapshot) {
        let idx = *self.tx_index.get(&tx).expect("unknown transmission id");
        assert!(
            !self.transmissions[idx].completed,
            "transmission completed twice"
        );
        self.transmissions[idx].completed = true;
        let current = &self.transmissions[idx];
        out.sender = current.sender;
        out.position = current.position;
        out.payload_bytes = current.payload_bytes;
        let (id, start, end) = (current.id, current.start, current.end);
        out.overlaps.clear();
        out.overlaps.extend(
            self.transmissions
                .iter()
                .filter(|t| t.id != id && t.start < end && t.end > start)
                .map(|t| OverlapTx {
                    sender: t.sender,
                    position: t.position,
                }),
        );
    }

    /// Classifies and resolves each of `receivers` (ascending node index)
    /// against `snapshot`, updating counters and consuming the RNG exactly
    /// like the all-in-one completion paths.
    fn resolve_candidates(
        &mut self,
        snapshot: &CompletionSnapshot,
        receivers: &[usize],
        rng: &mut SimRng,
        outcomes: &mut Vec<(usize, ReceptionOutcome)>,
    ) {
        for &receiver in receivers {
            let rx_pos = self.grid.position(receiver);
            let Some(class) = snapshot.classify(&self.config, receiver, rx_pos) else {
                continue;
            };
            let outcome = self.resolve_classified(snapshot, receiver, class, rng);
            outcomes.push((receiver, outcome));
        }
    }

    /// Turns a [`ReceptionClass`] into the final [`ReceptionOutcome`] for
    /// `receiver`: draws the fringe loss chance where needed and updates the
    /// receiver's traffic counters. Callers resolving one frame at several
    /// receivers must do so in ascending node index to keep the RNG stream —
    /// and therefore whole-simulation reports — deterministic.
    fn resolve_classified(
        &mut self,
        snapshot: &CompletionSnapshot,
        receiver: usize,
        class: ReceptionClass,
        rng: &mut SimRng,
    ) -> ReceptionOutcome {
        let outcome = match class {
            ReceptionClass::SelfBusy => ReceptionOutcome::SelfBusy,
            ReceptionClass::Collided => ReceptionOutcome::Collided,
            ReceptionClass::FringeCandidate => {
                if rng.chance(self.config.fringe_loss_probability) {
                    ReceptionOutcome::FringeLoss
                } else {
                    ReceptionOutcome::Received
                }
            }
            ReceptionClass::Clear => ReceptionOutcome::Received,
        };
        let counters = &mut self.counters[receiver];
        match outcome {
            ReceptionOutcome::Received => {
                counters.frames_received += 1;
                counters.bytes_received += self.config.wire_bytes(snapshot.payload_bytes);
            }
            ReceptionOutcome::Collided | ReceptionOutcome::SelfBusy => {
                counters.frames_lost_collision += 1;
            }
            ReceptionOutcome::FringeLoss => {
                counters.frames_lost_fringe += 1;
            }
        }
        outcome
    }

    /// Drops completed transmissions that can no longer interfere with frames
    /// starting at or after `now`, and rebuilds the id index if anything moved.
    fn prune(&mut self, now: SimTime) {
        // A completed frame only matters as an interferer for a transmission
        // that overlaps it in time, and no pending transmission begun before
        // `now` can have started earlier than `now - max_air`. Anything that
        // ended before that (with a 1 ms margin for the strict/loose
        // inequality mix) can never be consulted again.
        let horizon = self.max_air + SimDuration::from_millis(1);
        let before = self.transmissions.len();
        self.transmissions
            .retain(|t| !t.completed || t.end + horizon > now);
        if self.transmissions.len() != before {
            // Reuse the map's buckets instead of collecting into a fresh one.
            self.tx_index.clear();
            self.tx_index.extend(
                self.transmissions
                    .iter()
                    .enumerate()
                    .map(|(idx, t)| (t.id, idx)),
            );
        }
    }

    /// Number of transmissions currently tracked (for tests and diagnostics).
    pub fn tracked_transmissions(&self) -> usize {
        self.transmissions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(points: &[(f64, f64)]) -> Vec<Point> {
        points.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn ideal_medium(pos: &[Point], range: f64) -> RadioMedium {
        RadioMedium::with_positions(RadioConfig::ideal(range), pos)
    }

    #[test]
    fn in_range_node_receives() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (500.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, end) = medium.begin_transmission(0, 400, SimTime::ZERO);
        assert!(end > SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert_eq!(outcomes, vec![(1, ReceptionOutcome::Received)]);
        assert_eq!(medium.counters(1).frames_received, 1);
        assert_eq!(
            medium.counters(2).frames_received,
            0,
            "node 2 is out of range"
        );
        assert_eq!(medium.counters(0).frames_sent, 1);
        assert_eq!(medium.counters(0).bytes_sent, 400);
    }

    #[test]
    fn sender_never_receives_its_own_frame() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert!(outcomes.iter().all(|&(r, _)| r != 0));
    }

    #[test]
    fn overlapping_transmissions_collide_at_common_receiver() {
        // Nodes 0 and 2 both in range of node 1; they transmit at the same time.
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(2, 400, SimTime::ZERO);
        let outcomes_a = medium.complete_transmission(tx_a, &mut rng);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        let at_1_a = outcomes_a.iter().find(|&&(r, _)| r == 1).unwrap().1;
        let at_1_b = outcomes_b.iter().find(|&&(r, _)| r == 1).unwrap().1;
        assert_eq!(at_1_a, ReceptionOutcome::Collided);
        assert_eq!(at_1_b, ReceptionOutcome::Collided);
        assert_eq!(medium.counters(1).frames_lost_collision, 2);
        assert_eq!(medium.counters(1).frames_received, 0);
    }

    #[test]
    fn hidden_terminal_does_not_collide_at_far_receiver() {
        // Node 3 only hears node 2; node 0's simultaneous transmission is too far
        // away to interfere there.
        let pos = positions(&[(0.0, 0.0), (80.0, 0.0), (300.0, 0.0), (380.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(2, 400, SimTime::ZERO);
        let _ = medium.complete_transmission(tx_a, &mut rng);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        let at_3 = outcomes_b.iter().find(|&&(r, _)| r == 3).unwrap().1;
        assert_eq!(at_3, ReceptionOutcome::Received);
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, end_a) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let a = medium.complete_transmission(tx_a, &mut rng);
        // Second transmission starts strictly after the first ended.
        let (tx_b, _) = medium.begin_transmission(2, 400, end_a + SimDuration::from_millis(5));
        let b = medium.complete_transmission(tx_b, &mut rng);
        assert!(a
            .iter()
            .any(|&(r, o)| r == 1 && o == ReceptionOutcome::Received));
        assert!(b
            .iter()
            .any(|&(r, o)| r == 1 && o == ReceptionOutcome::Received));
    }

    #[test]
    fn receiver_busy_transmitting_misses_frame() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(1, 400, SimTime::ZERO);
        let outcomes_a = medium.complete_transmission(tx_a, &mut rng);
        assert_eq!(outcomes_a, vec![(1, ReceptionOutcome::SelfBusy)]);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        assert_eq!(outcomes_b, vec![(0, ReceptionOutcome::SelfBusy)]);
    }

    #[test]
    fn fringe_loss_only_in_outer_ring() {
        let config = RadioConfig {
            fringe_loss_probability: 1.0, // always lose in the fringe
            fringe_start_fraction: 0.8,
            ..RadioConfig::ideal(100.0)
        };
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (95.0, 0.0)]);
        let mut medium = RadioMedium::with_positions(config, &pos);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert!(
            outcomes.contains(&(1, ReceptionOutcome::Received)),
            "inner node unaffected"
        );
        assert!(
            outcomes.contains(&(2, ReceptionOutcome::FringeLoss)),
            "fringe node loses"
        );
        assert_eq!(medium.counters(2).frames_lost_fringe, 1);
    }

    #[test]
    fn byte_accounting_includes_overhead() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0)]);
        let mut medium = RadioMedium::with_positions(RadioConfig::paper_random_waypoint(), &pos);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        medium.complete_transmission(tx, &mut rng);
        assert_eq!(medium.counters(0).bytes_sent, 458);
        assert_eq!(medium.counters(1).bytes_received, 458);
        assert_eq!(medium.counters(0).total_bytes(), 458);
        assert_eq!(medium.counters(1).total_bytes(), 458);
    }

    #[test]
    fn pruning_keeps_memory_bounded() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let (tx, end) = medium.begin_transmission(0, 100, now);
            medium.complete_transmission(tx, &mut rng);
            now = end + SimDuration::from_secs(1);
        }
        assert!(
            medium.tracked_transmissions() < 50,
            "old transmissions must be pruned, still tracking {}",
            medium.tracked_transmissions()
        );
    }

    #[test]
    fn tx_lookup_survives_pruning() {
        // Interleave long-lived and short-lived frames so pruning reshuffles
        // the transmission slab while a frame is still pending completion.
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            let (tx_a, _) = medium.begin_transmission(0, 100, now);
            now += SimDuration::from_secs(20); // beyond the prune horizon
            let (tx_b, _) = medium.begin_transmission(1, 100, now);
            medium.complete_transmission(tx_a, &mut rng);
            medium.complete_transmission(tx_b, &mut rng);
            now += SimDuration::from_secs(20);
        }
        assert!(medium.tracked_transmissions() < 10);
    }

    #[test]
    fn moved_nodes_hear_according_to_their_new_position() {
        let pos = positions(&[(0.0, 0.0), (500.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        assert!(medium.complete_transmission(tx, &mut rng).is_empty());
        // Node 1 walks into range; the next frame reaches it.
        medium.update_position(1, Point::new(60.0, 0.0));
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::from_secs(30));
        assert_eq!(
            medium.complete_transmission(tx, &mut rng),
            vec![(1, ReceptionOutcome::Received)]
        );
    }

    #[test]
    #[should_panic]
    fn completing_twice_panics() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        medium.complete_transmission(tx, &mut rng);
        medium.complete_transmission(tx, &mut rng);
    }

    #[test]
    fn reset_medium_behaves_like_a_fresh_one() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (500.0, 0.0)]);
        let config = RadioConfig {
            fringe_loss_probability: 0.4,
            fringe_start_fraction: 0.6,
            ..RadioConfig::ideal(100.0)
        };
        let mut reused = RadioMedium::with_positions(config.clone(), &pos);

        // Dirty the medium with a first run whose positions differ.
        let mut rng = SimRng::seed_from(9);
        reused.update_position(1, Point::new(400.0, 300.0));
        let (tx, _) = reused.begin_transmission(0, 300, SimTime::ZERO);
        reused.complete_transmission(tx, &mut rng);

        // Reset and replay the exact run a fresh medium would do.
        reused.reset();
        reused.sync_positions(&pos);
        let mut fresh = RadioMedium::with_positions(config, &pos);
        let mut rng_a = SimRng::seed_from(1);
        let mut rng_b = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for round in 0..20 {
            let sender = round % 3;
            let (tx_a, end) = reused.begin_transmission(sender, 400, now);
            let (tx_b, _) = fresh.begin_transmission(sender, 400, now);
            assert_eq!(tx_a, tx_b, "transmission ids must restart at zero");
            assert_eq!(
                reused.complete_transmission(tx_a, &mut rng_a),
                fresh.complete_transmission(tx_b, &mut rng_b)
            );
            now = end + SimDuration::from_millis(3);
        }
        assert_eq!(reused.all_counters(), fresh.all_counters());
    }

    #[test]
    fn exactly_at_range_boundary_is_received() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert_eq!(outcomes.len(), 1, "boundary distance counts as in range");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation of traffic: the number of frames received plus frames
        /// lost across all receivers never exceeds (receivers-in-range) ×
        /// (frames sent), and every received byte was sent by someone.
        #[test]
        fn accounting_is_conservative(seed in any::<u64>(), sends in 1usize..30) {
            let mut rng = SimRng::seed_from(seed);
            let mut scatter = SimRng::seed_from(seed ^ 0xDEAD);
            let pos: Vec<Point> = (0..5)
                .map(|_| Point::new(scatter.uniform_f64(0.0, 300.0), scatter.uniform_f64(0.0, 300.0)))
                .collect();
            let mut medium = RadioMedium::with_positions(RadioConfig::ideal(150.0), &pos);
            let mut now = SimTime::ZERO;
            for i in 0..sends {
                let sender = i % 5;
                let (tx, end) = medium.begin_transmission(sender, 200, now);
                medium.complete_transmission(tx, &mut rng);
                now = end + SimDuration::from_millis(scatter.uniform_u64(0, 50));
            }
            let total_sent: u64 = medium.all_counters().iter().map(|c| c.frames_sent).sum();
            let total_outcomes: u64 = medium
                .all_counters()
                .iter()
                .map(|c| c.frames_received + c.frames_lost_collision + c.frames_lost_fringe)
                .sum();
            prop_assert_eq!(total_sent, sends as u64);
            // Each frame can produce at most (node_count - 1) receiver outcomes.
            prop_assert!(total_outcomes <= total_sent * 4);
            let bytes_sent: u64 = medium.all_counters().iter().map(|c| c.bytes_sent).sum();
            let bytes_received: u64 = medium.all_counters().iter().map(|c| c.bytes_received).sum();
            prop_assert!(bytes_received <= bytes_sent * 4);
        }

        /// The grid-backed reception path is bit-identical to the brute-force
        /// full scan: same outcomes, same counters, and — because candidates
        /// are visited in ascending node index — identical RNG consumption, on
        /// random layouts with moving nodes and overlapping frames.
        #[test]
        fn grid_matches_brute_force_reference(
            seed in any::<u64>(),
            nodes in 2usize..40,
            rounds in 1usize..25,
            side in 50.0f64..2000.0,
        ) {
            let config = RadioConfig {
                fringe_loss_probability: 0.4,
                fringe_start_fraction: 0.6,
                ..RadioConfig::ideal(150.0)
            };
            let mut scatter = SimRng::seed_from(seed ^ 0x5CA77E4);
            let pos: Vec<Point> = (0..nodes)
                .map(|_| Point::new(scatter.uniform_f64(0.0, side), scatter.uniform_f64(0.0, side)))
                .collect();
            let mut grid_medium = RadioMedium::with_positions(config.clone(), &pos);
            let mut brute_medium = RadioMedium::with_positions(config, &pos);
            let mut grid_rng = SimRng::seed_from(seed);
            let mut brute_rng = SimRng::seed_from(seed);

            let mut now = SimTime::ZERO;
            for round in 0..rounds {
                // Occasionally move a node so rebucketing is exercised.
                if round % 3 == 0 {
                    let node = scatter.index(nodes);
                    let to = Point::new(
                        scatter.uniform_f64(-100.0, side + 100.0),
                        scatter.uniform_f64(-100.0, side + 100.0),
                    );
                    grid_medium.update_position(node, to);
                    brute_medium.update_position(node, to);
                }
                // A burst of overlapping frames from distinct senders.
                let burst = 1 + scatter.index(3.min(nodes));
                let mut pending = Vec::new();
                for b in 0..burst {
                    let sender = (round + b * 7) % nodes;
                    let (tx_g, _) = grid_medium.begin_transmission(sender, 200, now);
                    let (tx_b, end) = brute_medium.begin_transmission(sender, 200, now);
                    prop_assert_eq!(tx_g, tx_b);
                    pending.push((tx_g, end));
                }
                for (tx, _) in &pending {
                    let grid_outcomes = grid_medium.complete_transmission(*tx, &mut grid_rng);
                    let brute_outcomes =
                        brute_medium.complete_transmission_brute(*tx, &mut brute_rng);
                    prop_assert_eq!(&grid_outcomes, &brute_outcomes);
                }
                now = pending.last().expect("burst is non-empty").1
                    + SimDuration::from_millis(scatter.uniform_u64(0, 40));
            }
            prop_assert_eq!(grid_medium.all_counters(), brute_medium.all_counters());
            // Identical RNG consumption: the two streams are still in lockstep.
            prop_assert_eq!(grid_rng.uniform_u64(0, u64::MAX), brute_rng.uniform_u64(0, u64::MAX));
        }
    }
}
