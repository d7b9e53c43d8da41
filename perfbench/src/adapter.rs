//! Every call the benchmark makes into the simulator.
//!
//! The rest of the benchmark sees only the plain types defined here. The
//! program is reached through its default user path and nothing else:
//! `compile_path`/`compile_str`, `World::{new, reset, run_until, run_mut}`,
//! `run_scenario_reports`, the fields of `RunReport` and `Scenario`, and the
//! public constructors and functions of the mobility and radio crates that
//! the layer replay needs (`MobilityModel::advance`/`time_to_transition`,
//! `RadioMedium::{new, update_position, begin_transmission,
//! complete_transmission_into}`). No opt-in engine, shard knob, reference
//! toggle or debug counter is touched.

use manet_sim::{
    compile_path, run_scenario_reports, MobilityKind, RunReport, Scenario, SeedPlan, World,
};
use mobility::{
    BoxedMobility, CitySection, CitySectionConfig, Point, RandomWaypoint, RandomWaypointConfig,
    Stationary,
};
use netsim::{RadioMedium, ReceptionOutcome};
use simkit::{SimDuration, SimRng, SimTime};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A compiled workload: one scenario per sweep point, and the seeds every
/// point runs.
#[derive(Debug, Clone)]
pub struct Workload {
    points: Vec<(String, Scenario)>,
    plan: SeedPlan,
}

/// One seed run's report, kept opaque outside this file.
pub type Report = RunReport;

/// Compiles the scenario file at `path`, with the seed plan starting at
/// `first_seed` (the file's run count is kept).
pub fn compile(path: &Path, first_seed: u64) -> Result<Workload, String> {
    let matrix = compile_path(path, &[]).map_err(|err| format!("{}: {err}", path.display()))?;
    let plan = SeedPlan {
        first_seed,
        runs: matrix.seeds.runs,
    };
    if plan.seeds().count() as u64 != plan.runs || plan.runs == 0 {
        return Err(format!(
            "{}: seed {first_seed} leaves no room for {} runs",
            path.display(),
            plan.runs
        ));
    }
    Ok(Workload {
        points: matrix
            .points
            .into_iter()
            .map(|point| (point.label, point.scenario))
            .collect(),
        plan,
    })
}

impl Workload {
    /// Number of sweep points.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// The row label of sweep point `point`.
    pub fn label(&self, point: usize) -> &str {
        &self.points[point].0
    }

    /// The seeds every point runs, in plan order.
    pub fn seeds(&self) -> Vec<u64> {
        self.plan.seeds().collect()
    }

    /// Seed runs in one sweep over every point.
    pub fn seed_runs(&self) -> usize {
        self.points.len() * self.seeds().len()
    }

    /// The publication plan of sweep point `point` as `(at_ms, validity_ms)`.
    pub fn publication_plan(&self, point: usize) -> Vec<(u64, u64)> {
        self.points[point]
            .1
            .publications
            .iter()
            .map(|p| (p.at.as_millis(), p.validity.as_millis()))
            .collect()
    }

    /// Simulated run length of sweep point `point`, in ms.
    pub fn end_ms(&self, point: usize) -> u64 {
        self.points[point].1.duration.as_millis()
    }

    /// Mobility tick of sweep point `point`, in ms.
    pub fn tick_ms(&self, point: usize) -> u64 {
        self.points[point].1.mobility_tick.as_millis()
    }

    /// Builds the first world of the sweep (point 0, first seed), then resets
    /// it to the plan's next seed. Returns the host seconds of `World::new`
    /// and of `World::reset`.
    pub fn build_first_world(&self) -> Result<(f64, f64), String> {
        let start = Instant::now();
        let mut world = World::new(self.points[0].1.clone(), self.plan.first_seed)
            .map_err(|err| err.to_string())?;
        let new_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        world.reset(self.plan.first_seed.wrapping_add(1));
        Ok((new_s, start.elapsed().as_secs_f64()))
    }

    /// One end-to-end sweep through the library's default runner: every
    /// point's seeds on one worker per core, one shard per world. Reports
    /// come back point-major, each point ordered by seed.
    pub fn pool_sweep(&self) -> Result<Vec<Report>, String> {
        let mut reports = Vec::with_capacity(self.seed_runs());
        for (label, scenario) in &self.points {
            let point = catch_unwind(AssertUnwindSafe(|| {
                run_scenario_reports(scenario, self.plan)
            }))
            .map_err(|_| format!("{label}: the seed pool panicked"))?
            .map_err(|err| format!("{label}: {err}"))?;
            reports.extend(point);
        }
        Ok(reports)
    }

    /// Runs every (point, seed) through `World::new`/`reset`, `run_until` at
    /// each of `deadlines[point]` and `run_mut`, timing each call, on
    /// `threads` threads that each keep one world per point. Results come
    /// back in the same order as [`Workload::pool_sweep`]'s reports.
    pub fn traced_sweep(&self, deadlines: &[Vec<u64>], threads: usize) -> Vec<TracedSeed> {
        let seeds = self.seeds();
        let jobs: Vec<(usize, u64)> = (0..self.points.len())
            .flat_map(|point| seeds.iter().map(move |&seed| (point, seed)))
            .collect();
        let threads = threads.clamp(1, jobs.len().max(1));
        let mut slots: Vec<Option<TracedSeed>> = (0..jobs.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    let jobs = &jobs;
                    scope.spawn(move || {
                        let mut worlds: Vec<Option<World>> =
                            (0..self.points.len()).map(|_| None).collect();
                        let mut done = Vec::new();
                        for index in (thread..jobs.len()).step_by(threads) {
                            let (point, seed) = jobs[index];
                            let world = &mut worlds[point];
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                traced_seed(world, &self.points[point].1, seed, &deadlines[point])
                            }))
                            .unwrap_or_else(|_| Err(format!("seed {seed} panicked")));
                            if result.is_err() {
                                *world = None;
                            }
                            done.push((
                                index,
                                TracedSeed {
                                    point,
                                    seed,
                                    result,
                                },
                            ));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (index, traced) in handle.join().expect("traced workers catch their panics") {
                    slots[index] = Some(traced);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every job ran on exactly one thread"))
            .collect()
    }

    /// Replays sweep point `point`'s mobility and radio-grid calls for
    /// `seed`; see [`replay`].
    pub fn replay(&self, point: usize, seed: u64) -> Replay {
        replay(&self.points[point].1, seed, true).0
    }

    /// Checks the report invariants of one seed run of sweep point `point`.
    pub fn check_report(&self, point: usize, seed: u64, report: &Report) -> Result<(), String> {
        check_report(&self.points[point].1, seed, report)
    }
}

/// Host-time measurements of one traced seed run, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SeedTiming {
    /// `World::new` (first seed of a point on a thread) or `World::reset`.
    pub build_s: f64,
    /// Whether `build_s` timed `World::new` rather than `World::reset`.
    pub fresh: bool,
    /// `(deadline_ms, host seconds)` of every `run_until` step.
    pub steps: Vec<(u64, f64)>,
    /// The final `run_mut`, which only builds the report.
    pub report_s: f64,
}

impl SeedTiming {
    /// Host seconds of the whole seed run.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.stepping_s() + self.report_s
    }

    /// Host seconds spent stepping the world.
    pub fn stepping_s(&self) -> f64 {
        self.steps.iter().map(|&(_, s)| s).sum()
    }
}

/// One traced (point, seed) run.
#[derive(Debug)]
pub struct TracedSeed {
    /// The sweep point.
    pub point: usize,
    /// The seed.
    pub seed: u64,
    /// The report and timings, or why the run failed.
    pub result: Result<(Report, SeedTiming), String>,
}

fn traced_seed(
    world: &mut Option<World>,
    scenario: &Scenario,
    seed: u64,
    deadlines: &[u64],
) -> Result<(Report, SeedTiming), String> {
    let mut timing = SeedTiming::default();
    let start = Instant::now();
    let world = match world {
        Some(world) => {
            world.reset(seed);
            world
        }
        None => {
            timing.fresh = true;
            world.insert(World::new(scenario.clone(), seed).map_err(|err| err.to_string())?)
        }
    };
    timing.build_s = start.elapsed().as_secs_f64();
    timing.steps.reserve(deadlines.len());
    for &deadline in deadlines {
        let start = Instant::now();
        world.run_until(SimTime::from_millis(deadline));
        timing.steps.push((deadline, start.elapsed().as_secs_f64()));
    }
    let start = Instant::now();
    let report = world.run_mut();
    timing.report_s = start.elapsed().as_secs_f64();
    Ok((report, timing))
}

/// The first field in which two reports differ, if any.
pub fn report_difference(a: &Report, b: &Report) -> Option<String> {
    if a.label != b.label || a.protocol != b.protocol || a.seed != b.seed {
        return Some(format!(
            "header ({}/{}/{} vs {}/{}/{})",
            a.label, a.protocol, a.seed, b.label, b.protocol, b.seed
        ));
    }
    if a.events.len() != b.events.len() {
        return Some(format!(
            "event count ({} vs {})",
            a.events.len(),
            b.events.len()
        ));
    }
    if let Some(i) = (0..a.events.len()).find(|&i| a.events[i] != b.events[i]) {
        return Some(format!(
            "events[{i}] ({:?} vs {:?})",
            a.events[i], b.events[i]
        ));
    }
    if a.nodes.len() != b.nodes.len() {
        return Some(format!(
            "node count ({} vs {})",
            a.nodes.len(),
            b.nodes.len()
        ));
    }
    (0..a.nodes.len())
        .find(|&i| a.nodes[i] != b.nodes[i])
        .map(|i| format!("nodes[{i}] ({:?} vs {:?})", a.nodes[i], b.nodes[i]))
}

/// The report invariants every seed run must satisfy.
fn check_report(scenario: &Scenario, seed: u64, report: &Report) -> Result<(), String> {
    if report.seed != seed {
        return Err(format!(
            "report carries seed {} instead of {seed}",
            report.seed
        ));
    }
    if report.nodes.len() != scenario.node_count {
        return Err(format!(
            "{} node reports for {} nodes",
            report.nodes.len(),
            scenario.node_count
        ));
    }
    let end = SimTime::ZERO + scenario.duration;
    let published = scenario.publications.iter().filter(|p| p.at <= end).count();
    if report.events.len() != published {
        return Err(format!(
            "{} event outcomes for {published} publications",
            report.events.len()
        ));
    }
    for (i, event) in report.events.iter().enumerate() {
        if event.delivered > event.subscribers || event.subscribers > scenario.node_count {
            return Err(format!(
                "event {i}: {} delivered of {} subscribers among {} nodes",
                event.delivered, event.subscribers, scenario.node_count
            ));
        }
        let reliability = event_reliability(event.delivered, event.subscribers);
        if !(0.0..=1.0).contains(&reliability) {
            return Err(format!("event {i}: reliability {reliability}"));
        }
    }
    // Node tallies count deliveries after the warm-up only; events are
    // reported in publication order. Every delivery of an event published
    // after the warm-up is counted by its node; for an event published at
    // the warm-up instant, the publisher's own delivery may precede the
    // warm-up snapshot. No node counts a delivery the event outcomes do not
    // show.
    let node_deliveries: u64 = report.nodes.iter().map(|n| n.delivered).sum();
    let event_deliveries: u64 = report.events.iter().map(|e| e.delivered as u64).sum();
    let warmup = SimTime::ZERO + scenario.warmup;
    let mut times: Vec<SimTime> = scenario.publications.iter().map(|p| p.at).collect();
    times.sort();
    let after_warmup: u64 = report
        .events
        .iter()
        .zip(&times)
        .map(|(e, &at)| match at.cmp(&warmup) {
            Ordering::Greater => e.delivered as u64,
            Ordering::Equal => (e.delivered as u64).saturating_sub(1),
            Ordering::Less => 0,
        })
        .sum();
    if node_deliveries > event_deliveries || node_deliveries < after_warmup {
        return Err(format!(
            "nodes count {node_deliveries} deliveries, event outcomes {event_deliveries} \
             ({after_warmup} after the warm-up)"
        ));
    }
    if published == 0 && report.nodes.iter().any(|n| n.events_sent > 0) {
        return Err("events sent although nothing was published".to_owned());
    }
    Ok(())
}

/// The counts of one report that the benchmark aggregates, summed over nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Mean reliability over the published events.
    pub reliability: f64,
    /// Number of nodes.
    pub nodes: u64,
    /// Protocol messages broadcast after the warm-up.
    pub messages_sent: u64,
    /// Full events sent after the warm-up.
    pub events_sent: u64,
    /// Distinct events delivered to applications after the warm-up.
    pub delivered: u64,
    /// Duplicate event copies received.
    pub duplicates: u64,
    /// Parasite events received.
    pub parasites: u64,
    /// Frames put on the air after the warm-up.
    pub frames_sent: u64,
    /// Frames received after the warm-up.
    pub frames_received: u64,
    /// Frame receptions lost to collisions.
    pub lost_collision: u64,
    /// Frame receptions lost to fringe loss.
    pub lost_fringe: u64,
    /// Bytes sent plus received.
    pub bytes: u64,
}

/// Delivered fraction among subscribers (1.0 when nobody subscribed).
fn event_reliability(delivered: usize, subscribers: usize) -> f64 {
    if subscribers == 0 {
        1.0
    } else {
        delivered as f64 / subscribers as f64
    }
}

/// Sums the counters of `report`.
pub fn outcome(report: &Report) -> Outcome {
    let mut sum = Outcome {
        reliability: if report.events.is_empty() {
            1.0
        } else {
            report
                .events
                .iter()
                .map(|e| event_reliability(e.delivered, e.subscribers))
                .sum::<f64>()
                / report.events.len() as f64
        },
        nodes: report.nodes.len() as u64,
        ..Outcome::default()
    };
    for node in &report.nodes {
        sum.messages_sent += node.messages_sent;
        sum.events_sent += node.events_sent;
        sum.delivered += node.delivered;
        sum.duplicates += node.duplicates;
        sum.parasites += node.parasites;
        sum.frames_sent += node.traffic.frames_sent;
        sum.frames_received += node.traffic.frames_received;
        sum.lost_collision += node.traffic.frames_lost_collision;
        sum.lost_fringe += node.traffic.frames_lost_fringe;
        sum.bytes += node.traffic.bytes_sent + node.traffic.bytes_received;
    }
    sum
}

/// At most this many transmission batches are replayed per seed.
const TX_BATCHES: usize = 8;
/// At most this many senders transmit in one replayed batch.
const TX_SENDERS: usize = 2048;

/// What the mobility and radio replay of one seed measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Host seconds in `MobilityModel::advance`/`time_to_transition`, timed
    /// per tick batch (including the per-node due check).
    pub advance_s: f64,
    /// Host seconds in `RadioMedium::update_position`, timed per tick batch.
    pub grid_s: f64,
    /// `advance` calls made (a catch-up after skipped ticks is its own call).
    pub advances: u64,
    /// Node-ticks: nodes × mobility ticks.
    pub node_ticks: u64,
    /// Node-ticks skipped by the dirty-tick rule.
    pub skipped: u64,
    /// Frames sent by the transmission replay.
    pub frames: u64,
    /// Host seconds in `begin_transmission` + `complete_transmission_into`,
    /// timed per batch.
    pub tx_s: f64,
}

/// Builds a node's mobility model exactly as the world does, drawing its
/// initial state from the node's private stream.
fn build_mobility(
    kind: &MobilityKind,
    index: usize,
    nodes: usize,
    rng: &mut SimRng,
) -> BoxedMobility {
    match kind {
        MobilityKind::RandomWaypoint {
            area,
            speed_min,
            speed_max,
            pause,
        } => Box::new(RandomWaypoint::new(
            RandomWaypointConfig::new(*area, *speed_min, *speed_max, *pause),
            rng,
        )),
        MobilityKind::CityCampus => {
            Box::new(CitySection::new(CitySectionConfig::paper_campus(), rng))
        }
        MobilityKind::Stationary { area } => Box::new(Stationary::new(area.random_point(rng))),
        MobilityKind::StationaryLine { length } => {
            let spacing = if nodes > 1 {
                length / (nodes - 1) as f64
            } else {
                0.0
            };
            Box::new(Stationary::new(Point::new(index as f64 * spacing, 0.0)))
        }
    }
}

/// Replays the mobility calls a world makes for `seed` — the same per-node
/// `SimRng` derivation, tick schedule and (with `dirty`) the same dirty-tick
/// rule: a node that is not moving is skipped until its wake time and then
/// caught up in one chunk — pushing every move into a `RadioMedium` as the
/// world does. Mobility does not depend on traffic, so these are the world's
/// exact calls. With `dirty` set, at the first tick at or after each of the
/// first few publications a batch of frames is sent and resolved at the
/// replayed positions. Returns the measurements and the final positions.
fn replay(scenario: &Scenario, seed: u64, dirty: bool) -> (Replay, Vec<Point>) {
    let n = scenario.node_count;
    let master = SimRng::seed_from(seed);
    let mut rngs: Vec<SimRng> = (0..n).map(|i| master.derive(1000 + i as u64)).collect();
    let mut models: Vec<BoxedMobility> = (0..n)
        .map(|i| build_mobility(&scenario.mobility, i, n, &mut rngs[i]))
        .collect();
    let mut medium = RadioMedium::new(scenario.radio.clone(), n);
    for (i, model) in models.iter().enumerate() {
        medium.update_position(i, model.position());
    }
    let mut out = Replay::default();
    let tick = scenario.mobility_tick;
    let end = SimTime::ZERO + scenario.duration;
    let mut last_advance = vec![SimTime::ZERO; n];
    let mut wake = vec![SimTime::ZERO; n];
    let mut moved: Vec<(usize, Point)> = Vec::with_capacity(n);

    let mut publications: Vec<(SimTime, usize)> = scenario
        .publications
        .iter()
        .map(|p| (p.at, p.payload_bytes))
        .collect();
    publications.sort_unstable_by_key(|&(at, _)| at);
    publications.truncate(TX_BATCHES);
    let mut next_publication = 0;
    let mut mac_rng = master.derive(0xBEEF).derive(7);
    let mut outcomes: Vec<(usize, ReceptionOutcome)> = Vec::new();
    let mut tx_clock = SimTime::ZERO;
    let stride = n.div_ceil(TX_SENDERS).max(1);

    let mut now = SimTime::ZERO + tick;
    while now <= end {
        let start = Instant::now();
        moved.clear();
        for i in 0..n {
            if dirty && wake[i] > now {
                continue;
            }
            let (model, rng) = (&mut models[i], &mut rngs[i]);
            let skipped = now - last_advance[i];
            if dirty && skipped > tick {
                model.advance(skipped - tick, rng);
                out.advances += 1;
            }
            model.advance(tick, rng);
            out.advances += 1;
            last_advance[i] = now;
            wake[i] = if model.speed() > 0.0 {
                now
            } else {
                now.saturating_add(model.time_to_transition())
            };
            moved.push((i, model.position()));
        }
        out.advance_s += start.elapsed().as_secs_f64();
        out.node_ticks += n as u64;
        out.skipped += (n - moved.len()) as u64;

        let start = Instant::now();
        for &(i, position) in &moved {
            medium.update_position(i, position);
        }
        out.grid_s += start.elapsed().as_secs_f64();

        while dirty
            && next_publication < publications.len()
            && publications[next_publication].0 <= now
        {
            let payload = publications[next_publication].1;
            next_publication += 1;
            tx_clock = tx_clock.max(now);
            let start = Instant::now();
            for sender in (0..n).step_by(stride) {
                let (tx, ends_at) = medium.begin_transmission(sender, payload, tx_clock);
                outcomes.clear();
                medium.complete_transmission_into(tx, &mut mac_rng, &mut outcomes);
                tx_clock = ends_at + SimDuration::from_millis(1);
                out.frames += 1;
            }
            out.tx_s += start.elapsed().as_secs_f64();
        }
        now += tick;
    }
    let positions = models.iter().map(|m| m.position()).collect();
    (out, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::compile_str;

    fn scenario(mobility: &str, nodes: usize) -> Scenario {
        let source = format!(
            "[scenario]\nlabel = \"replay\"\nnodes = {nodes}\nsubscriber_fraction = 0.8\nwarmup_s = 5.0\nduration_s = 240.0\n\
             mobility_tick_ms = 500\n\n[protocol]\nkind = \"frugal\"\n\n{mobility}\n\n\
             [radio]\npreset = \"paper-random-waypoint\"\n\n[[publication]]\n\
             publisher = \"random-subscriber\"\nat_s = 10.0\nvalidity_s = 60.0\n"
        );
        compile_str(&source).expect("test scenario compiles").points[0]
            .scenario
            .clone()
    }

    #[test]
    fn dirty_tick_replay_matches_advancing_every_tick() {
        // Long pauses make most node-ticks skippable.
        let pausing = scenario(
            "[mobility]\nmodel = \"random-waypoint\"\nwidth_m = 600.0\nheight_m = 600.0\n\
             speed_min_mps = 5.0\nspeed_max_mps = 15.0\npause_s = 20.0",
            40,
        );
        let city = scenario("[mobility]\nmodel = \"city-campus\"", 15);
        for (name, scenario) in [("random waypoint", pausing), ("city section", city)] {
            for seed in [1, 7, 1234] {
                let (dirty, dirty_positions) = replay(&scenario, seed, true);
                let (every, every_positions) = replay(&scenario, seed, false);
                assert_eq!(dirty_positions, every_positions, "{name}, seed {seed}");
                assert_eq!(every.skipped, 0);
                assert!(dirty.skipped > 0, "{name}, seed {seed}: nothing skipped");
                assert!(dirty.advances < every.advances);
                assert_eq!(dirty.node_ticks, every.node_ticks);
            }
        }
    }

    #[test]
    fn transmission_replay_sends_one_batch_per_publication() {
        let line = scenario(
            "[mobility]\nmodel = \"stationary-line\"\nlength_m = 1000.0",
            11,
        );
        let (stats, _) = replay(&line, 3, true);
        assert_eq!(stats.frames, 11);
        // Stationary nodes are advanced at the first tick only.
        assert_eq!(stats.skipped, stats.node_ticks - 11);
    }
}
