//! Declarative scenario compiler: a TOML file in, an experiment matrix out.
//!
//! Scenarios were hard-coded Rust until this module: every new population,
//! mobility model or protocol knob meant a new builder call site. The
//! compiler turns that into configuration. A scenario file declares the
//! population, the subscriber fraction, the mobility model and its
//! parameters, the radio, the protocol and its frugality knobs, the
//! publication plan, the seed plan — and optional *sweep axes* that expand
//! into a cross-product experiment matrix:
//!
//! ```toml
//! [scenario]
//! label = "quickstart"
//! nodes = 20
//! subscriber_fraction = 0.8
//! warmup_s = 5.0
//! duration_s = 65.0
//!
//! [protocol]
//! kind = "frugal"
//!
//! [mobility]
//! model = "random-waypoint"
//! width_m = 800.0
//! height_m = 800.0
//! speed_min_mps = 5.0
//! speed_max_mps = 15.0
//! pause_s = 1.0
//!
//! [radio]
//! preset = "paper-random-waypoint"
//!
//! [[publication]]
//! publisher = "random-subscriber"
//! at_s = 6.0
//! validity_s = 59.0
//!
//! [seeds]
//! first = 42
//! runs = 3
//!
//! [[sweep]]
//! param = "nodes"
//! values = [10, 20, 40]
//! ```
//!
//! [`compile_str`] parses, validates (every error carries the `line:col` it
//! was detected at) and compiles this into a [`CompiledMatrix`]: one
//! [`Scenario`] per sweep-axis combination plus the [`SeedPlan`], ready for
//! [`crate::runner::run_scenario_reports_with_workers`]. The `reproduce
//! --scenario` binary is the CLI entry; `examples/*.toml` are compiled twins
//! of the repository's hard-coded scenarios, pinned byte-identical by the
//! round-trip test suite.
//!
//! The front-end is the hand-rolled [`toml`] subset parser rather than a
//! serde derive pipeline: the offline build has no serde to derive with, and
//! position-carrying errors need a span-keeping value tree (which the real
//! `toml` crate only offers via `toml_edit`).

pub mod toml;

use self::toml::{ParseError, Pos, Spanned, Table, Value};
use crate::runner::SeedPlan;
use crate::scenario::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioError,
};
use frugal::{FloodingPolicy, ProtocolConfig};
use mobility::Area;
use netsim::{BitRate, RadioConfig};
use pubsub::Topic;
use simkit::{SimDuration, SimTime};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Hard cap on the experiment-matrix size, so a typo in a sweep axis cannot
/// silently schedule months of simulation.
pub const MAX_MATRIX_POINTS: usize = 4096;

/// An error produced while compiling a scenario file: what went wrong, and —
/// when it maps to a source location — where.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Source position of the offending key or value, when known.
    pub pos: Option<Pos>,
    /// Human-readable description, prefixed with the section it concerns.
    pub message: String,
}

impl CompileError {
    fn at(pos: Pos, message: impl Into<String>) -> Self {
        CompileError {
            pos: Some(pos),
            message: message.into(),
        }
    }

    fn nowhere(message: impl Into<String>) -> Self {
        CompileError {
            pos: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{pos}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(err: ParseError) -> Self {
        CompileError::at(err.pos, err.message)
    }
}

/// One compiled point of the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPoint {
    /// Row label: the sweep-axis assignments (`"nodes=20, range_m=100"`), or
    /// the scenario label when there are no sweep axes.
    pub label: String,
    /// The fully validated scenario for this point.
    pub scenario: Scenario,
}

/// The output of the compiler: every scenario of the experiment matrix plus
/// the seed plan they all share.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMatrix {
    /// The base scenario label from `[scenario] label`.
    pub label: String,
    /// The seed plan from `[seeds]` (3 runs from seed 1 when omitted).
    pub seeds: SeedPlan,
    /// One point per sweep-axis combination, in axis-major order; a single
    /// point when the file declares no sweeps.
    pub points: Vec<MatrixPoint>,
}

/// One sweep axis: a parameter name and the values it takes.
///
/// Parameter names are dotted paths into the scenario schema; see
/// [`SweepAxis::SUPPORTED`] for the full list. Values are numeric;
/// integer-valued parameters reject fractional values at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// The swept parameter, e.g. `"nodes"` or `"radio.range_m"`.
    pub param: String,
    /// The values the parameter takes, one matrix column per value.
    pub values: Vec<f64>,
}

impl SweepAxis {
    /// Every sweepable parameter path.
    pub const SUPPORTED: &'static [&'static str] = &[
        "nodes",
        "subscriber_fraction",
        "warmup_s",
        "duration_s",
        "mobility_tick_ms",
        "protocol.hb_delay_default_ms",
        "protocol.hb_upper_bound_ms",
        "protocol.hb_lower_bound_ms",
        "protocol.x",
        "protocol.hb2bo",
        "protocol.hb2ngc",
        "protocol.bo_jitter_fraction",
        "protocol.event_table_capacity",
        "protocol.departed_memory_capacity",
        "mobility.speed_min_mps",
        "mobility.speed_max_mps",
        "mobility.pause_s",
        "radio.range_m",
        "radio.fringe_loss_probability",
        "radio.fringe_start_fraction",
        "publication.at_s",
        "publication.validity_s",
        "publication.payload_bytes",
    ];
}

impl FromStr for SweepAxis {
    type Err = String;

    /// Parses the CLI form `param=v1,v2,v3`.
    fn from_str(arg: &str) -> Result<Self, Self::Err> {
        let (param, values) = arg
            .split_once('=')
            .ok_or_else(|| format!("sweep `{arg}` must have the form param=v1,v2,..."))?;
        let param = param.trim();
        if param.is_empty() {
            return Err(format!("sweep `{arg}` has an empty parameter name"));
        }
        let values: Vec<f64> = values
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("sweep `{param}`: `{v}` is not a number"))
            })
            .collect::<Result<_, _>>()?;
        if values.is_empty() {
            return Err(format!("sweep `{param}` has no values"));
        }
        Ok(SweepAxis {
            param: param.to_owned(),
            values,
        })
    }
}

/// Compiles a scenario file into its experiment matrix.
///
/// # Errors
///
/// Returns a [`CompileError`] carrying the source position of the first
/// syntax error, unknown key, type mismatch or out-of-range value.
pub fn compile_str(source: &str) -> Result<CompiledMatrix, CompileError> {
    compile_str_with_sweeps(source, &[])
}

/// Like [`compile_str`], with extra sweep axes (typically from the command
/// line) merged in: an extra axis replaces a file axis sweeping the same
/// parameter and is appended otherwise.
///
/// # Errors
///
/// Returns a [`CompileError`] on any syntax, schema or sweep error.
pub fn compile_str_with_sweeps(
    source: &str,
    extra_axes: &[SweepAxis],
) -> Result<CompiledMatrix, CompileError> {
    let root = toml::parse(source)?;
    root_sections(&root)?;
    let spec = decode_spec(&root)?;
    let seeds = decode_seeds(&root)?;
    let mut axes = decode_sweeps(&root)?;
    for extra in extra_axes {
        if extra.values.is_empty() {
            return Err(CompileError::nowhere(format!(
                "sweep `{}` has no values",
                extra.param
            )));
        }
        check_sweep_param(&extra.param, None)?;
        match axes.iter_mut().find(|a| a.param == extra.param) {
            Some(axis) => axis.values = extra.values.clone(),
            None => axes.push(extra.clone()),
        }
    }
    let points = expand_matrix(&spec, &axes)?;
    Ok(CompiledMatrix {
        label: spec.label.clone(),
        seeds,
        points,
    })
}

/// Reads and compiles a scenario file from disk.
///
/// # Errors
///
/// Returns a [`CompileError`] for unreadable files as well as for every
/// compile error of [`compile_str_with_sweeps`].
pub fn compile_path(
    path: impl AsRef<Path>,
    extra_axes: &[SweepAxis],
) -> Result<CompiledMatrix, CompileError> {
    let path = path.as_ref();
    let source = std::fs::read_to_string(path)
        .map_err(|err| CompileError::nowhere(format!("cannot read {}: {err}", path.display())))?;
    compile_str_with_sweeps(&source, extra_axes)
}

// ---------------------------------------------------------------------------
// Intermediate spec: the decoded document before sweep expansion.
// ---------------------------------------------------------------------------

/// The mobility section, kept symbolic so sweeps can adjust parameters
/// before the final [`MobilityKind`] is built.
#[derive(Debug, Clone)]
enum MobilitySpec {
    RandomWaypoint {
        width_m: f64,
        height_m: f64,
        speed_min_mps: f64,
        speed_max_mps: f64,
        pause: SimDuration,
    },
    CityCampus,
    Stationary {
        width_m: f64,
        height_m: f64,
    },
    StationaryLine {
        length_m: f64,
    },
}

#[derive(Debug, Clone)]
struct PublicationSpec {
    publisher: PublisherChoice,
    topic: Topic,
    at: SimTime,
    validity: SimDuration,
    payload_bytes: usize,
}

#[derive(Debug, Clone)]
struct ScenarioSpec {
    label: String,
    nodes: usize,
    subscriber_fraction: f64,
    warmup: SimDuration,
    duration: SimDuration,
    mobility_tick: SimDuration,
    subscriber_topic: Topic,
    event_topic: Topic,
    bystander_topic: Topic,
    protocol: ProtocolKind,
    mobility: MobilitySpec,
    radio: RadioConfig,
    publications: Vec<PublicationSpec>,
}

impl ScenarioSpec {
    /// Builds and validates the final [`Scenario`] for one matrix point.
    fn build(&self, point: &str) -> Result<Scenario, CompileError> {
        let context = |message: String| {
            CompileError::nowhere(if point.is_empty() {
                message
            } else {
                format!("{point}: {message}")
            })
        };
        if let ProtocolKind::Frugal(config) = &self.protocol {
            config
                .validate()
                .map_err(|err| context(format!("[protocol] {err}")))?;
        }
        let mobility = match &self.mobility {
            MobilitySpec::RandomWaypoint {
                width_m,
                height_m,
                speed_min_mps,
                speed_max_mps,
                pause,
            } => {
                check_speeds(*speed_min_mps, *speed_max_mps).map_err(&context)?;
                MobilityKind::RandomWaypoint {
                    area: checked_area(*width_m, *height_m).map_err(&context)?,
                    speed_min: *speed_min_mps,
                    speed_max: *speed_max_mps,
                    pause: *pause,
                }
            }
            MobilitySpec::CityCampus => MobilityKind::CityCampus,
            MobilitySpec::Stationary { width_m, height_m } => MobilityKind::Stationary {
                area: checked_area(*width_m, *height_m).map_err(&context)?,
            },
            MobilitySpec::StationaryLine { length_m } => {
                if !(length_m.is_finite() && *length_m > 0.0) {
                    return Err(context(format!(
                        "[mobility] length_m must be positive and finite, got {length_m}"
                    )));
                }
                MobilityKind::StationaryLine { length: *length_m }
            }
        };
        if !(self.radio.range_m.is_finite() && self.radio.range_m > 0.0) {
            return Err(context(format!(
                "[radio] range_m must be positive and finite, got {}",
                self.radio.range_m
            )));
        }
        for publication in &self.publications {
            if let PublisherChoice::Node(index) = publication.publisher {
                if index >= self.nodes {
                    return Err(context(format!(
                        "[[publication]] publisher index {index} is out of range for {} nodes",
                        self.nodes
                    )));
                }
            }
        }
        let scenario = Scenario {
            label: self.label.clone(),
            protocol: self.protocol.clone(),
            mobility,
            radio: self.radio.clone(),
            node_count: self.nodes,
            subscriber_fraction: self.subscriber_fraction,
            subscriber_topic: self.subscriber_topic.clone(),
            bystander_topic: self.bystander_topic.clone(),
            event_topic: self.event_topic.clone(),
            publications: self
                .publications
                .iter()
                .map(|p| Publication {
                    publisher: p.publisher,
                    topic: p.topic.clone(),
                    at: p.at,
                    validity: p.validity,
                    payload_bytes: p.payload_bytes,
                })
                .collect(),
            duration: self.duration,
            warmup: self.warmup,
            mobility_tick: self.mobility_tick,
        };
        scenario
            .validate()
            .map_err(|err: ScenarioError| context(format!("[scenario] {err}")))?;
        Ok(scenario)
    }
}

fn checked_area(width: f64, height: f64) -> Result<Area, String> {
    if width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0 {
        Ok(Area::new(width, height))
    } else {
        Err(format!(
            "[mobility] area dimensions must be positive and finite, got {width} x {height}"
        ))
    }
}

fn check_speeds(speed_min: f64, speed_max: f64) -> Result<(), String> {
    if !(speed_min.is_finite() && speed_max.is_finite() && speed_min > 0.0) {
        return Err(format!(
            "[mobility] speeds must be positive and finite, got {speed_min}..{speed_max} m/s"
        ));
    }
    if speed_min > speed_max {
        return Err(format!(
            "[mobility] speed_min_mps ({speed_min}) exceeds speed_max_mps ({speed_max})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Section decoding.
// ---------------------------------------------------------------------------

/// A named section of the document; every accessor error names the section
/// and carries the position of the offending key or value.
struct Sect<'a> {
    name: String,
    table: &'a Table,
}

impl<'a> Sect<'a> {
    fn new(name: impl Into<String>, table: &'a Table) -> Self {
        Sect {
            name: name.into(),
            table,
        }
    }

    fn err_at(&self, pos: Pos, message: impl fmt::Display) -> CompileError {
        CompileError::at(pos, format!("{} {message}", self.name))
    }

    fn missing(&self, key: &str) -> CompileError {
        self.err_at(self.table.pos, format!("is missing required key `{key}`"))
    }

    fn check_unknown(&self, allowed: &[&str]) -> Result<(), CompileError> {
        match self.table.first_unknown_key(allowed) {
            Some(key) => Err(self.err_at(
                key.pos,
                format!(
                    "unknown key `{}` (expected one of: {})",
                    key.value,
                    allowed.join(", ")
                ),
            )),
            None => Ok(()),
        }
    }

    fn req(&self, key: &str) -> Result<&'a Spanned<Value>, CompileError> {
        self.table.get(key).ok_or_else(|| self.missing(key))
    }

    fn type_err(&self, key: &str, want: &str, got: &Spanned<Value>) -> CompileError {
        self.err_at(
            got.pos,
            format!("`{key}` must be a {want}, got a {}", got.value.type_name()),
        )
    }

    fn req_str(&self, key: &str) -> Result<(&'a str, Pos), CompileError> {
        let spanned = self.req(key)?;
        match &spanned.value {
            Value::Str(s) => Ok((s, spanned.pos)),
            _ => Err(self.type_err(key, "string", spanned)),
        }
    }

    fn opt_f64(&self, key: &str) -> Result<Option<(f64, Pos)>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        let value = match spanned.value {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
            _ => return Err(self.type_err(key, "number", spanned)),
        };
        if !value.is_finite() {
            return Err(self.err_at(spanned.pos, format!("`{key}` must be finite")));
        }
        Ok(Some((value, spanned.pos)))
    }

    fn req_f64(&self, key: &str) -> Result<(f64, Pos), CompileError> {
        self.opt_f64(key)?.ok_or_else(|| self.missing(key))
    }

    fn opt_u64(&self, key: &str) -> Result<Option<(u64, Pos)>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        match spanned.value {
            Value::Int(i) if i >= 0 => Ok(Some((i as u64, spanned.pos))),
            Value::Int(i) => Err(self.err_at(
                spanned.pos,
                format!("`{key}` must be non-negative, got {i}"),
            )),
            _ => Err(self.type_err(key, "non-negative integer", spanned)),
        }
    }

    fn opt_usize(&self, key: &str) -> Result<Option<(usize, Pos)>, CompileError> {
        Ok(self.opt_u64(key)?.map(|(v, pos)| (v as usize, pos)))
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        match spanned.value {
            Value::Bool(b) => Ok(Some(b)),
            _ => Err(self.type_err(key, "boolean", spanned)),
        }
    }

    /// A non-negative duration given in (possibly fractional) seconds.
    fn opt_duration_s(&self, key: &str) -> Result<Option<SimDuration>, CompileError> {
        let Some((secs, pos)) = self.opt_f64(key)? else {
            return Ok(None);
        };
        if secs < 0.0 {
            return Err(self.err_at(pos, format!("`{key}` must be non-negative, got {secs}")));
        }
        Ok(Some(SimDuration::from_secs_f64(secs)))
    }

    fn req_duration_s(&self, key: &str) -> Result<SimDuration, CompileError> {
        self.opt_duration_s(key)?.ok_or_else(|| self.missing(key))
    }

    /// A duration given as an integer number of milliseconds.
    fn opt_duration_ms(&self, key: &str) -> Result<Option<SimDuration>, CompileError> {
        Ok(self
            .opt_u64(key)?
            .map(|(ms, _)| SimDuration::from_millis(ms)))
    }

    fn opt_topic(&self, key: &str) -> Result<Option<Topic>, CompileError> {
        let Some(spanned) = self.table.get(key) else {
            return Ok(None);
        };
        let Value::Str(text) = &spanned.value else {
            return Err(self.type_err(key, "string", spanned));
        };
        text.parse::<Topic>()
            .map(Some)
            .map_err(|err| self.err_at(spanned.pos, format!("`{key}` is not a valid topic: {err}")))
    }
}

/// Checks the root table for unknown sections.
fn root_sections(root: &Table) -> Result<(), CompileError> {
    Sect::new("document:", root).check_unknown(&[
        "scenario",
        "topics",
        "protocol",
        "mobility",
        "radio",
        "publication",
        "seeds",
        "sweep",
    ])
}

/// Fetches a `[section]` sub-table, or errors when it is missing/mis-typed.
fn req_section<'a>(root: &'a Table, name: &str) -> Result<Sect<'a>, CompileError> {
    match root.get(name) {
        Some(spanned) => match &spanned.value {
            Value::Table(table) => Ok(Sect::new(format!("[{name}]"), table)),
            other => Err(CompileError::at(
                spanned.pos,
                format!("`{name}` must be a table, got a {}", other.type_name()),
            )),
        },
        None => Err(CompileError::at(
            root.pos,
            format!("missing required section [{name}]"),
        )),
    }
}

fn opt_section<'a>(root: &'a Table, name: &str) -> Result<Option<Sect<'a>>, CompileError> {
    match root.get(name) {
        None => Ok(None),
        Some(_) => req_section(root, name).map(Some),
    }
}

fn decode_spec(root: &Table) -> Result<ScenarioSpec, CompileError> {
    let scenario = req_section(root, "scenario")?;
    scenario.check_unknown(&[
        "label",
        "nodes",
        "subscriber_fraction",
        "warmup_s",
        "duration_s",
        "mobility_tick_ms",
    ])?;
    let (label, _) = scenario.req_str("label")?;
    let (nodes, nodes_pos) = scenario
        .opt_usize("nodes")?
        .ok_or_else(|| scenario.missing("nodes"))?;
    if nodes == 0 {
        return Err(scenario.err_at(nodes_pos, "`nodes` must be at least 1"));
    }
    if u32::try_from(nodes).is_err() {
        return Err(scenario.err_at(nodes_pos, too_many_nodes(nodes as f64)));
    }
    let (subscriber_fraction, fraction_pos) = scenario.req_f64("subscriber_fraction")?;
    if !(0.0..=1.0).contains(&subscriber_fraction) {
        return Err(scenario.err_at(
            fraction_pos,
            format!("`subscriber_fraction` must be within [0, 1], got {subscriber_fraction}"),
        ));
    }
    let warmup = scenario.req_duration_s("warmup_s")?;
    let duration = scenario.req_duration_s("duration_s")?;
    let mobility_tick = scenario
        .opt_duration_ms("mobility_tick_ms")?
        .unwrap_or(SimDuration::from_millis(500));

    let (subscriber_topic, event_topic, bystander_topic) = decode_topics(root)?;
    let protocol = decode_protocol(root)?;
    let mobility = decode_mobility(root)?;
    let radio = decode_radio(root)?;
    let publications = decode_publications(root, &event_topic)?;

    Ok(ScenarioSpec {
        label: label.to_owned(),
        nodes,
        subscriber_fraction,
        warmup,
        duration,
        mobility_tick,
        subscriber_topic,
        event_topic,
        bystander_topic,
        protocol,
        mobility,
        radio,
        publications,
    })
}

fn decode_topics(root: &Table) -> Result<(Topic, Topic, Topic), CompileError> {
    let default = |text: &str| text.parse::<Topic>().expect("static default topic");
    let Some(topics) = opt_section(root, "topics")? else {
        return Ok((
            default(".news"),
            default(".news.local"),
            default(".background.chatter"),
        ));
    };
    topics.check_unknown(&["subscriber", "event", "bystander"])?;
    Ok((
        topics
            .opt_topic("subscriber")?
            .unwrap_or_else(|| default(".news")),
        topics
            .opt_topic("event")?
            .unwrap_or_else(|| default(".news.local")),
        topics
            .opt_topic("bystander")?
            .unwrap_or_else(|| default(".background.chatter")),
    ))
}

fn decode_protocol(root: &Table) -> Result<ProtocolKind, CompileError> {
    let protocol = req_section(root, "protocol")?;
    let (kind, kind_pos) = protocol.req_str("kind")?;
    match kind {
        "frugal" => {
            protocol.check_unknown(&[
                "kind",
                "hb_delay_default_ms",
                "x",
                "hb2bo",
                "hb2ngc",
                "hb_upper_bound_ms",
                "hb_lower_bound_ms",
                "event_table_capacity",
                "adapt_to_speed",
                "bo_jitter_fraction",
                "departed_memory_capacity",
                "heartbeat_size_bytes",
                "message_header_bytes",
            ])?;
            let mut config = ProtocolConfig::paper_default();
            if let Some(d) = protocol.opt_duration_ms("hb_delay_default_ms")? {
                config.hb_delay_default = d;
            }
            if let Some((x, _)) = protocol.opt_f64("x")? {
                config.x = x;
            }
            if let Some((v, _)) = protocol.opt_f64("hb2bo")? {
                config.hb2bo = v;
            }
            if let Some((v, _)) = protocol.opt_f64("hb2ngc")? {
                config.hb2ngc = v;
            }
            if let Some(d) = protocol.opt_duration_ms("hb_upper_bound_ms")? {
                config.hb_upper_bound = d;
            }
            if let Some(d) = protocol.opt_duration_ms("hb_lower_bound_ms")? {
                config.hb_lower_bound = d;
            }
            if let Some((v, _)) = protocol.opt_usize("event_table_capacity")? {
                config.event_table_capacity = v;
            }
            if let Some(v) = protocol.opt_bool("adapt_to_speed")? {
                config.adapt_to_speed = v;
            }
            if let Some((v, _)) = protocol.opt_f64("bo_jitter_fraction")? {
                config.bo_jitter_fraction = v;
            }
            if let Some((v, _)) = protocol.opt_usize("departed_memory_capacity")? {
                config.departed_memory_capacity = v;
            }
            if let Some((v, _)) = protocol.opt_usize("heartbeat_size_bytes")? {
                config.heartbeat_size_bytes = v;
            }
            if let Some((v, _)) = protocol.opt_usize("message_header_bytes")? {
                config.message_header_bytes = v;
            }
            config
                .validate()
                .map_err(|err| protocol.err_at(protocol.table.pos, err))?;
            Ok(ProtocolKind::Frugal(config))
        }
        "simple-flooding" | "interests-aware-flooding" | "neighbors-interests-flooding" => {
            if let Some(key) = protocol.table.first_unknown_key(&["kind"]) {
                return Err(protocol.err_at(
                    key.pos,
                    format!("key `{}` only applies to kind = \"frugal\"", key.value),
                ));
            }
            Ok(ProtocolKind::Flooding(match kind {
                "simple-flooding" => FloodingPolicy::Simple,
                "interests-aware-flooding" => FloodingPolicy::InterestAware,
                _ => FloodingPolicy::NeighborInterest,
            }))
        }
        other => Err(protocol.err_at(
            kind_pos,
            format!(
                "unknown protocol kind `{other}` (expected frugal, simple-flooding, \
                 interests-aware-flooding or neighbors-interests-flooding)"
            ),
        )),
    }
}

fn decode_mobility(root: &Table) -> Result<MobilitySpec, CompileError> {
    let mobility = req_section(root, "mobility")?;
    let (model, model_pos) = mobility.req_str("model")?;
    match model {
        "random-waypoint" => {
            mobility.check_unknown(&[
                "model",
                "width_m",
                "height_m",
                "speed_min_mps",
                "speed_max_mps",
                "pause_s",
            ])?;
            let (width_m, _) = mobility.req_f64("width_m")?;
            let (height_m, _) = mobility.req_f64("height_m")?;
            let (speed_min_mps, _) = mobility.req_f64("speed_min_mps")?;
            let (speed_max_mps, speed_pos) = mobility.req_f64("speed_max_mps")?;
            check_speeds(speed_min_mps, speed_max_mps)
                .map_err(|err| CompileError::at(speed_pos, err))?;
            checked_area(width_m, height_m)
                .map_err(|err| CompileError::at(mobility.table.pos, err))?;
            Ok(MobilitySpec::RandomWaypoint {
                width_m,
                height_m,
                speed_min_mps,
                speed_max_mps,
                pause: mobility.req_duration_s("pause_s")?,
            })
        }
        "city-campus" => {
            mobility.check_unknown(&["model"])?;
            Ok(MobilitySpec::CityCampus)
        }
        "stationary" => {
            mobility.check_unknown(&["model", "width_m", "height_m"])?;
            let (width_m, _) = mobility.req_f64("width_m")?;
            let (height_m, _) = mobility.req_f64("height_m")?;
            checked_area(width_m, height_m)
                .map_err(|err| CompileError::at(mobility.table.pos, err))?;
            Ok(MobilitySpec::Stationary { width_m, height_m })
        }
        "stationary-line" => {
            mobility.check_unknown(&["model", "length_m"])?;
            let (length_m, length_pos) = mobility.req_f64("length_m")?;
            if length_m <= 0.0 {
                return Err(mobility.err_at(
                    length_pos,
                    format!("`length_m` must be positive, got {length_m}"),
                ));
            }
            Ok(MobilitySpec::StationaryLine { length_m })
        }
        other => Err(mobility.err_at(
            model_pos,
            format!(
                "unknown mobility model `{other}` (expected random-waypoint, city-campus, \
                 stationary or stationary-line)"
            ),
        )),
    }
}

fn decode_radio(root: &Table) -> Result<RadioConfig, CompileError> {
    let radio = req_section(root, "radio")?;
    radio.check_unknown(&[
        "preset",
        "bit_rate",
        "range_m",
        "overhead_bytes",
        "fringe_loss_probability",
        "fringe_start_fraction",
        "max_contention_jitter_ms",
    ])?;
    let (preset, preset_pos) = radio.req_str("preset")?;
    let mut config = match preset {
        "paper-random-waypoint" => RadioConfig::paper_random_waypoint(),
        "paper-city-section" => RadioConfig::paper_city_section(),
        "ideal" => {
            let (range_m, range_pos) = radio.req_f64("range_m")?;
            if range_m <= 0.0 {
                return Err(radio.err_at(
                    range_pos,
                    format!("`range_m` must be positive, got {range_m}"),
                ));
            }
            RadioConfig::ideal(range_m)
        }
        other => {
            return Err(radio.err_at(
                preset_pos,
                format!(
                    "unknown radio preset `{other}` (expected paper-random-waypoint, \
                     paper-city-section or ideal)"
                ),
            ))
        }
    };
    if let Some(spanned) = radio.table.get("bit_rate") {
        let Value::Str(rate) = &spanned.value else {
            return Err(radio.type_err("bit_rate", "string", spanned));
        };
        config.bit_rate = match rate.as_str() {
            "1mbps" => BitRate::Mbps1,
            "2mbps" => BitRate::Mbps2,
            "6mbps" => BitRate::Mbps6,
            "11mbps" => BitRate::Mbps11,
            other => {
                return Err(radio.err_at(
                    spanned.pos,
                    format!("unknown bit rate `{other}` (expected 1mbps, 2mbps, 6mbps or 11mbps)"),
                ))
            }
        };
    }
    if let Some((range_m, range_pos)) = radio.opt_f64("range_m")? {
        if range_m <= 0.0 {
            return Err(radio.err_at(
                range_pos,
                format!("`range_m` must be positive, got {range_m}"),
            ));
        }
        config.range_m = range_m;
    }
    if let Some((v, _)) = radio.opt_usize("overhead_bytes")? {
        config.overhead_bytes = v;
    }
    if let Some((p, pos)) = radio.opt_f64("fringe_loss_probability")? {
        if !(0.0..=1.0).contains(&p) {
            return Err(radio.err_at(
                pos,
                format!("`fringe_loss_probability` must be within [0, 1], got {p}"),
            ));
        }
        config.fringe_loss_probability = p;
    }
    if let Some((f, pos)) = radio.opt_f64("fringe_start_fraction")? {
        if !(0.0..=1.0).contains(&f) {
            return Err(radio.err_at(
                pos,
                format!("`fringe_start_fraction` must be within [0, 1], got {f}"),
            ));
        }
        config.fringe_start_fraction = f;
    }
    if let Some(d) = radio.opt_duration_ms("max_contention_jitter_ms")? {
        config.max_contention_jitter = d;
    }
    Ok(config)
}

fn decode_publications(
    root: &Table,
    event_topic: &Topic,
) -> Result<Vec<PublicationSpec>, CompileError> {
    let Some(spanned) = root.get("publication") else {
        return Ok(Vec::new());
    };
    let Value::Array(items) = &spanned.value else {
        return Err(CompileError::at(
            spanned.pos,
            format!(
                "`publication` must be an array of tables ([[publication]]), got a {}",
                spanned.value.type_name()
            ),
        ));
    };
    let mut publications = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Value::Table(table) = &item.value else {
            return Err(CompileError::at(
                item.pos,
                format!(
                    "`publication` entries must be tables, got a {}",
                    item.value.type_name()
                ),
            ));
        };
        let section = Sect::new(format!("[[publication]] #{}", index + 1), table);
        section.check_unknown(&["publisher", "topic", "at_s", "validity_s", "payload_bytes"])?;
        let publisher = decode_publisher(&section)?;
        let topic = section
            .opt_topic("topic")?
            .unwrap_or_else(|| event_topic.clone());
        let at_s = section.req_duration_s("at_s")?;
        let validity = section.req_duration_s("validity_s")?;
        let payload_bytes = section.opt_usize("payload_bytes")?.map_or(400, |(v, _)| v);
        publications.push(PublicationSpec {
            publisher,
            topic,
            at: SimTime::ZERO + at_s,
            validity,
            payload_bytes,
        });
    }
    Ok(publications)
}

fn decode_publisher(section: &Sect<'_>) -> Result<PublisherChoice, CompileError> {
    let spanned = section.req("publisher")?;
    match &spanned.value {
        Value::Str(text) => match text.as_str() {
            "random-subscriber" => Ok(PublisherChoice::RandomSubscriber),
            "random-any" => Ok(PublisherChoice::RandomAny),
            other => Err(section.err_at(
                spanned.pos,
                format!(
                    "unknown publisher `{other}` (expected random-subscriber, random-any \
                     or a node index)"
                ),
            )),
        },
        Value::Int(i) if *i >= 0 => Ok(PublisherChoice::Node(*i as usize)),
        Value::Int(i) => Err(section.err_at(
            spanned.pos,
            format!("`publisher` node index must be non-negative, got {i}"),
        )),
        _ => Err(section.type_err("publisher", "string or node index", spanned)),
    }
}

fn decode_seeds(root: &Table) -> Result<SeedPlan, CompileError> {
    let Some(seeds) = opt_section(root, "seeds")? else {
        return Ok(SeedPlan::quick());
    };
    seeds.check_unknown(&["first", "runs"])?;
    let first = seeds.opt_u64("first")?.map_or(1, |(v, _)| v);
    let runs = seeds.opt_u64("runs")?.map_or(3, |(v, _)| v);
    Ok(SeedPlan::new(first, runs))
}

fn decode_sweeps(root: &Table) -> Result<Vec<SweepAxis>, CompileError> {
    let Some(spanned) = root.get("sweep") else {
        return Ok(Vec::new());
    };
    let Value::Array(items) = &spanned.value else {
        return Err(CompileError::at(
            spanned.pos,
            format!(
                "`sweep` must be an array of tables ([[sweep]]), got a {}",
                spanned.value.type_name()
            ),
        ));
    };
    let mut axes: Vec<SweepAxis> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Value::Table(table) = &item.value else {
            return Err(CompileError::at(
                item.pos,
                format!(
                    "`sweep` entries must be tables, got a {}",
                    item.value.type_name()
                ),
            ));
        };
        let section = Sect::new(format!("[[sweep]] #{}", index + 1), table);
        section.check_unknown(&["param", "values"])?;
        let (param, param_pos) = section.req_str("param")?;
        check_sweep_param(param, Some(param_pos))?;
        if axes.iter().any(|a| a.param == param) {
            return Err(section.err_at(
                param_pos,
                format!("parameter `{param}` is swept by more than one axis"),
            ));
        }
        let values_spanned = section.req("values")?;
        let Value::Array(raw_values) = &values_spanned.value else {
            return Err(section.type_err("values", "array of numbers", values_spanned));
        };
        if raw_values.is_empty() {
            return Err(section.err_at(values_spanned.pos, "`values` must not be empty"));
        }
        let mut values = Vec::with_capacity(raw_values.len());
        for raw in raw_values {
            let value = match raw.value {
                Value::Int(i) => i as f64,
                Value::Float(f) if f.is_finite() => f,
                _ => {
                    return Err(section.err_at(
                        raw.pos,
                        format!(
                            "sweep values must be finite numbers, got a {}",
                            raw.value.type_name()
                        ),
                    ))
                }
            };
            if param == "nodes" && value > f64::from(u32::MAX) {
                return Err(section.err_at(raw.pos, too_many_nodes(value)));
            }
            values.push(value);
        }
        axes.push(SweepAxis {
            param: param.to_owned(),
            values,
        });
    }
    Ok(axes)
}

/// The error for a population that a 32-bit node id cannot index.
fn too_many_nodes(nodes: f64) -> String {
    format!(
        "`nodes` must be at most {} (node ids are 32-bit), got {nodes}",
        u32::MAX
    )
}

fn check_sweep_param(param: &str, pos: Option<Pos>) -> Result<(), CompileError> {
    if SweepAxis::SUPPORTED.contains(&param) {
        return Ok(());
    }
    let message = format!(
        "unknown sweep parameter `{param}` (supported: {})",
        SweepAxis::SUPPORTED.join(", ")
    );
    Err(match pos {
        Some(pos) => CompileError::at(pos, message),
        None => CompileError::nowhere(message),
    })
}

// ---------------------------------------------------------------------------
// Sweep application and matrix expansion.
// ---------------------------------------------------------------------------

/// Applies one `param = value` sweep assignment to a spec clone.
fn apply_sweep(spec: &mut ScenarioSpec, param: &str, value: f64) -> Result<(), String> {
    let as_count = |what: &str| -> Result<usize, String> {
        if value >= 0.0 && value.fract() == 0.0 && value <= u32::MAX as f64 {
            Ok(value as usize)
        } else {
            Err(format!(
                "{what} must be a non-negative integer, got {value}"
            ))
        }
    };
    let as_ms = |what: &str| -> Result<SimDuration, String> {
        as_count(what).map(|ms| SimDuration::from_millis(ms as u64))
    };
    let as_secs = |what: &str| -> Result<SimDuration, String> {
        if value >= 0.0 && value.is_finite() {
            Ok(SimDuration::from_secs_f64(value))
        } else {
            Err(format!("{what} must be a non-negative number, got {value}"))
        }
    };
    fn frugal<'a>(
        spec: &'a mut ScenarioSpec,
        param: &str,
    ) -> Result<&'a mut ProtocolConfig, String> {
        match &mut spec.protocol {
            ProtocolKind::Frugal(config) => Ok(config),
            ProtocolKind::Flooding(_) => Err(format!(
                "`{param}` only applies to the frugal protocol, but the scenario floods"
            )),
        }
    }
    match param {
        "nodes" => {
            spec.nodes = as_count("nodes")?;
            if spec.nodes == 0 {
                return Err("nodes must be at least 1".to_owned());
            }
        }
        "subscriber_fraction" => {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "subscriber_fraction must be within [0, 1], got {value}"
                ));
            }
            spec.subscriber_fraction = value;
        }
        "warmup_s" => spec.warmup = as_secs("warmup_s")?,
        "duration_s" => spec.duration = as_secs("duration_s")?,
        "mobility_tick_ms" => {
            spec.mobility_tick = as_ms("mobility_tick_ms")?;
            if spec.mobility_tick.is_zero() {
                return Err("mobility_tick_ms must be positive".to_owned());
            }
        }
        "protocol.hb_delay_default_ms" => frugal(spec, param)?.hb_delay_default = as_ms(param)?,
        "protocol.hb_upper_bound_ms" => frugal(spec, param)?.hb_upper_bound = as_ms(param)?,
        "protocol.hb_lower_bound_ms" => frugal(spec, param)?.hb_lower_bound = as_ms(param)?,
        "protocol.x" => frugal(spec, param)?.x = value,
        "protocol.hb2bo" => frugal(spec, param)?.hb2bo = value,
        "protocol.hb2ngc" => frugal(spec, param)?.hb2ngc = value,
        "protocol.bo_jitter_fraction" => frugal(spec, param)?.bo_jitter_fraction = value,
        "protocol.event_table_capacity" => {
            frugal(spec, param)?.event_table_capacity = as_count(param)?;
        }
        "protocol.departed_memory_capacity" => {
            frugal(spec, param)?.departed_memory_capacity = as_count(param)?;
        }
        "mobility.speed_min_mps" | "mobility.speed_max_mps" => match &mut spec.mobility {
            MobilitySpec::RandomWaypoint {
                speed_min_mps,
                speed_max_mps,
                ..
            } => {
                if param == "mobility.speed_min_mps" {
                    *speed_min_mps = value;
                } else {
                    *speed_max_mps = value;
                }
            }
            _ => {
                return Err(format!(
                    "`{param}` only applies to the random-waypoint mobility model"
                ))
            }
        },
        "mobility.pause_s" => match &mut spec.mobility {
            MobilitySpec::RandomWaypoint { pause, .. } => *pause = as_secs(param)?,
            _ => {
                return Err(format!(
                    "`{param}` only applies to the random-waypoint mobility model"
                ))
            }
        },
        "radio.range_m" => {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("radio.range_m must be positive, got {value}"));
            }
            spec.radio.range_m = value;
        }
        "radio.fringe_loss_probability" => {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "radio.fringe_loss_probability must be within [0, 1], got {value}"
                ));
            }
            spec.radio.fringe_loss_probability = value;
        }
        "radio.fringe_start_fraction" => {
            if !(0.0..=1.0).contains(&value) {
                return Err(format!(
                    "radio.fringe_start_fraction must be within [0, 1], got {value}"
                ));
            }
            spec.radio.fringe_start_fraction = value;
        }
        "publication.at_s" => {
            let at = SimTime::ZERO + as_secs(param)?;
            for publication in &mut spec.publications {
                publication.at = at;
            }
        }
        "publication.validity_s" => {
            let validity = as_secs(param)?;
            for publication in &mut spec.publications {
                publication.validity = validity;
            }
        }
        "publication.payload_bytes" => {
            let bytes = as_count(param)?;
            for publication in &mut spec.publications {
                publication.payload_bytes = bytes;
            }
        }
        // `check_sweep_param` runs before expansion, so this is unreachable
        // for user input; keep a readable error anyway.
        other => return Err(format!("unknown sweep parameter `{other}`")),
    }
    Ok(())
}

/// Renders an axis value the way it was written (`20`, not `20.0`).
fn fmt_axis_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn expand_matrix(
    spec: &ScenarioSpec,
    axes: &[SweepAxis],
) -> Result<Vec<MatrixPoint>, CompileError> {
    if axes.is_empty() {
        return Ok(vec![MatrixPoint {
            label: spec.label.clone(),
            scenario: spec.build("")?,
        }]);
    }
    let total: usize = axes
        .iter()
        .map(|a| a.values.len())
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if total > MAX_MATRIX_POINTS {
        return Err(CompileError::nowhere(format!(
            "sweep axes expand to {total} matrix points, more than the {MAX_MATRIX_POINTS} cap"
        )));
    }
    let mut points = Vec::with_capacity(total);
    let mut indices = vec![0usize; axes.len()];
    loop {
        let mut point_spec = spec.clone();
        let mut assignments = Vec::with_capacity(axes.len());
        for (axis, &value_index) in axes.iter().zip(&indices) {
            let value = axis.values[value_index];
            let assignment = format!("{}={}", axis.param, fmt_axis_value(value));
            apply_sweep(&mut point_spec, &axis.param, value)
                .map_err(|err| CompileError::nowhere(format!("sweep {assignment}: {err}")))?;
            assignments.push(assignment);
        }
        let label = assignments.join(", ");
        let scenario = point_spec.build(&label)?;
        points.push(MatrixPoint { label, scenario });

        // Odometer increment, last axis fastest.
        let mut axis = axes.len();
        loop {
            if axis == 0 {
                return Ok(points);
            }
            axis -= 1;
            indices[axis] += 1;
            if indices[axis] < axes[axis].values.len() {
                break;
            }
            indices[axis] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
label = \"minimal\"
nodes = 6
subscriber_fraction = 1.0
warmup_s = 2.0
duration_s = 22.0

[protocol]
kind = \"frugal\"

[mobility]
model = \"random-waypoint\"
width_m = 200.0
height_m = 200.0
speed_min_mps = 5.0
speed_max_mps = 5.0
pause_s = 1.0

[radio]
preset = \"ideal\"
range_m = 120.0

[[publication]]
publisher = 0
at_s = 3.0
validity_s = 19.0
";

    fn patch(base: &str, from: &str, to: &str) -> String {
        assert!(base.contains(from), "patch source must contain `{from}`");
        base.replace(from, to)
    }

    #[test]
    fn minimal_document_compiles() {
        let compiled = compile_str(MINIMAL).unwrap();
        assert_eq!(compiled.label, "minimal");
        assert_eq!(compiled.seeds, SeedPlan::quick());
        assert_eq!(compiled.points.len(), 1);
        let scenario = &compiled.points[0].scenario;
        assert_eq!(compiled.points[0].label, "minimal");
        assert_eq!(scenario.node_count, 6);
        assert_eq!(scenario.subscriber_fraction, 1.0);
        assert_eq!(scenario.warmup, SimDuration::from_secs(2));
        assert_eq!(scenario.duration, SimDuration::from_secs(22));
        assert_eq!(scenario.mobility_tick, SimDuration::from_millis(500));
        assert_eq!(
            scenario.protocol,
            ProtocolKind::Frugal(ProtocolConfig::paper_default())
        );
        assert_eq!(scenario.radio, RadioConfig::ideal(120.0));
        assert_eq!(scenario.subscriber_topic, ".news".parse().unwrap());
        assert_eq!(scenario.event_topic, ".news.local".parse().unwrap());
        assert_eq!(scenario.publications.len(), 1);
        let publication = &scenario.publications[0];
        assert_eq!(publication.publisher, PublisherChoice::Node(0));
        assert_eq!(publication.topic, ".news.local".parse().unwrap());
        assert_eq!(publication.at, SimTime::from_secs(3));
        assert_eq!(publication.validity, SimDuration::from_secs(19));
        assert_eq!(publication.payload_bytes, 400);
        assert!(matches!(
            scenario.mobility,
            MobilityKind::RandomWaypoint { .. }
        ));
    }

    #[test]
    fn protocol_knobs_and_overrides_decode() {
        let source = patch(
            MINIMAL,
            "kind = \"frugal\"",
            "kind = \"frugal\"\nhb_upper_bound_ms = 5000\nevent_table_capacity = 4\nadapt_to_speed = false",
        );
        let compiled = compile_str(&source).unwrap();
        let ProtocolKind::Frugal(config) = &compiled.points[0].scenario.protocol else {
            panic!("frugal scenario")
        };
        assert_eq!(config.hb_upper_bound, SimDuration::from_secs(5));
        assert_eq!(config.event_table_capacity, 4);
        assert!(!config.adapt_to_speed);
        // Everything not overridden keeps the paper default.
        assert_eq!(config.x, 40.0);
    }

    #[test]
    fn flooding_kinds_decode_and_reject_frugal_knobs() {
        for (kind, policy) in [
            ("simple-flooding", FloodingPolicy::Simple),
            ("interests-aware-flooding", FloodingPolicy::InterestAware),
            (
                "neighbors-interests-flooding",
                FloodingPolicy::NeighborInterest,
            ),
        ] {
            let source = patch(MINIMAL, "kind = \"frugal\"", &format!("kind = \"{kind}\""));
            let compiled = compile_str(&source).unwrap();
            assert_eq!(
                compiled.points[0].scenario.protocol,
                ProtocolKind::Flooding(policy)
            );
        }
        let source = patch(
            MINIMAL,
            "kind = \"frugal\"",
            "kind = \"simple-flooding\"\nx = 3.0",
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("only applies to kind = \"frugal\""),
            "{err}"
        );
        assert!(err.pos.is_some());
    }

    #[test]
    fn unknown_keys_are_rejected_with_positions() {
        let source = patch(MINIMAL, "nodes = 6", "nodez = 6");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("unknown key `nodez`"), "{err}");
        let pos = err.pos.unwrap();
        assert_eq!(pos.line, 3);
        // The missing required key is also reported.
        let source = patch(MINIMAL, "nodes = 6\n", "");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("missing required key `nodes`"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_values_are_rejected_with_positions() {
        let source = patch(
            MINIMAL,
            "subscriber_fraction = 1.0",
            "subscriber_fraction = 1.5",
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("`subscriber_fraction` must be within [0, 1], got 1.5"),
            "{err}"
        );
        assert_eq!(err.pos.unwrap().line, 4);

        for (nodes, expected) in [
            ("nodes = 0", "`nodes` must be at least 1"),
            ("nodes = 4294967296", "`nodes` must be at most 4294967295"),
        ] {
            let source = patch(MINIMAL, "nodes = 6", nodes);
            let err = compile_str(&source).unwrap_err();
            assert!(err.message.contains(expected), "{err}");
            assert_eq!(err.pos.unwrap().line, 3);
        }
        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [4, 4294967296]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("`nodes` must be at most 4294967295"),
            "{err}"
        );
        assert!(err.pos.is_some(), "{err}");
    }

    #[test]
    fn publisher_out_of_range_is_rejected() {
        let source = patch(MINIMAL, "publisher = 0", "publisher = 6");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("publisher index 6 is out of range for 6 nodes"),
            "{err}"
        );
    }

    #[test]
    fn bad_section_kinds_are_rejected() {
        let err = compile_str(&patch(
            MINIMAL,
            "model = \"random-waypoint\"",
            "model = \"teleport\"",
        ))
        .unwrap_err();
        assert!(
            err.message.contains("unknown mobility model `teleport`"),
            "{err}"
        );
        let err =
            compile_str(&patch(MINIMAL, "preset = \"ideal\"", "preset = \"cable\"")).unwrap_err();
        assert!(
            err.message.contains("unknown radio preset `cable`"),
            "{err}"
        );
        let err =
            compile_str(&patch(MINIMAL, "kind = \"frugal\"", "kind = \"gossip\"")).unwrap_err();
        assert!(
            err.message.contains("unknown protocol kind `gossip`"),
            "{err}"
        );
        let err = compile_str(&patch(MINIMAL, "[radio]", "[rodeo]")).unwrap_err();
        assert!(err.message.contains("unknown key `rodeo`"), "{err}");
        let err = compile_str("").unwrap_err();
        assert!(
            err.message.contains("missing required section [scenario]"),
            "{err}"
        );
    }

    #[test]
    fn seeds_and_sweeps_decode() {
        let source = format!(
            "{MINIMAL}\n[seeds]\nfirst = 7\nruns = 4\n\n\
             [[sweep]]\nparam = \"nodes\"\nvalues = [4, 8]\n\n\
             [[sweep]]\nparam = \"radio.range_m\"\nvalues = [100.0, 150.0, 200.0]\n"
        );
        let compiled = compile_str(&source).unwrap();
        assert_eq!(compiled.seeds, SeedPlan::new(7, 4));
        assert_eq!(compiled.points.len(), 6);
        // Last axis fastest; labels carry the assignments.
        assert_eq!(compiled.points[0].label, "nodes=4, radio.range_m=100");
        assert_eq!(compiled.points[1].label, "nodes=4, radio.range_m=150");
        assert_eq!(compiled.points[3].label, "nodes=8, radio.range_m=100");
        assert_eq!(compiled.points[3].scenario.node_count, 8);
        assert_eq!(compiled.points[3].scenario.radio.range_m, 100.0);
        // The base scenario is untouched by sweeps.
        assert_eq!(compiled.points[0].scenario.label, "minimal");
    }

    #[test]
    fn sweep_errors_are_reported() {
        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"warp\"\nvalues = [1]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("unknown sweep parameter `warp`"),
            "{err}"
        );
        assert!(err.pos.is_some());

        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = []\n");
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("`values` must not be empty"), "{err}");

        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [2.5]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("sweep nodes=2.5") && err.message.contains("non-negative integer"),
            "{err}"
        );

        let source = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [1]\n\n\
             [[sweep]]\nparam = \"nodes\"\nvalues = [2]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("more than one axis"), "{err}");

        // A sweep value that produces an invalid scenario names the point.
        let source =
            format!("{MINIMAL}\n[[sweep]]\nparam = \"subscriber_fraction\"\nvalues = [0.5, 2.0]\n");
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message
                .contains("subscriber_fraction must be within [0, 1], got 2"),
            "{err}"
        );
    }

    #[test]
    fn cli_axes_merge_and_override() {
        let source = format!("{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [4, 8]\n");
        let override_axis: SweepAxis = "nodes=2,3,5".parse().unwrap();
        let extra_axis: SweepAxis = "publication.payload_bytes=100,800".parse().unwrap();
        let compiled = compile_str_with_sweeps(&source, &[override_axis, extra_axis]).unwrap();
        assert_eq!(compiled.points.len(), 6);
        assert_eq!(
            compiled.points[0].label,
            "nodes=2, publication.payload_bytes=100"
        );
        assert_eq!(compiled.points[5].scenario.node_count, 5);
        assert_eq!(
            compiled.points[5].scenario.publications[0].payload_bytes,
            800
        );
    }

    #[test]
    fn sweep_axis_cli_parsing() {
        let axis: SweepAxis = "radio.range_m=100,150.5".parse().unwrap();
        assert_eq!(axis.param, "radio.range_m");
        assert_eq!(axis.values, vec![100.0, 150.5]);
        assert!("no-equals".parse::<SweepAxis>().is_err());
        assert!("x=1,banana".parse::<SweepAxis>().is_err());
        assert!("=1".parse::<SweepAxis>().is_err());
    }

    #[test]
    fn matrix_size_is_capped() {
        let values: Vec<String> = (1..=70).map(|v| v.to_string()).collect();
        let values = values.join(", ");
        let source = format!(
            "{MINIMAL}\n[[sweep]]\nparam = \"nodes\"\nvalues = [{values}]\n\n\
             [[sweep]]\nparam = \"publication.payload_bytes\"\nvalues = [{values}]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(err.message.contains("4900 matrix points"), "{err}");
    }

    #[test]
    fn frugal_sweeps_reject_flooding_scenarios() {
        let source = patch(MINIMAL, "kind = \"frugal\"", "kind = \"simple-flooding\"");
        let source = format!(
            "{source}\n[[sweep]]\nparam = \"protocol.hb_upper_bound_ms\"\nvalues = [1000]\n"
        );
        let err = compile_str(&source).unwrap_err();
        assert!(
            err.message.contains("only applies to the frugal protocol"),
            "{err}"
        );
    }

    #[test]
    fn compiled_scenarios_actually_run() {
        let compiled = compile_str(MINIMAL).unwrap();
        let report = crate::world::World::new(compiled.points[0].scenario.clone(), 1)
            .unwrap()
            .run();
        assert_eq!(report.seed, 1);
    }

    #[test]
    fn compile_path_reports_missing_files() {
        let err = compile_path("/nonexistent/scenario.toml", &[]).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");
        assert!(err.pos.is_none());
    }

    #[test]
    fn error_display_includes_position() {
        let err = CompileError::at(Pos { line: 3, col: 7 }, "[scenario] boom");
        assert_eq!(err.to_string(), "3:7: [scenario] boom");
        let err = CompileError::nowhere("boom");
        assert_eq!(err.to_string(), "boom");
    }
}
