//! The wire form of a simulator configuration: [`JobSpec`].
//!
//! [`SimBuilder`] is the single in-process construction choke point; this
//! module gives the same configuration a *serial* form so it can cross a
//! process boundary (the `fedsched-serve` HTTP API), be fingerprinted for
//! caching, and be replayed for crash recovery. The design constraints:
//!
//! * **Round-trip exactness.** `JobSpec -> SimBuilder::from_spec ->
//!   SimBuilder::to_spec` is the identity, and `JobSpec -> JSON ->
//!   JobSpec` is the identity — including `u64` seeds above 2^53 (encoded
//!   as decimal strings, see [`u64_to_json`]) and non-finite floats like
//!   `RetryPolicy::single_attempt().timeout_s` (encoded as `"inf"`).
//! * **Determinism.** Encoding is canonical: one fixed field order, `None`
//!   knobs omitted, floats in shortest-round-trip form. Equal specs
//!   produce equal bytes, so [`JobSpec::fingerprint`] is a stable cache
//!   key and snapshot files diff cleanly.
//! * **Same errors on both paths.** Anything a spec can get wrong maps to
//!   the same [`ConfigError`] (and thus the same
//!   [`cause_code`](ConfigError::cause_code)) the in-process builder
//!   raises; malformed documents get the dedicated
//!   [`ConfigError::InvalidSpec`] code. Configurations that carry
//!   host-side objects (closures, custom injectors, ad-hoc fleets) are
//!   rejected by [`SimBuilder::to_spec`] with
//!   [`ConfigError::NotSerializable`] rather than silently dropped.
//!
//! The vendored `serde` is a marker stub, so encoding goes through
//! [`fedsched_core::json`] by hand — field by field, in one place, here.

use fedsched_bandit::{MaybeSeeded, PolicyKind, SelectionConfig};
use fedsched_core::json::{self, JsonError, JsonValue};
use fedsched_core::{DeadlinePolicy, Schedule};
use fedsched_device::{DeviceModel, Testbed, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, AttackKind, ChurnConfig, DriftConfig, FaultConfig};
use fedsched_net::{Link, RetryPolicy};
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::Probe;

use crate::builder::{AsyncOptions, ConfigError, RoundConfig, Selection, SimBuilder};
use crate::cohorts::{EngineKind, ParallelRoundEngine};
use crate::eventsim::{AdmissionPolicy, EventRoundSim};
use crate::roundsim::RoundSim;

/// Wire-format version stamped into every encoded spec. Bump on any
/// incompatible schema change; decoding rejects unknown versions.
pub const SPEC_VERSION: u64 = 1;

fn bad(problem: impl Into<String>) -> ConfigError {
    ConfigError::InvalidSpec(problem.into())
}

fn shape(err: JsonError) -> ConfigError {
    ConfigError::InvalidSpec(err.to_string())
}

/// Which terminal `build_*` method a job spec targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildTarget {
    /// [`SimBuilder::build_sim`] — the quiet sequential sim.
    Sim,
    /// [`SimBuilder::build_resilient`] — sequential fault-tolerant sim.
    Resilient,
    /// [`SimBuilder::build_event_sim`] — sequential fault-tolerant sim
    /// that also takes churn and admission.
    EventSim,
    /// [`SimBuilder::build_engine`] — the parallel cohort engine.
    Engine,
    /// [`SimBuilder::build_coordinator`] — the cohort engine with a
    /// pooled global deadline or buffered-async merging.
    Coordinator,
    /// [`SimBuilder::build_hier`] — the cohort engine with an edge tier.
    Hier,
}

impl BuildTarget {
    /// Stable snake_case wire tag.
    pub fn name(&self) -> &'static str {
        match self {
            BuildTarget::Sim => "sim",
            BuildTarget::Resilient => "resilient",
            BuildTarget::EventSim => "event_sim",
            BuildTarget::Engine => "engine",
            BuildTarget::Coordinator => "coordinator",
            BuildTarget::Hier => "hier",
        }
    }

    /// Parse a wire tag.
    pub fn from_name(name: &str) -> Result<Self, ConfigError> {
        Ok(match name {
            "sim" => BuildTarget::Sim,
            "resilient" => BuildTarget::Resilient,
            "event_sim" => BuildTarget::EventSim,
            "engine" => BuildTarget::Engine,
            "coordinator" => BuildTarget::Coordinator,
            "hier" => BuildTarget::Hier,
            other => return Err(bad(format!("unknown build target `{other}`"))),
        })
    }

    /// All targets, in wire-tag order (used by the round-trip suite).
    pub fn all() -> [BuildTarget; 6] {
        [
            BuildTarget::Sim,
            BuildTarget::Resilient,
            BuildTarget::EventSim,
            BuildTarget::Engine,
            BuildTarget::Coordinator,
            BuildTarget::Hier,
        ]
    }
}

/// A serializable device fleet. Ad-hoc `Vec<Device>` fleets handed to
/// [`SimBuilder::new`] have no wire form (device state is a simulation
/// artifact, not a config) — the wire schema describes fleets by *recipe*:
/// a paper testbed preset plus a seed, optionally replicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSetSpec {
    /// One of the paper's testbeds (`preset` in `1..=3`), seeded.
    Testbed {
        /// Paper testbed index: 1 (3 devices), 2 (6), 3 (10).
        preset: usize,
        /// Fleet seed (independent of the simulation seed).
        seed: u64,
    },
    /// The model list of testbed `preset`, repeated `copies` times —
    /// the recipe for populations large enough to spread over many
    /// cohorts while staying a few bytes on the wire.
    Replicated {
        /// Paper testbed index whose model list is replicated.
        preset: usize,
        /// How many times the model list repeats (>= 1).
        copies: usize,
        /// Fleet seed.
        seed: u64,
    },
}

impl DeviceSetSpec {
    fn check_preset(preset: usize) -> Result<(), ConfigError> {
        if (1..=3).contains(&preset) {
            Ok(())
        } else {
            Err(bad(format!("testbed preset must be 1..=3, got {preset}")))
        }
    }

    /// Number of devices this recipe produces.
    pub fn n_devices(&self) -> Result<usize, ConfigError> {
        let per_testbed = |preset: usize| -> Result<usize, ConfigError> {
            Self::check_preset(preset)?;
            Ok(match preset {
                1 => 3,
                2 => 6,
                _ => 10,
            })
        };
        match *self {
            DeviceSetSpec::Testbed { preset, .. } => per_testbed(preset),
            DeviceSetSpec::Replicated { preset, copies, .. } => {
                if copies == 0 {
                    return Err(bad("replicated fleet needs copies >= 1"));
                }
                per_testbed(preset)?
                    .checked_mul(copies)
                    .ok_or_else(|| bad(format!("replicated fleet of {copies} copies overflows")))
            }
        }
    }

    /// Materialize the fleet.
    pub fn build(&self) -> Result<Vec<fedsched_device::Device>, ConfigError> {
        let n = self.n_devices()?; // validates preset and copies
        match *self {
            DeviceSetSpec::Testbed { preset, seed } => {
                Ok(Testbed::by_index(preset, seed).devices().to_vec())
            }
            DeviceSetSpec::Replicated { preset, seed, .. } => {
                let base: Vec<DeviceModel> = Testbed::by_index(preset, seed).models();
                let models: Vec<DeviceModel> = base.iter().copied().cycle().take(n).collect();
                Ok(Testbed::new(&models, seed).devices().to_vec())
            }
        }
    }

    fn to_json(self) -> JsonValue {
        match self {
            DeviceSetSpec::Testbed { preset, seed } => json::obj(vec![
                ("kind", json::str("testbed")),
                ("preset", JsonValue::Num(preset as f64)),
                ("seed", u64_to_json(seed)),
            ]),
            DeviceSetSpec::Replicated {
                preset,
                copies,
                seed,
            } => json::obj(vec![
                ("kind", json::str("replicated")),
                ("preset", JsonValue::Num(preset as f64)),
                ("copies", JsonValue::Num(copies as f64)),
                ("seed", u64_to_json(seed)),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<Self, ConfigError> {
        let kind = v.req("kind").and_then(|k| k.as_str()).map_err(shape)?;
        let preset = v.req("preset").and_then(|p| p.as_usize()).map_err(shape)?;
        let seed = u64_from_json(v.req("seed").map_err(shape)?)?;
        let spec = match kind {
            "testbed" => {
                expect_fields(v, &["kind", "preset", "seed"])?;
                DeviceSetSpec::Testbed { preset, seed }
            }
            "replicated" => {
                expect_fields(v, &["kind", "preset", "copies", "seed"])?;
                let copies = v.req("copies").and_then(|c| c.as_usize()).map_err(shape)?;
                DeviceSetSpec::Replicated {
                    preset,
                    copies,
                    seed,
                }
            }
            other => return Err(bad(format!("unknown device-set kind `{other}`"))),
        };
        spec.n_devices()?;
        Ok(spec)
    }
}

/// A complete, serializable simulator configuration: everything
/// [`SimBuilder`] needs, in a form that crosses process boundaries.
///
/// Construct directly, or derive one from a configured builder with
/// [`SimBuilder::to_spec`]. Turn it back into a live simulator with
/// [`JobSpec::build`] (or [`SimBuilder::from_spec`] to keep configuring).
/// `None` everywhere means "builder default".
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which terminal build method to invoke.
    pub target: BuildTarget,
    /// The device fleet recipe.
    pub devices: DeviceSetSpec,
    /// Per-device training workload.
    pub workload: TrainingWorkload,
    /// Device↔server link model.
    pub link: Link,
    /// Transfer payload per direction, bytes.
    pub model_bytes: f64,
    /// Master simulation seed.
    pub seed: u64,
    /// Deadline policy; `None` means [`DeadlinePolicy::Off`] (the wire
    /// form normalizes `Off` to absent).
    pub deadline: Option<DeadlinePolicy>,
    /// Transfer retry policy.
    pub retry: Option<RetryPolicy>,
    /// Disable mid-round straggler rescue.
    pub no_rescue: bool,
    /// Energy-aware rescue floor (`0.0` = builder default).
    pub rescue_soc_floor: f64,
    /// Fault model and its planned-round horizon.
    pub faults: Option<(FaultConfig, usize)>,
    /// Devices per cohort (engine-family targets).
    pub cohort_size: Option<usize>,
    /// Worker threads (engine-family targets).
    pub threads: Option<usize>,
    /// Buffered-async coordination `(buffer, eta)` (coordinator target).
    pub buffered_async: Option<(usize, f64)>,
    /// Robust aggregation rule at the device tier.
    pub aggregator: Option<AggregatorKind>,
    /// Adversary model and its planned-round horizon.
    pub adversary: Option<(AdversaryConfig, usize)>,
    /// Former per-cohort execution core: a wire value that selects
    /// nothing (see [`EngineKind`]).
    pub engine_kind: Option<EngineKind>,
    /// Continuous mid-round churn process (`event_sim`, or engine-family
    /// targets with the event-driven engine kind).
    pub churn: Option<ChurnConfig>,
    /// Mid-round arrival admission policy (where churn is accepted).
    pub admission: Option<AdmissionPolicy>,
    /// Edge-aggregator count (hier target).
    pub edges: Option<usize>,
    /// Edge→server backhaul link (hier target).
    pub edge_link: Option<Link>,
    /// Edge-tier aggregation rule (hier target).
    pub edge_aggregator: Option<AggregatorKind>,
    /// Server-tier aggregation rule (hier target).
    pub server_aggregator: Option<AggregatorKind>,
    /// Online bandit-driven client selection (chaos-family targets).
    pub selection: Option<SelectionConfig>,
}

impl JobSpec {
    /// A minimal spec: the given target over the given fleet and shared
    /// knobs, everything else at builder defaults.
    pub fn new(
        target: BuildTarget,
        devices: DeviceSetSpec,
        workload: TrainingWorkload,
        link: Link,
        model_bytes: f64,
        seed: u64,
    ) -> Self {
        JobSpec {
            target,
            devices,
            workload,
            link,
            model_bytes,
            seed,
            deadline: None,
            retry: None,
            no_rescue: false,
            rescue_soc_floor: 0.0,
            faults: None,
            cohort_size: None,
            threads: None,
            buffered_async: None,
            aggregator: None,
            adversary: None,
            engine_kind: None,
            churn: None,
            admission: None,
            edges: None,
            edge_link: None,
            edge_aggregator: None,
            server_aggregator: None,
            selection: None,
        }
    }

    /// Encode to a canonical [`JsonValue`]: fixed field order, absent
    /// knobs omitted. Equal specs produce equal documents.
    pub fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("version", JsonValue::Num(SPEC_VERSION as f64)),
            ("target", json::str(self.target.name())),
            ("devices", self.devices.to_json()),
            ("workload", workload_to_json(&self.workload)),
            ("link", link_to_json(&self.link)),
            ("model_bytes", json::num(self.model_bytes)),
            ("seed", u64_to_json(self.seed)),
        ];
        if let Some(policy) = self.deadline {
            if !policy.is_off() {
                fields.push(("deadline", deadline_to_json(&policy)));
            }
        }
        if let Some(retry) = self.retry {
            fields.push(("retry", retry_to_json(&retry)));
        }
        if self.no_rescue {
            fields.push(("no_rescue", JsonValue::Bool(true)));
        }
        if self.rescue_soc_floor != 0.0 {
            fields.push(("rescue_soc_floor", json::num(self.rescue_soc_floor)));
        }
        if let Some((config, planned)) = &self.faults {
            fields.push((
                "faults",
                json::obj(vec![
                    ("config", fault_config_to_json(config)),
                    ("planned_rounds", JsonValue::Num(*planned as f64)),
                ]),
            ));
        }
        if let Some(size) = self.cohort_size {
            fields.push(("cohort_size", JsonValue::Num(size as f64)));
        }
        if let Some(threads) = self.threads {
            fields.push(("threads", JsonValue::Num(threads as f64)));
        }
        if let Some((buffer, eta)) = self.buffered_async {
            fields.push((
                "buffered_async",
                json::obj(vec![
                    ("buffer", JsonValue::Num(buffer as f64)),
                    ("eta", json::num(eta)),
                ]),
            ));
        }
        if let Some(kind) = self.aggregator {
            fields.push(("aggregator", aggregator_to_json(&kind)));
        }
        if let Some((config, planned)) = &self.adversary {
            fields.push((
                "adversary",
                json::obj(vec![
                    ("config", adversary_to_json(config)),
                    ("planned_rounds", JsonValue::Num(*planned as f64)),
                ]),
            ));
        }
        if let Some(kind) = self.engine_kind {
            let tag = match kind {
                EngineKind::Lockstep => "lockstep",
                EngineKind::EventDriven => "event_driven",
            };
            fields.push(("engine_kind", json::str(tag)));
        }
        if let Some(churn) = self.churn {
            fields.push(("churn", churn_to_json(&churn)));
        }
        if let Some(policy) = self.admission {
            let tag = match policy {
                AdmissionPolicy::Reject => "reject",
                AdmissionPolicy::NextRound => "next_round",
                AdmissionPolicy::MidRoundFill => "mid_round_fill",
            };
            fields.push(("admission", json::str(tag)));
        }
        if let Some(edges) = self.edges {
            fields.push(("edges", JsonValue::Num(edges as f64)));
        }
        if let Some(link) = self.edge_link {
            fields.push(("edge_link", link_to_json(&link)));
        }
        if let Some(kind) = self.edge_aggregator {
            fields.push(("edge_aggregator", aggregator_to_json(&kind)));
        }
        if let Some(kind) = self.server_aggregator {
            fields.push(("server_aggregator", aggregator_to_json(&kind)));
        }
        if let Some(selection) = &self.selection {
            fields.push(("selection", selection_to_json(selection)));
        }
        json::obj(fields)
    }

    /// Canonical JSON text — the byte form [`JobSpec::fingerprint`]
    /// hashes and the state store persists.
    pub fn canonical_json(&self) -> String {
        self.to_json().encode()
    }

    /// Decode a [`JsonValue`]. Strict: unknown fields, unknown tags and
    /// unsupported versions are [`ConfigError::InvalidSpec`], not silently
    /// ignored — a typoed knob must not produce a quietly different
    /// experiment.
    pub fn from_json(v: &JsonValue) -> Result<Self, ConfigError> {
        expect_fields(
            v,
            &[
                "version",
                "target",
                "devices",
                "workload",
                "link",
                "model_bytes",
                "seed",
                "deadline",
                "retry",
                "no_rescue",
                "rescue_soc_floor",
                "faults",
                "cohort_size",
                "threads",
                "buffered_async",
                "aggregator",
                "adversary",
                "engine_kind",
                "churn",
                "admission",
                "edges",
                "edge_link",
                "edge_aggregator",
                "server_aggregator",
                "selection",
            ],
        )?;
        let version = v.req("version").and_then(|x| x.as_u64()).map_err(shape)?;
        if version != SPEC_VERSION {
            return Err(bad(format!(
                "unsupported spec version {version} (this build speaks {SPEC_VERSION})"
            )));
        }
        let target =
            BuildTarget::from_name(v.req("target").and_then(|t| t.as_str()).map_err(shape)?)?;
        let mut spec = JobSpec::new(
            target,
            DeviceSetSpec::from_json(v.req("devices").map_err(shape)?)?,
            workload_from_json(v.req("workload").map_err(shape)?)?,
            link_from_json(v.req("link").map_err(shape)?)?,
            v.req("model_bytes")
                .and_then(|m| m.as_f64_lenient())
                .map_err(shape)?,
            u64_from_json(v.req("seed").map_err(shape)?)?,
        );
        if let Some(d) = v.get("deadline") {
            let policy = deadline_from_json(d)?;
            // Wire normalization: Off is expressed by omission.
            spec.deadline = (!policy.is_off()).then_some(policy);
        }
        if let Some(r) = v.get("retry") {
            spec.retry = Some(retry_from_json(r)?);
        }
        if let Some(n) = v.get("no_rescue") {
            spec.no_rescue = n.as_bool().map_err(shape)?;
        }
        if let Some(f) = v.get("rescue_soc_floor") {
            spec.rescue_soc_floor = f.as_f64_lenient().map_err(shape)?;
        }
        if let Some(f) = v.get("faults") {
            expect_fields(f, &["config", "planned_rounds"])?;
            spec.faults = Some((
                fault_config_from_json(f.req("config").map_err(shape)?)?,
                f.req("planned_rounds")
                    .and_then(|p| p.as_usize())
                    .map_err(shape)?,
            ));
        }
        if let Some(c) = v.get("cohort_size") {
            spec.cohort_size = Some(c.as_usize().map_err(shape)?);
        }
        if let Some(t) = v.get("threads") {
            spec.threads = Some(t.as_usize().map_err(shape)?);
        }
        if let Some(a) = v.get("buffered_async") {
            expect_fields(a, &["buffer", "eta"])?;
            spec.buffered_async = Some((
                a.req("buffer").and_then(|b| b.as_usize()).map_err(shape)?,
                a.req("eta")
                    .and_then(|e| e.as_f64_lenient())
                    .map_err(shape)?,
            ));
        }
        if let Some(a) = v.get("aggregator") {
            spec.aggregator = Some(aggregator_from_json(a)?);
        }
        if let Some(a) = v.get("adversary") {
            expect_fields(a, &["config", "planned_rounds"])?;
            spec.adversary = Some((
                adversary_from_json(a.req("config").map_err(shape)?)?,
                a.req("planned_rounds")
                    .and_then(|p| p.as_usize())
                    .map_err(shape)?,
            ));
        }
        if let Some(k) = v.get("engine_kind") {
            spec.engine_kind = Some(match k.as_str().map_err(shape)? {
                "lockstep" => EngineKind::Lockstep,
                "event_driven" => EngineKind::EventDriven,
                other => return Err(bad(format!("unknown engine kind `{other}`"))),
            });
        }
        if let Some(c) = v.get("churn") {
            spec.churn = Some(churn_from_json(c)?);
        }
        if let Some(a) = v.get("admission") {
            spec.admission = Some(match a.as_str().map_err(shape)? {
                "reject" => AdmissionPolicy::Reject,
                "next_round" => AdmissionPolicy::NextRound,
                "mid_round_fill" => AdmissionPolicy::MidRoundFill,
                other => return Err(bad(format!("unknown admission policy `{other}`"))),
            });
        }
        if let Some(e) = v.get("edges") {
            spec.edges = Some(e.as_usize().map_err(shape)?);
        }
        if let Some(l) = v.get("edge_link") {
            spec.edge_link = Some(link_from_json(l)?);
        }
        if let Some(a) = v.get("edge_aggregator") {
            spec.edge_aggregator = Some(aggregator_from_json(a)?);
        }
        if let Some(a) = v.get("server_aggregator") {
            spec.server_aggregator = Some(aggregator_from_json(a)?);
        }
        if let Some(s) = v.get("selection") {
            spec.selection = Some(selection_from_json(s)?);
        }
        Ok(spec)
    }

    /// Decode canonical (or hand-written) JSON text.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let v = JsonValue::parse(text).map_err(shape)?;
        JobSpec::from_json(&v)
    }

    /// FNV-1a 64 over the canonical JSON bytes — the experiment cache key
    /// and the basis of wire job IDs. Equal configs hash equally because
    /// encoding is canonical.
    pub fn fingerprint(&self) -> u64 {
        json::fnv1a64(self.canonical_json().as_bytes())
    }

    /// Materialize the simulator this spec describes, with `probe`
    /// attached for telemetry. Exactly as strict as the in-process
    /// builder: every validation error surfaces with the same
    /// [`ConfigError`] cause code.
    pub fn build(&self, probe: Probe) -> Result<BuiltSim, ConfigError> {
        let builder = SimBuilder::from_spec(self)?.probe(probe);
        let sim = match self.target {
            BuildTarget::Sim => SimKind::Sim(builder.build_sim()?),
            BuildTarget::Resilient => SimKind::Event(builder.build_resilient()?),
            BuildTarget::EventSim => SimKind::Event(builder.build_event_sim()?),
            BuildTarget::Engine => SimKind::Engine(builder.build_engine()?),
            BuildTarget::Coordinator => SimKind::Engine(builder.build_coordinator()?),
            BuildTarget::Hier => SimKind::Engine(builder.build_hier()?),
        };
        Ok(BuiltSim {
            sim,
            rounds_done: 0,
        })
    }
}

impl SimBuilder {
    /// Reconstruct a builder from a wire spec (minus the target, which is
    /// chosen at build time, and the probe, which is a host-side
    /// attachment — see [`JobSpec::build`]). The builder remembers the
    /// fleet recipe, so [`SimBuilder::to_spec`] round-trips.
    pub fn from_spec(spec: &JobSpec) -> Result<Self, ConfigError> {
        let mut b = SimBuilder::new(
            spec.devices.build()?,
            RoundConfig::new(spec.workload, spec.link, spec.model_bytes, spec.seed),
        );
        b.device_spec = Some(spec.devices);
        if let Some(policy) = spec.deadline {
            b = b.deadline(policy);
        }
        if let Some(retry) = spec.retry {
            b = b.retry(retry);
        }
        if spec.no_rescue {
            b = b.no_rescue();
        }
        if spec.rescue_soc_floor != 0.0 {
            b = b.rescue_soc_floor(spec.rescue_soc_floor);
        }
        if let Some((config, planned)) = &spec.faults {
            b = b.faults(config.clone(), *planned);
        }
        if let Some(size) = spec.cohort_size {
            b = b.cohort_size(size);
        }
        if let Some(threads) = spec.threads {
            b = b.threads(threads);
        }
        if let Some((buffer, eta)) = spec.buffered_async {
            b = b.buffered_async(buffer, eta);
        }
        if let Some(kind) = spec.aggregator {
            b = b.aggregator(kind);
        }
        if let Some((config, planned)) = spec.adversary {
            b = b.adversary(config, planned);
        }
        if let Some(kind) = spec.engine_kind {
            b = b.engine_kind(kind);
        }
        if let Some(churn) = spec.churn {
            b = b.churn(churn);
        }
        if let Some(policy) = spec.admission {
            b = b.admission(policy);
        }
        if let Some(edges) = spec.edges {
            b = b.edges(edges);
        }
        if let Some(link) = spec.edge_link {
            b = b.edge_link(link);
        }
        if let Some(kind) = spec.edge_aggregator {
            b = b.edge_aggregator(kind);
        }
        if let Some(kind) = spec.server_aggregator {
            b = b.server_aggregator(kind);
        }
        if let Some(config) = spec.selection {
            b = b.selection(Selection::Bandit(config));
        }
        Ok(b)
    }

    /// Serialize this builder's configuration as a wire spec targeting
    /// `target`.
    ///
    /// Fails with [`ConfigError::NotSerializable`] when the builder
    /// carries host-side objects with no wire form: an ad-hoc
    /// `Vec<Device>` fleet (only [`DeviceSetSpec`] recipes serialize), a
    /// pre-built [`injector`](SimBuilder::injector), a
    /// [`rescheduler`](SimBuilder::rescheduler) closure, or offline
    /// [`priors`](SimBuilder::priors). The probe is intentionally *not*
    /// part of the spec — telemetry attachment is the host's business.
    pub fn to_spec(&self, target: BuildTarget) -> Result<JobSpec, ConfigError> {
        let devices = self
            .device_spec
            .ok_or(ConfigError::NotSerializable("ad-hoc device fleet"))?;
        if self.injector.is_some() {
            return Err(ConfigError::NotSerializable("injector"));
        }
        if self.rescheduler.is_some() {
            return Err(ConfigError::NotSerializable("rescheduler"));
        }
        if self.priors.is_some() {
            return Err(ConfigError::NotSerializable("priors"));
        }
        let mut spec = JobSpec::new(
            target,
            devices,
            self.config.workload,
            self.config.link,
            self.config.model_bytes,
            self.config.seed,
        );
        spec.deadline = (!self.deadline.is_off()).then_some(self.deadline);
        spec.retry = self.retry;
        spec.no_rescue = !self.rescue;
        spec.rescue_soc_floor = self.rescue_soc_floor;
        spec.faults = self.faults.clone();
        spec.cohort_size = self.cohort_size;
        spec.threads = self.threads;
        spec.buffered_async = self
            .async_opts
            .map(|AsyncOptions { buffer, eta }| (buffer, eta));
        spec.aggregator = self.aggregator;
        spec.adversary = self.adversary;
        spec.engine_kind = self.engine_kind;
        spec.churn = self.churn;
        spec.admission = self.admission;
        spec.edges = self.edges;
        spec.edge_link = self.edge_link;
        spec.edge_aggregator = self.edge_aggregator;
        spec.server_aggregator = self.server_aggregator;
        spec.selection = self.selection;
        Ok(spec)
    }
}

/// What one [`BuiltSim::step`] call produced: one global round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDigest {
    /// Global round index (0-based).
    pub round: usize,
    /// The round's synchronous makespan, seconds.
    pub makespan_s: f64,
    /// The full per-round report in its canonical `Debug` rendering —
    /// byte-stable across runs and replays, which is what the
    /// kill-and-resume bit-identity suite compares.
    pub detail: String,
}

enum SimKind {
    Sim(RoundSim),
    /// The `resilient` and `event_sim` targets.
    Event(EventRoundSim),
    /// The `engine`, `coordinator` and `hier` targets.
    Engine(ParallelRoundEngine),
}

/// A live simulator built from a [`JobSpec`], stepped one global round at
/// a time.
///
/// One-round stepping is a load-bearing choice, not a convenience: the
/// parallel engine splices per-cohort telemetry buffers after each `run`
/// call, so `run(s, 2)` and `run(s, 1); run(s, 1)` produce *differently
/// ordered* (equally valid) traces. Stepping always one round makes the
/// trace byte stream invariant to how callers batch their advance
/// requests — the invariant the serve crate's snapshot/replay restore
/// depends on.
pub struct BuiltSim {
    sim: SimKind,
    rounds_done: usize,
}

impl BuiltSim {
    /// Advance exactly one global round.
    pub fn step(&mut self, schedule: &Schedule) -> RoundDigest {
        let round = self.rounds_done;
        let (makespan_s, detail) = match &mut self.sim {
            SimKind::Sim(sim) => {
                let report = sim.run(schedule, 1);
                (report.per_round_makespan[0], format!("{report:?}"))
            }
            SimKind::Event(sim) => {
                let report = sim.run(schedule, 1);
                (report.timing.per_round_makespan[0], format!("{report:?}"))
            }
            SimKind::Engine(engine) => {
                let report = engine.run(schedule, 1);
                (report.timing.per_round_makespan[0], format!("{report:?}"))
            }
        };
        self.rounds_done += 1;
        RoundDigest {
            round,
            makespan_s,
            detail,
        }
    }

    /// Global rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }
}

/// Encode a `u64` exactly: as a JSON number when it fits `f64` without
/// loss (`<= 2^53`), as a decimal string above that. Seeds are commonly
/// hashes that use all 64 bits; rounding one through `f64` would silently
/// change the experiment.
pub fn u64_to_json(v: u64) -> JsonValue {
    const EXACT_MAX: u64 = 1 << 53;
    if v <= EXACT_MAX {
        JsonValue::Num(v as f64)
    } else {
        JsonValue::Str(v.to_string())
    }
}

/// Decode a `u64` written by [`u64_to_json`] (number or decimal string).
pub fn u64_from_json(v: &JsonValue) -> Result<u64, ConfigError> {
    match v {
        JsonValue::Num(_) => v.as_u64().map_err(shape),
        JsonValue::Str(s) => s
            .parse::<u64>()
            .map_err(|_| bad(format!("expected u64, found \"{s}\""))),
        other => Err(bad(format!("expected u64, found {}", other.kind()))),
    }
}

/// Reject fields outside `allowed` — a typoed knob must fail loudly, not
/// quietly configure a different experiment.
fn expect_fields(v: &JsonValue, allowed: &[&str]) -> Result<(), ConfigError> {
    match v {
        JsonValue::Obj(fields) => {
            for (key, _) in fields {
                if !allowed.contains(&key.as_str()) {
                    return Err(bad(format!("unknown field `{key}`")));
                }
            }
            Ok(())
        }
        other => Err(bad(format!("expected object, found {}", other.kind()))),
    }
}

fn workload_to_json(w: &TrainingWorkload) -> JsonValue {
    json::obj(vec![
        ("conv_flops_per_sample", json::num(w.conv_flops_per_sample)),
        (
            "dense_flops_per_sample",
            json::num(w.dense_flops_per_sample),
        ),
        ("batch_size", JsonValue::Num(w.batch_size as f64)),
    ])
}

fn workload_from_json(v: &JsonValue) -> Result<TrainingWorkload, ConfigError> {
    expect_fields(
        v,
        &[
            "conv_flops_per_sample",
            "dense_flops_per_sample",
            "batch_size",
        ],
    )?;
    Ok(TrainingWorkload {
        conv_flops_per_sample: v
            .req("conv_flops_per_sample")
            .and_then(|x| x.as_f64_lenient())
            .map_err(shape)?,
        dense_flops_per_sample: v
            .req("dense_flops_per_sample")
            .and_then(|x| x.as_f64_lenient())
            .map_err(shape)?,
        batch_size: v
            .req("batch_size")
            .and_then(|x| x.as_usize())
            .map_err(shape)?,
    })
}

fn link_to_json(l: &Link) -> JsonValue {
    json::obj(vec![
        ("uplink_mbps", json::num(l.uplink_mbps)),
        ("downlink_mbps", json::num(l.downlink_mbps)),
        ("rtt_s", json::num(l.rtt_s)),
        ("jitter_sigma", json::num(l.jitter_sigma)),
    ])
}

fn link_from_json(v: &JsonValue) -> Result<Link, ConfigError> {
    expect_fields(
        v,
        &["uplink_mbps", "downlink_mbps", "rtt_s", "jitter_sigma"],
    )?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    Ok(Link {
        uplink_mbps: f("uplink_mbps")?,
        downlink_mbps: f("downlink_mbps")?,
        rtt_s: f("rtt_s")?,
        jitter_sigma: f("jitter_sigma")?,
    })
}

fn deadline_to_json(p: &DeadlinePolicy) -> JsonValue {
    match *p {
        DeadlinePolicy::Off => json::obj(vec![("policy", json::str("off"))]),
        DeadlinePolicy::Fixed(s) => json::obj(vec![
            ("policy", json::str("fixed")),
            ("value", json::num(s)),
        ]),
        DeadlinePolicy::MeanFactor(factor) => json::obj(vec![
            ("policy", json::str("mean_factor")),
            ("value", json::num(factor)),
        ]),
        DeadlinePolicy::Quantile(q) => json::obj(vec![
            ("policy", json::str("quantile")),
            ("value", json::num(q)),
        ]),
    }
}

fn deadline_from_json(v: &JsonValue) -> Result<DeadlinePolicy, ConfigError> {
    let policy = v.req("policy").and_then(|p| p.as_str()).map_err(shape)?;
    if policy == "off" {
        expect_fields(v, &["policy"])?;
        return Ok(DeadlinePolicy::Off);
    }
    expect_fields(v, &["policy", "value"])?;
    let value = v
        .req("value")
        .and_then(|x| x.as_f64_lenient())
        .map_err(shape)?;
    Ok(match policy {
        "fixed" => DeadlinePolicy::Fixed(value),
        "mean_factor" => DeadlinePolicy::MeanFactor(value),
        "quantile" => DeadlinePolicy::Quantile(value),
        other => return Err(bad(format!("unknown deadline policy `{other}`"))),
    })
}

fn retry_to_json(r: &RetryPolicy) -> JsonValue {
    json::obj(vec![
        ("max_attempts", JsonValue::Num(r.max_attempts as f64)),
        ("timeout_s", json::num(r.timeout_s)),
        ("base_backoff_s", json::num(r.base_backoff_s)),
        ("backoff_multiplier", json::num(r.backoff_multiplier)),
        ("max_backoff_s", json::num(r.max_backoff_s)),
        ("jitter_frac", json::num(r.jitter_frac)),
    ])
}

fn retry_from_json(v: &JsonValue) -> Result<RetryPolicy, ConfigError> {
    expect_fields(
        v,
        &[
            "max_attempts",
            "timeout_s",
            "base_backoff_s",
            "backoff_multiplier",
            "max_backoff_s",
            "jitter_frac",
        ],
    )?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    Ok(RetryPolicy {
        max_attempts: v
            .req("max_attempts")
            .and_then(|x| x.as_usize())
            .map_err(shape)?,
        timeout_s: f("timeout_s")?,
        base_backoff_s: f("base_backoff_s")?,
        backoff_multiplier: f("backoff_multiplier")?,
        max_backoff_s: f("max_backoff_s")?,
        jitter_frac: f("jitter_frac")?,
    })
}

fn churn_to_json(c: &ChurnConfig) -> JsonValue {
    json::obj(vec![
        ("depart_rate", json::num(c.depart_rate)),
        ("arrive_rate", json::num(c.arrive_rate)),
        ("horizon_s", json::num(c.horizon_s)),
    ])
}

fn churn_from_json(v: &JsonValue) -> Result<ChurnConfig, ConfigError> {
    expect_fields(v, &["depart_rate", "arrive_rate", "horizon_s"])?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    Ok(ChurnConfig {
        depart_rate: f("depart_rate")?,
        arrive_rate: f("arrive_rate")?,
        horizon_s: f("horizon_s")?,
    })
}

fn drift_to_json(d: &DriftConfig) -> JsonValue {
    json::obj(vec![
        ("sigma", json::num(d.sigma)),
        ("max_slowdown", json::num(d.max_slowdown)),
    ])
}

fn drift_from_json(v: &JsonValue) -> Result<DriftConfig, ConfigError> {
    expect_fields(v, &["sigma", "max_slowdown"])?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    Ok(DriftConfig {
        sigma: f("sigma")?,
        max_slowdown: f("max_slowdown")?,
    })
}

/// Tagged policy object plus the cohort size and the optional pinned
/// stream seed (`MaybeSeeded::inherit()` is expressed by omission, so an
/// inherited seed never leaks a redundant copy of the master seed into
/// the canonical bytes).
fn selection_to_json(s: &SelectionConfig) -> JsonValue {
    let mut policy: Vec<(&str, JsonValue)> = vec![("kind", json::str(s.policy.name()))];
    match s.policy {
        PolicyKind::EpsilonGreedy { epsilon } => policy.push(("epsilon", json::num(epsilon))),
        PolicyKind::Ucb1 { c } => policy.push(("c", json::num(c))),
        PolicyKind::ThompsonSampling => {}
    }
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("policy", json::obj(policy)),
        ("k", JsonValue::Num(s.k as f64)),
    ];
    if let Some(seed) = s.seed.seed {
        fields.push(("seed", u64_to_json(seed)));
    }
    json::obj(fields)
}

fn selection_from_json(v: &JsonValue) -> Result<SelectionConfig, ConfigError> {
    expect_fields(v, &["policy", "k", "seed"])?;
    let p = v.req("policy").map_err(shape)?;
    let policy = match p.req("kind").and_then(|k| k.as_str()).map_err(shape)? {
        "epsilon_greedy" => {
            expect_fields(p, &["kind", "epsilon"])?;
            PolicyKind::EpsilonGreedy {
                epsilon: p
                    .req("epsilon")
                    .and_then(|e| e.as_f64_lenient())
                    .map_err(shape)?,
            }
        }
        "ucb1" => {
            expect_fields(p, &["kind", "c"])?;
            PolicyKind::Ucb1 {
                c: p.req("c").and_then(|c| c.as_f64_lenient()).map_err(shape)?,
            }
        }
        "thompson" => {
            expect_fields(p, &["kind"])?;
            PolicyKind::ThompsonSampling
        }
        other => return Err(bad(format!("unknown selection policy `{other}`"))),
    };
    let seed = match v.get("seed") {
        Some(s) => MaybeSeeded::pinned(u64_from_json(s)?),
        None => MaybeSeeded::inherit(),
    };
    Ok(SelectionConfig {
        policy,
        k: v.req("k").and_then(|k| k.as_usize()).map_err(shape)?,
        seed,
    })
}

fn fault_config_to_json(c: &FaultConfig) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("crash_prob", json::num(c.crash_prob)),
        ("reboot_rounds", JsonValue::Num(c.reboot_rounds as f64)),
        ("churn_prob", json::num(c.churn_prob)),
        ("contention_prob", json::num(c.contention_prob)),
        ("contention_factor", json::num(c.contention_factor)),
        ("loss_prob", json::num(c.loss_prob)),
        ("outage_prob", json::num(c.outage_prob)),
        ("outage_horizon_s", json::num(c.outage_horizon_s)),
        ("outage_duration_s", json::num(c.outage_duration_s)),
        ("group_outage_prob", json::num(c.group_outage_prob)),
        ("group_count", JsonValue::Num(c.group_count as f64)),
        (
            "group_outage_rounds",
            JsonValue::Num(c.group_outage_rounds as f64),
        ),
    ];
    if let Some(churn) = c.churn_process {
        fields.push(("churn_process", churn_to_json(&churn)));
    }
    if let Some(drift) = c.drift {
        fields.push(("drift", drift_to_json(&drift)));
    }
    json::obj(fields)
}

fn fault_config_from_json(v: &JsonValue) -> Result<FaultConfig, ConfigError> {
    expect_fields(
        v,
        &[
            "crash_prob",
            "reboot_rounds",
            "churn_prob",
            "contention_prob",
            "contention_factor",
            "loss_prob",
            "outage_prob",
            "outage_horizon_s",
            "outage_duration_s",
            "group_outage_prob",
            "group_count",
            "group_outage_rounds",
            "churn_process",
            "drift",
        ],
    )?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    let n = |key: &str| v.req(key).and_then(|x| x.as_usize()).map_err(shape);
    let mut config = FaultConfig::none();
    config.crash_prob = f("crash_prob")?;
    config.reboot_rounds = n("reboot_rounds")?;
    config.churn_prob = f("churn_prob")?;
    config.contention_prob = f("contention_prob")?;
    config.contention_factor = f("contention_factor")?;
    config.loss_prob = f("loss_prob")?;
    config.outage_prob = f("outage_prob")?;
    config.outage_horizon_s = f("outage_horizon_s")?;
    config.outage_duration_s = f("outage_duration_s")?;
    config.group_outage_prob = f("group_outage_prob")?;
    config.group_count = n("group_count")?;
    config.group_outage_rounds = n("group_outage_rounds")?;
    config.churn_process = match v.get("churn_process") {
        Some(c) => Some(churn_from_json(c)?),
        None => None,
    };
    config.drift = match v.get("drift") {
        Some(d) => Some(drift_from_json(d)?),
        None => None,
    };
    Ok(config)
}

fn aggregator_to_json(k: &AggregatorKind) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = vec![("kind", json::str(k.name()))];
    match *k {
        AggregatorKind::FedAvg | AggregatorKind::Median => {}
        AggregatorKind::TrimmedMean { trim } => {
            fields.push(("trim", JsonValue::Num(trim as f64)));
        }
        AggregatorKind::NormClip { tau } => fields.push(("tau", json::num(tau))),
        AggregatorKind::Krum { f } => fields.push(("f", JsonValue::Num(f as f64))),
        AggregatorKind::MultiKrum { f, k } => {
            fields.push(("f", JsonValue::Num(f as f64)));
            fields.push(("k", JsonValue::Num(k as f64)));
        }
    }
    json::obj(fields)
}

fn aggregator_from_json(v: &JsonValue) -> Result<AggregatorKind, ConfigError> {
    let kind = v.req("kind").and_then(|k| k.as_str()).map_err(shape)?;
    let n = |key: &str| v.req(key).and_then(|x| x.as_usize()).map_err(shape);
    Ok(match kind {
        "fedavg" => {
            expect_fields(v, &["kind"])?;
            AggregatorKind::FedAvg
        }
        "median" => {
            expect_fields(v, &["kind"])?;
            AggregatorKind::Median
        }
        "trimmed_mean" => {
            expect_fields(v, &["kind", "trim"])?;
            AggregatorKind::TrimmedMean { trim: n("trim")? }
        }
        "norm_clip" => {
            expect_fields(v, &["kind", "tau"])?;
            AggregatorKind::NormClip {
                tau: v
                    .req("tau")
                    .and_then(|x| x.as_f64_lenient())
                    .map_err(shape)?,
            }
        }
        "krum" => {
            expect_fields(v, &["kind", "f"])?;
            AggregatorKind::Krum { f: n("f")? }
        }
        "multi_krum" => {
            expect_fields(v, &["kind", "f", "k"])?;
            AggregatorKind::MultiKrum {
                f: n("f")?,
                k: n("k")?,
            }
        }
        other => return Err(bad(format!("unknown aggregator kind `{other}`"))),
    })
}

fn attack_to_json(a: &AttackKind) -> JsonValue {
    let mut fields: Vec<(&str, JsonValue)> = vec![("kind", json::str(a.name()))];
    match *a {
        AttackKind::SignFlip | AttackKind::LabelFlip => {}
        AttackKind::Boost { factor } => fields.push(("factor", json::num(factor))),
        AttackKind::GaussianNoise { sigma } => fields.push(("sigma", json::num(sigma))),
    }
    json::obj(fields)
}

fn attack_from_json(v: &JsonValue) -> Result<AttackKind, ConfigError> {
    let kind = v.req("kind").and_then(|k| k.as_str()).map_err(shape)?;
    let f = |key: &str| v.req(key).and_then(|x| x.as_f64_lenient()).map_err(shape);
    Ok(match kind {
        "sign_flip" => {
            expect_fields(v, &["kind"])?;
            AttackKind::SignFlip
        }
        "label_flip" => {
            expect_fields(v, &["kind"])?;
            AttackKind::LabelFlip
        }
        "boost" => {
            expect_fields(v, &["kind", "factor"])?;
            AttackKind::Boost {
                factor: f("factor")?,
            }
        }
        "gaussian_noise" => {
            expect_fields(v, &["kind", "sigma"])?;
            AttackKind::GaussianNoise { sigma: f("sigma")? }
        }
        other => return Err(bad(format!("unknown attack kind `{other}`"))),
    })
}

fn adversary_to_json(a: &AdversaryConfig) -> JsonValue {
    json::obj(vec![
        ("attacker_frac", json::num(a.attacker_frac)),
        ("attack", attack_to_json(&a.attack)),
        (
            "collusion_groups",
            JsonValue::Num(a.collusion_groups as f64),
        ),
        ("active_prob", json::num(a.active_prob)),
    ])
}

fn adversary_from_json(v: &JsonValue) -> Result<AdversaryConfig, ConfigError> {
    expect_fields(
        v,
        &["attacker_frac", "attack", "collusion_groups", "active_prob"],
    )?;
    let mut config = AdversaryConfig::none();
    config.attacker_frac = v
        .req("attacker_frac")
        .and_then(|x| x.as_f64_lenient())
        .map_err(shape)?;
    config.attack = attack_from_json(v.req("attack").map_err(shape)?)?;
    config.collusion_groups = v
        .req("collusion_groups")
        .and_then(|x| x.as_usize())
        .map_err(shape)?;
    config.active_prob = v
        .req("active_prob")
        .and_then(|x| x.as_f64_lenient())
        .map_err(shape)?;
    Ok(config)
}

/// Encode a [`Schedule`] (serve snapshots persist the job's schedule next
/// to its spec).
pub fn schedule_to_json(s: &Schedule) -> JsonValue {
    json::obj(vec![
        (
            "shards",
            JsonValue::Arr(s.shards.iter().map(|&k| JsonValue::Num(k as f64)).collect()),
        ),
        ("shard_size", json::num(s.shard_size)),
    ])
}

/// Decode a [`Schedule`] written by [`schedule_to_json`].
pub fn schedule_from_json(v: &JsonValue) -> Result<Schedule, ConfigError> {
    expect_fields(v, &["shards", "shard_size"])?;
    let shards = v
        .req("shards")
        .and_then(|s| s.as_arr())
        .map_err(shape)?
        .iter()
        .map(|x| x.as_usize())
        .collect::<Result<Vec<_>, _>>()
        .map_err(shape)?;
    let shard_size = v
        .req("shard_size")
        .and_then(|x| x.as_f64_lenient())
        .map_err(shape)?;
    Ok(Schedule::new(shards, shard_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_device::Device;

    fn base_spec(target: BuildTarget) -> JobSpec {
        JobSpec::new(
            target,
            DeviceSetSpec::Testbed { preset: 1, seed: 7 },
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            2.5e6,
            7,
        )
    }

    #[test]
    fn minimal_spec_round_trips_through_json() {
        let spec = base_spec(BuildTarget::Sim);
        let text = spec.canonical_json();
        assert_eq!(JobSpec::parse(&text).unwrap(), spec);
        // Canonical: encoding the decoded spec reproduces the bytes.
        assert_eq!(JobSpec::parse(&text).unwrap().canonical_json(), text);
    }

    #[test]
    fn loaded_spec_round_trips_with_nonfinite_and_big_seed() {
        let mut spec = base_spec(BuildTarget::Coordinator);
        spec.seed = u64::MAX - 3; // exercises the string encoding
        spec.devices = DeviceSetSpec::Replicated {
            preset: 2,
            copies: 4,
            seed: (1 << 60) + 1,
        };
        spec.deadline = Some(DeadlinePolicy::Quantile(0.9));
        spec.retry = Some(RetryPolicy::single_attempt()); // timeout_s = inf
        spec.no_rescue = true;
        spec.rescue_soc_floor = 0.15;
        spec.faults = Some((
            FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
            8,
        ));
        spec.cohort_size = Some(4);
        spec.threads = Some(2);
        spec.aggregator = Some(AggregatorKind::MultiKrum { f: 1, k: 2 });
        spec.adversary = Some((
            AdversaryConfig::none().with_attackers(0.2, AttackKind::Boost { factor: 8.0 }),
            8,
        ));
        spec.engine_kind = Some(EngineKind::EventDriven);
        let text = spec.canonical_json();
        let back = JobSpec::parse(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn builder_round_trips_through_spec() {
        let mut spec = base_spec(BuildTarget::Engine);
        spec.faults = Some((FaultConfig::none().with_crash_prob(0.3), 4));
        spec.deadline = Some(DeadlinePolicy::Fixed(55.0));
        spec.threads = Some(2);
        let builder = SimBuilder::from_spec(&spec).unwrap();
        assert_eq!(builder.to_spec(BuildTarget::Engine).unwrap(), spec);
    }

    #[test]
    fn adhoc_fleets_and_closures_are_not_serializable() {
        let devices: Vec<Device> = Testbed::testbed_1(7).devices().to_vec();
        let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
        let err = SimBuilder::new(devices, config)
            .to_spec(BuildTarget::Sim)
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::NotSerializable("ad-hoc device fleet"));
        assert_eq!(err.cause_code(), "not_serializable");

        let spec = base_spec(BuildTarget::Resilient);
        let err = SimBuilder::from_spec(&spec)
            .unwrap()
            .injector(fedsched_faults::FaultInjector::quiet(3))
            .to_spec(BuildTarget::Resilient)
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::NotSerializable("injector"));
    }

    #[test]
    fn malformed_documents_are_invalid_spec() {
        for text in [
            "not json at all",
            r#"{"version":1}"#,                 // missing required fields
            r#"{"version":99,"target":"sim"}"#, // future version
        ] {
            let err = JobSpec::parse(text).err().unwrap();
            assert_eq!(err.cause_code(), "invalid_spec", "{text}");
        }

        // Unknown fields fail loudly rather than configuring silently.
        let mut doc = base_spec(BuildTarget::Sim).canonical_json();
        doc.insert_str(doc.len() - 1, r#","cohort_sizes":64"#);
        let err = JobSpec::parse(&doc).err().unwrap();
        assert!(matches!(err, ConfigError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("cohort_sizes"));

        // Unknown tags too.
        let doc = base_spec(BuildTarget::Sim)
            .canonical_json()
            .replace("\"sim\"", "\"simulator\"");
        assert_eq!(
            JobSpec::parse(&doc).err().unwrap().cause_code(),
            "invalid_spec"
        );
    }

    #[test]
    fn build_surfaces_the_same_config_errors_as_the_builder() {
        // cohort_size on the quiet sim: unsupported_option, same as
        // calling .cohort_size().build_sim() in-process.
        let mut spec = base_spec(BuildTarget::Sim);
        spec.cohort_size = Some(4);
        let err = spec.build(Probe::disabled()).err().unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("cohort_size"));

        let mut spec = base_spec(BuildTarget::Engine);
        spec.cohort_size = Some(0);
        let err = spec.build(Probe::disabled()).err().unwrap();
        assert_eq!(err, ConfigError::ZeroCohortSize);

        let mut spec = base_spec(BuildTarget::Resilient);
        spec.deadline = Some(DeadlinePolicy::Fixed(-2.0));
        let err = spec.build(Probe::disabled()).err().unwrap();
        assert_eq!(err.cause_code(), "invalid_deadline");
    }

    #[test]
    fn built_sim_steps_match_batch_runs() {
        let spec = base_spec(BuildTarget::Engine);
        let schedule = Schedule::new(vec![10, 10, 10], 100.0);
        let mut stepped = spec.build(Probe::disabled()).unwrap();
        let digests: Vec<RoundDigest> = (0..3).map(|_| stepped.step(&schedule)).collect();
        assert_eq!(stepped.rounds_done(), 3);
        assert_eq!(digests[2].round, 2);

        // Stepping is deterministic: a second build replays identically.
        let mut replay = spec.build(Probe::disabled()).unwrap();
        let replay_digests: Vec<RoundDigest> = (0..3).map(|_| replay.step(&schedule)).collect();
        assert_eq!(digests, replay_digests);

        // And the per-round makespans agree with one batched engine run.
        let mut batch = SimBuilder::from_spec(&spec)
            .unwrap()
            .build_engine()
            .unwrap();
        let report = batch.run(&schedule, 3);
        let stepped_makespans: Vec<f64> = digests.iter().map(|d| d.makespan_s).collect();
        assert_eq!(report.timing.per_round_makespan, stepped_makespans);
    }

    #[test]
    fn replicated_fleets_scale_the_testbed() {
        let spec = DeviceSetSpec::Replicated {
            preset: 1,
            copies: 3,
            seed: 11,
        };
        assert_eq!(spec.n_devices().unwrap(), 9);
        assert_eq!(spec.build().unwrap().len(), 9);
        assert!(DeviceSetSpec::Testbed { preset: 4, seed: 0 }
            .build()
            .is_err());
        assert!(DeviceSetSpec::Replicated {
            preset: 1,
            copies: 0,
            seed: 0
        }
        .build()
        .is_err());
    }

    /// Every build target against every wire option: `ok`, or the exact
    /// cause code the build fails with. Columns follow
    /// [`BuildTarget::all`]: sim, resilient, event_sim, engine,
    /// coordinator, hier. Successful builds also step one round.
    #[test]
    fn wire_option_matrix_is_pinned() {
        type Knob = fn(&mut JobSpec);
        fn faults(s: &mut JobSpec) {
            s.faults = Some((FaultConfig::none().with_crash_prob(0.2), 4));
        }
        fn churn(s: &mut JobSpec) {
            s.churn = Some(ChurnConfig::symmetric(0.05, 60.0));
        }
        const OK: &str = "ok";
        const NO: &str = "unsupported_option";
        const CHURN: &str = "invalid_churn";
        const ASYNC: &str = "invalid_async";
        let rows: Vec<(&str, Knob, [&str; 6])> = vec![
            ("defaults", |_| {}, [OK, OK, OK, OK, OK, OK]),
            (
                "engine_kind=lockstep",
                |s| s.engine_kind = Some(EngineKind::Lockstep),
                [NO, NO, NO, OK, OK, OK],
            ),
            (
                "engine_kind=event_driven",
                |s| s.engine_kind = Some(EngineKind::EventDriven),
                [NO, NO, OK, OK, OK, OK],
            ),
            (
                "deadline=fixed",
                |s| s.deadline = Some(DeadlinePolicy::Fixed(50.0)),
                [NO, OK, OK, OK, OK, OK],
            ),
            (
                "deadline=mean_factor",
                |s| s.deadline = Some(DeadlinePolicy::MeanFactor(1.5)),
                [NO, OK, OK, OK, OK, OK],
            ),
            (
                "retry",
                |s| s.retry = Some(RetryPolicy::default_chaos()),
                [NO, OK, OK, OK, OK, OK],
            ),
            (
                "no_rescue",
                |s| s.no_rescue = true,
                [NO, OK, OK, OK, OK, OK],
            ),
            (
                "rescue_soc_floor",
                |s| s.rescue_soc_floor = 0.2,
                [NO, OK, OK, OK, OK, OK],
            ),
            ("faults", faults, [NO, OK, OK, OK, OK, OK]),
            (
                "cohort_size",
                |s| s.cohort_size = Some(2),
                [NO, NO, NO, OK, OK, OK],
            ),
            ("threads", |s| s.threads = Some(2), [NO, NO, NO, OK, OK, OK]),
            (
                "buffered_async",
                |s| s.buffered_async = Some((2, 0.5)),
                [NO, NO, NO, NO, OK, NO],
            ),
            (
                "buffered_async+deadline",
                |s| {
                    s.buffered_async = Some((2, 0.5));
                    s.deadline = Some(DeadlinePolicy::Fixed(50.0));
                },
                [NO, NO, NO, NO, ASYNC, NO],
            ),
            (
                "aggregator=fedavg",
                |s| s.aggregator = Some(AggregatorKind::FedAvg),
                [OK, OK, OK, OK, OK, OK],
            ),
            (
                "aggregator=median",
                |s| s.aggregator = Some(AggregatorKind::Median),
                [NO, OK, OK, OK, OK, OK],
            ),
            (
                "adversary",
                |s| {
                    s.adversary = Some((
                        AdversaryConfig::none().with_attackers(0.3, AttackKind::SignFlip),
                        4,
                    ));
                },
                [NO, OK, OK, OK, OK, OK],
            ),
            ("churn", churn, [NO, NO, CHURN, NO, NO, NO]),
            (
                "churn+faults",
                |s| {
                    faults(s);
                    churn(s);
                },
                [NO, NO, OK, NO, NO, NO],
            ),
            (
                "churn+faults+lockstep",
                |s| {
                    faults(s);
                    churn(s);
                    s.engine_kind = Some(EngineKind::Lockstep);
                },
                [NO, NO, NO, NO, NO, NO],
            ),
            (
                "churn+faults+event_driven",
                |s| {
                    faults(s);
                    churn(s);
                    s.engine_kind = Some(EngineKind::EventDriven);
                },
                [NO, NO, OK, OK, OK, OK],
            ),
            (
                "admission+faults",
                |s| {
                    faults(s);
                    s.admission = Some(AdmissionPolicy::MidRoundFill);
                },
                [NO, NO, CHURN, NO, NO, NO],
            ),
            (
                "admission+churn+faults",
                |s| {
                    faults(s);
                    churn(s);
                    s.admission = Some(AdmissionPolicy::NextRound);
                },
                [NO, NO, OK, NO, NO, NO],
            ),
            (
                "admission+churn+faults+event_driven",
                |s| {
                    faults(s);
                    churn(s);
                    s.admission = Some(AdmissionPolicy::MidRoundFill);
                    s.engine_kind = Some(EngineKind::EventDriven);
                },
                [NO, NO, OK, OK, OK, OK],
            ),
            ("edges", |s| s.edges = Some(1), [NO, NO, NO, NO, NO, OK]),
            (
                "edge_link",
                |s| s.edge_link = Some(Link::lte_tmobile()),
                [NO, NO, NO, NO, NO, OK],
            ),
            (
                "edge_aggregator",
                |s| s.edge_aggregator = Some(AggregatorKind::Median),
                [NO, NO, NO, NO, NO, OK],
            ),
            (
                "server_aggregator",
                |s| s.server_aggregator = Some(AggregatorKind::Median),
                [NO, NO, NO, NO, NO, OK],
            ),
            (
                "selection",
                |s| {
                    s.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 2));
                },
                [NO, OK, OK, OK, OK, OK],
            ),
        ];
        let schedule = Schedule::new(vec![4, 4, 4], 100.0);
        let mut mismatches = Vec::new();
        for (name, knob, want) in &rows {
            for (target, want) in BuildTarget::all().iter().zip(want) {
                let mut spec = base_spec(*target);
                knob(&mut spec);
                let got = match spec.build(Probe::disabled()) {
                    Ok(mut sim) => {
                        sim.step(&schedule);
                        OK
                    }
                    Err(err) => err.cause_code(),
                };
                if got != *want {
                    mismatches.push(format!(
                        "{name} @ {}: want {want}, got {got}",
                        target.name()
                    ));
                }
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }

    #[test]
    fn replicated_fleet_size_overflow_is_invalid_spec() {
        for (preset, per_testbed) in [(1, 3), (2, 6), (3, 10)] {
            let fleet = |copies| DeviceSetSpec::Replicated {
                preset,
                copies,
                seed: 0,
            };
            for copies in [usize::MAX / per_testbed + 1, 1 << 63, usize::MAX] {
                assert_eq!(
                    fleet(copies).n_devices().unwrap_err().cause_code(),
                    "invalid_spec"
                );
                assert_eq!(
                    fleet(copies).build().unwrap_err().cause_code(),
                    "invalid_spec"
                );
            }
            let largest = usize::MAX / per_testbed;
            assert_eq!(fleet(largest).n_devices().unwrap(), largest * per_testbed);
        }
        // On the wire: 2^63 copies of preset 3 is a typed error.
        let mut spec = base_spec(BuildTarget::Sim);
        spec.devices = DeviceSetSpec::Replicated {
            preset: 3,
            copies: 1,
            seed: 0,
        };
        let doc = spec
            .canonical_json()
            .replace("\"copies\":1", "\"copies\":9223372036854775808");
        assert_eq!(
            JobSpec::parse(&doc).unwrap_err().cause_code(),
            "invalid_spec"
        );
    }

    #[test]
    fn schedule_round_trips() {
        let s = Schedule::new(vec![10, 0, 25], 100.0);
        let back = schedule_from_json(&schedule_to_json(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn selection_and_drift_round_trip_through_json() {
        for policy in [
            PolicyKind::EpsilonGreedy { epsilon: 0.1 },
            PolicyKind::Ucb1 { c: 1.5 },
            PolicyKind::ThompsonSampling,
        ] {
            for seed in [MaybeSeeded::inherit(), MaybeSeeded::pinned(u64::MAX - 9)] {
                let mut spec = base_spec(BuildTarget::Resilient);
                spec.selection = Some(SelectionConfig { policy, k: 3, seed });
                spec.faults = Some((
                    FaultConfig::none()
                        .with_crash_prob(0.1)
                        .with_drift(DriftConfig::new(0.05, 4.0)),
                    8,
                ));
                let text = spec.canonical_json();
                let back = JobSpec::parse(&text).unwrap();
                assert_eq!(back, spec);
                assert_eq!(back.canonical_json(), text);
                // And through the builder: from_spec -> to_spec is the
                // identity for selection-carrying specs too.
                let builder = SimBuilder::from_spec(&spec).unwrap();
                assert_eq!(builder.to_spec(BuildTarget::Resilient).unwrap(), spec);
            }
        }
        // An inherited stream seed is expressed by omission.
        let mut spec = base_spec(BuildTarget::EventSim);
        spec.selection = Some(SelectionConfig::new(PolicyKind::ThompsonSampling, 2));
        assert!(!spec.canonical_json().contains("\"seed\"},"));
        // Unknown policy tags and malformed knobs fail loudly.
        let doc = spec.canonical_json().replace("thompson", "bayes");
        assert_eq!(
            JobSpec::parse(&doc).err().unwrap().cause_code(),
            "invalid_spec"
        );
        // Selection specs build, and an invalid k surfaces the builder's
        // typed cause code on the wire path too.
        let mut spec = base_spec(BuildTarget::Resilient);
        spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 2));
        assert!(spec.build(Probe::disabled()).is_ok());
        spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 0));
        let err = spec.build(Probe::disabled()).err().unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");
    }
}
