//! The deterministic session core: a simulated SDN advanced tick by tick.
//!
//! A [`Session`] owns one [`ScenarioRun`] — the same steppable run the scenario
//! runner drives, with its agenda of workload ticks and fault phases — plus a bounded
//! ring of probe samples. It exposes exactly two mutations — [`Session::step`] (one
//! simulated tick) and [`Session::apply`] (one [`Command`]) — and everything it
//! computes derives from simulated state alone. No wall clock, no thread identity,
//! no host entropy reaches this module (the `sdn-stancheck` scope rule enforces
//! that statically), which is why a live interactive session and a single-threaded
//! replay of its command log produce bit-identical final reports.

use crate::command::{Command, FaultSpec, FlowsSpec};
use renaissance::scenario::{Scenario, ScenarioRun, WorkloadReport};
use renaissance::SdnNetwork;
use sdn_metrics::{Json, RingPage, RingSink};
use sdn_netsim::SimTime;
use sdn_topology::{builders, NodeId};
use sdn_traffic::{Arrival, FlowEngineWorkload, FlowMix, FlowSetConfig, TrafficMatrix};

/// Everything needed to rebuild a session from scratch — the command log's header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Topology name understood by [`builders::by_name`] (`fat_tree(8)`, `B4`, ...).
    pub topology: String,
    /// Number of controllers.
    pub controllers: usize,
    /// Harness seed; every random draw in the session derives from it.
    pub seed: u64,
    /// Simulated milliseconds one tick advances the network by.
    pub tick_millis: u64,
    /// Probe samples retained by the telemetry ring.
    pub ring_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            topology: "fat_tree(4)".to_string(),
            controllers: 2,
            seed: 7,
            tick_millis: 1000,
            ring_capacity: 4096,
        }
    }
}

impl SessionConfig {
    /// Serializes to the command-log header object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("topology", Json::str(self.topology.as_str())),
            ("controllers", Json::num(self.controllers as f64)),
            ("seed", Json::num(self.seed as f64)),
            ("tick_millis", Json::num(self.tick_millis as f64)),
            ("ring_capacity", Json::num(self.ring_capacity as f64)),
        ])
    }

    /// Parses the command-log header object, rejecting topology names
    /// [`builders::by_name`] does not know.
    pub fn from_json(json: &Json) -> Result<SessionConfig, String> {
        let topology = json
            .get("topology")
            .and_then(Json::as_str)
            .ok_or("session config needs a `topology` name")?
            .to_string();
        let _ = builders::lookup(&topology)?;
        let int = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("session config needs a numeric `{key}`"))
        };
        Ok(SessionConfig {
            topology,
            controllers: int("controllers")? as usize,
            seed: int("seed")?,
            tick_millis: int("tick_millis")?.max(1),
            ring_capacity: int("ring_capacity")? as usize,
        })
    }
}

/// A long-running simulated SDN session. See the module docs for the contract.
pub struct Session {
    config: SessionConfig,
    run: ScenarioRun,
    flows_attached: u64,
    samples: RingSink,
    tick: u64,
    commands_applied: u64,
}

impl Session {
    /// Boots a session: builds the named topology, wires the SDN, and records the
    /// tick-0 probe sample.
    ///
    /// # Panics
    ///
    /// Panics when `config.topology` is not a name [`builders::by_name`] accepts.
    pub fn new(config: SessionConfig) -> Self {
        let scenario = Scenario::builder("sdn-serve")
            .network(config.topology.as_str())
            .controllers(config.controllers)
            .build();
        let mut session = Session {
            run: ScenarioRun::new(&scenario, config.seed),
            samples: RingSink::new(config.ring_capacity.max(1)),
            config,
            flows_attached: 0,
            tick: 0,
            commands_applied: 0,
        };
        session.record_sample();
        session
    }

    /// The configuration the session was booted from.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Ticks executed so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Current simulated time in seconds.
    pub fn sim_secs(&self) -> f64 {
        self.net().now().as_secs_f64()
    }

    /// The telemetry ring backing `/log` and `/stream`.
    pub fn samples(&self) -> &RingSink {
        &self.samples
    }

    /// The newest probe sample, if any.
    pub fn last_sample(&self) -> Option<(u64, String)> {
        let next = self.samples.next_seq();
        self.samples
            .page(next.saturating_sub(1), 1)
            .lines
            .into_iter()
            .next()
    }

    fn net(&self) -> &SdnNetwork {
        self.run.network()
    }

    /// Advances the session by one tick: the run steps to the tick's end, firing the
    /// fault phases and workload ticks due on the way, and a probe sample is recorded.
    pub fn step(&mut self) {
        self.tick += 1;
        self.run
            .step_until(SimTime::from_millis(self.tick * self.config.tick_millis));
        self.record_sample();
    }

    /// Applies one command at the current tick boundary and returns its outcome
    /// object. Control commands (`step`/`run`/`pause`/`shutdown`) do not touch
    /// simulated state here — the driver (or replay's tick stamps) realizes their
    /// effect — but they still count toward `commands_applied` so live and replayed
    /// reports agree.
    pub fn apply(&mut self, cmd: &Command) -> Json {
        self.commands_applied += 1;
        match cmd {
            Command::Fault(spec) => self.apply_fault(spec),
            Command::Flows(spec) => self.attach_flows(*spec),
            Command::Step { .. } | Command::Run { .. } | Command::Pause | Command::Shutdown => {
                Json::obj([("ok", Json::Bool(true))])
            }
        }
    }

    fn apply_fault(&mut self, spec: &FaultSpec) -> Json {
        match spec.to_event(&self.run, self.config.tick_millis) {
            Ok(event) => {
                let done = self.run.inject(&event);
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("applied", spec.to_json()),
                    ("detail", Json::str(done.join("; "))),
                ])
            }
            Err(error) => Json::obj([("ok", Json::Bool(false)), ("error", Json::str(error))]),
        }
    }

    fn attach_flows(&mut self, spec: FlowsSpec) -> Json {
        let label = format!("flows-{}", self.flows_attached);
        // The engine steps once per simulated second, so per-tick rates scale to it.
        let tick_s = self.config.tick_millis as f64 / 1e3;
        let arrival = match spec.rate_per_tick {
            Some(rate) => Arrival::Poisson {
                rate_per_tick: rate / tick_s,
            },
            None => Arrival::UpFront,
        };
        let config = FlowSetConfig {
            matrix: if spec.permutation {
                TrafficMatrix::Permutation
            } else {
                TrafficMatrix::Uniform
            },
            mix: FlowMix::datacenter(),
            arrival,
            pairs: spec.pairs,
            fan_out: None,
        };
        // The window in whole engine seconds, rounded up and at least one.
        let window_ms = u64::from(spec.duration_ticks).saturating_mul(self.config.tick_millis);
        let seconds = u32::try_from(window_ms.div_ceil(1000).max(1)).unwrap_or(u32::MAX);
        // Decorrelate repeated attachments by default; an explicit salt wins.
        let salt = spec
            .seed_salt
            .unwrap_or(0x666c_6f77 ^ self.flows_attached.rotate_left(17));
        let workload = FlowEngineWorkload::new(config, seconds)
            .with_seed_salt(salt)
            .with_label(label.as_str());
        self.run.attach(Box::new(workload));
        self.flows_attached += 1;
        Json::obj([
            ("ok", Json::Bool(true)),
            ("attached_as", Json::str(label)),
            ("flows", Json::num(f64::from(spec.pairs))),
        ])
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// The current communication graph `Gc`: node sets and links.
    pub fn topology_json(&self) -> Json {
        let topo = self.net().topology();
        let graph = self.net().sim().topology();
        let ids = |nodes: &[NodeId]| Json::arr(nodes.iter().map(|n| Json::num(n.index())));
        let links = graph
            .links()
            .map(|l| Json::arr([Json::num(l.a.index()), Json::num(l.b.index())]));
        Json::obj([
            ("name", Json::str(topo.name.as_str())),
            ("controllers", ids(&topo.controllers)),
            ("switches", ids(&topo.switches)),
            ("links", Json::arr(links)),
            (
                "generation",
                Json::num(self.net().sim().topology_generation() as f64),
            ),
            (
                "expected_diameter",
                Json::num(f64::from(topo.expected_diameter)),
            ),
        ])
    }

    /// One node's state, or `None` when the index names no node.
    pub fn node_json(&self, index: u32) -> Option<Json> {
        let id = NodeId::new(index);
        let topo = self.net().topology();
        let live = !self.net().sim().is_node_failed(id);
        let degree = self.net().sim().operational_graph().degree(id);
        if let Some(controller) = self.net().controller(id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                ("kind", Json::str("controller")),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
                ("c_resets", Json::num(controller.c_resets() as f64)),
                (
                    "state_version",
                    Json::num(controller.state_version() as f64),
                ),
            ]));
        }
        if let Some(switch) = self.net().switch(id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                ("kind", Json::str("switch")),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
                ("rules", Json::num(switch.rules().len() as f64)),
            ]));
        }
        // A failed node's state machine may be unreachable; report what the
        // topology still knows.
        if topo.controllers.contains(&id) || topo.switches.contains(&id) {
            return Some(Json::obj([
                ("id", Json::num(f64::from(index))),
                (
                    "kind",
                    Json::str(if topo.controllers.contains(&id) {
                        "controller"
                    } else {
                        "switch"
                    }),
                ),
                ("live", Json::Bool(live)),
                ("degree", Json::num(degree as f64)),
            ]));
        }
        None
    }

    /// The legitimacy verdict (paper, Definition 1) with every violated condition.
    pub fn legitimacy_json(&self) -> Json {
        let report = self.net().legitimacy_report();
        Json::obj([
            ("legitimate", Json::Bool(report.is_legitimate())),
            (
                "issues",
                Json::arr(report.issues.iter().map(|i| Json::str(i.as_str()))),
            ),
        ])
    }

    /// Counters of the session so far: tick, simulated time, control-plane message
    /// totals, rule footprint, workload and sample accounting.
    pub fn metrics_json(&self) -> Json {
        let metrics = self.net().metrics();
        Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            (
                "events",
                Json::num(self.net().sim().events_processed() as f64),
            ),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("msgs_received", Json::num(metrics.total_received() as f64)),
            ("bytes_sent", Json::num(metrics.total_bytes_sent() as f64)),
            ("rules_total", Json::num(self.net().total_rules() as f64)),
            (
                "rules_max_per_switch",
                Json::num(self.net().max_rules_per_switch() as f64),
            ),
            (
                "flow_workloads",
                Json::num(self.run.running_workloads() as f64),
            ),
            (
                "flow_reports",
                Json::num(self.run.workload_reports().len() as f64),
            ),
            ("commands", Json::num(self.commands_applied as f64)),
            ("samples_dropped", Json::num(self.samples.dropped() as f64)),
            (
                "pending_faults",
                Json::num(self.run.pending_faults() as f64),
            ),
            (
                "partitioned_links",
                Json::num(self.run.faults().partitioned_links().count() as f64),
            ),
            (
                "link_config_warnings",
                Json::num(self.net().link_config_warnings() as f64),
            ),
        ])
    }

    /// A page of the telemetry ring: retained probe samples with sequence `>= from`.
    pub fn log_json(&self, from: u64, limit: usize) -> Json {
        let page = self.samples.page(from, limit);
        page_json(&page)
    }

    /// The canonical end-of-session report — the artifact the replay test compares
    /// byte for byte. Everything here derives from simulated state only.
    pub fn final_report(&self) -> Json {
        let flow_reports = self.run.workload_reports().iter().map(workload_report_json);
        Json::obj([
            ("config", self.config.to_json()),
            ("final_tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("legitimacy", self.legitimacy_json()),
            ("metrics", self.metrics_json()),
            ("flow_reports", Json::arr(flow_reports)),
            (
                "samples",
                Json::obj([
                    ("pushed", Json::num(self.samples.next_seq() as f64)),
                    ("dropped", Json::num(self.samples.dropped() as f64)),
                ]),
            ),
        ])
    }

    fn record_sample(&mut self) {
        let metrics = self.net().metrics();
        let report = self.net().legitimacy_report();
        let line = Json::obj([
            ("tick", Json::num(self.tick as f64)),
            ("sim_s", Json::num(self.sim_secs())),
            ("legitimate", Json::Bool(report.is_legitimate())),
            ("issues", Json::num(report.issues.len() as f64)),
            (
                "events",
                Json::num(self.net().sim().events_processed() as f64),
            ),
            ("msgs_sent", Json::num(metrics.total_sent() as f64)),
            ("rules_total", Json::num(self.net().total_rules() as f64)),
            (
                "flow_workloads",
                Json::num(self.run.running_workloads() as f64),
            ),
        ])
        .to_string();
        self.samples.push_line(line);
    }
}

/// Renders a [`RingPage`] as the `/log` response object; samples are re-embedded as
/// JSON values (they were emitted by this crate, so parsing cannot fail in practice,
/// but a raw string fallback keeps the endpoint total).
pub fn page_json(page: &RingPage) -> Json {
    let lines = page.lines.iter().map(|(seq, line)| {
        let sample = Json::parse(line).unwrap_or_else(|_| Json::str(line.as_str()));
        Json::obj([("seq", Json::num(*seq as f64)), ("sample", sample)])
    });
    Json::obj([
        ("lines", Json::arr(lines)),
        (
            "first_seq",
            match page.first_seq {
                Some(seq) => Json::num(seq as f64),
                None => Json::Null,
            },
        ),
        ("next", Json::num(page.next as f64)),
        ("dropped", Json::num(page.dropped as f64)),
    ])
}

/// Serializes one finished workload report: notes, per-tick series, digest summaries.
fn workload_report_json(report: &WorkloadReport) -> Json {
    let notes = report.notes.iter().map(|(k, v)| (k, Json::str(v.as_str())));
    let series = report.series.iter().map(|s| {
        let values = s.values.iter().map(|&v| Json::num(v));
        (&s.name, Json::arr(values))
    });
    let digests = report.digests.iter().map(|(k, d)| (k, Json::samples(d)));
    Json::obj([
        ("label", Json::str(report.label.as_str())),
        ("notes", Json::obj(notes)),
        ("series", Json::obj(series)),
        ("digests", Json::obj(digests)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SessionConfig {
        SessionConfig {
            topology: "grid(2,3)".to_string(),
            controllers: 2,
            seed: 11,
            tick_millis: 500,
            ring_capacity: 64,
        }
    }

    #[test]
    fn session_config_round_trips() {
        let config = tiny();
        let wire = config.to_json().to_string();
        let back = SessionConfig::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn stepping_twice_from_the_same_config_is_bit_identical() {
        let run = || {
            let mut s = Session::new(tiny());
            for _ in 0..20 {
                s.step();
            }
            s.apply(&Command::Fault(FaultSpec::FailLink(3, 4)));
            for _ in 0..20 {
                s.step();
            }
            s.final_report().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_outcomes_validate_their_victims() {
        let mut s = Session::new(tiny());
        let bad = s.apply(&Command::Fault(FaultSpec::FailSwitch(99)));
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        let good = s.apply(&Command::Fault(FaultSpec::FailSwitch(3)));
        assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));
        // Commands counted either way: outcomes are part of session history.
        assert_eq!(
            s.metrics_json().get("commands").and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn gray_faults_validate_and_apply() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let degraded = s.apply(&Command::Fault(FaultSpec::DegradeLink {
            a: 3,
            b: 4,
            loss: 0.25,
            burst: None,
            asymmetric: false,
        }));
        assert_eq!(ok(&degraded), Some(true), "{degraded}");
        let restored = s.apply(&Command::Fault(FaultSpec::RestoreLinkQuality(3, 4)));
        assert_eq!(ok(&restored), Some(true), "{restored}");
        // Restoring again reports there is nothing left to restore.
        let nothing = s.apply(&Command::Fault(FaultSpec::RestoreLinkQuality(3, 4)));
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
        // Degrading a pair that is not a link is rejected up front, not silently
        // swallowed by the simulator's warning counter.
        let no_link = s.apply(&Command::Fault(FaultSpec::DegradeLink {
            a: 2,
            b: 7,
            loss: 0.5,
            burst: None,
            asymmetric: false,
        }));
        assert_eq!(ok(&no_link), Some(false), "{no_link}");
    }

    #[test]
    fn partitions_cut_heal_and_refuse_double_cuts() {
        let mut s = Session::new(tiny());
        for _ in 0..10 {
            s.step();
        }
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let partitioned = |s: &Session| {
            s.metrics_json()
                .get("partitioned_links")
                .and_then(Json::as_f64)
        };
        // grid(2,3): splitting along the rows cuts the three vertical links.
        let groups = vec![vec![0, 2, 3, 4], vec![1, 5, 6, 7]];
        let cut = s.apply(&Command::Fault(FaultSpec::Partition {
            groups: groups.clone(),
        }));
        assert_eq!(ok(&cut), Some(true), "{cut}");
        assert_eq!(partitioned(&s), Some(3.0));
        let double = s.apply(&Command::Fault(FaultSpec::Partition { groups }));
        assert_eq!(ok(&double), Some(false), "{double}");
        let healed = s.apply(&Command::Fault(FaultSpec::HealPartition));
        assert_eq!(ok(&healed), Some(true), "{healed}");
        assert_eq!(partitioned(&s), Some(0.0));
        let nothing = s.apply(&Command::Fault(FaultSpec::HealPartition));
        assert_eq!(ok(&nothing), Some(false), "{nothing}");
    }

    #[test]
    fn flaps_and_rolling_restarts_fire_on_schedule() {
        let mut s = Session::new(tiny());
        let ok = |outcome: &Json| outcome.get("ok").and_then(Json::as_bool);
        let pending = |s: &Session| {
            s.metrics_json()
                .get("pending_faults")
                .and_then(Json::as_f64)
        };
        let flap = s.apply(&Command::Fault(FaultSpec::FlapLink {
            a: 3,
            b: 4,
            period_ticks: 4,
            count: 2,
        }));
        assert_eq!(ok(&flap), Some(true), "{flap}");
        // Two down/up phases per cycle; the first down-phase applies at once.
        assert_eq!(pending(&s), Some(3.0));
        let rolling = s.apply(&Command::Fault(FaultSpec::RollingRestart {
            interval_ticks: 6,
            down_ticks: 3,
            count: 2,
        }));
        assert_eq!(ok(&rolling), Some(true), "{rolling}");
        assert_eq!(pending(&s), Some(6.0));
        for _ in 0..20 {
            s.step();
        }
        assert_eq!(pending(&s), Some(0.0), "every phase fired");
        // Asking for more controllers than exist is rejected.
        let too_many = s.apply(&Command::Fault(FaultSpec::RollingRestart {
            interval_ticks: 6,
            down_ticks: 3,
            count: 9,
        }));
        assert_eq!(ok(&too_many), Some(false), "{too_many}");
    }

    #[test]
    fn flows_attach_run_and_retire_into_reports() {
        let mut s = Session::new(tiny());
        for _ in 0..30 {
            s.step();
        }
        let ack = s.apply(&Command::Flows(FlowsSpec {
            pairs: 12,
            duration_ticks: 5,
            rate_per_tick: Some(4.0),
            permutation: false,
            seed_salt: None,
        }));
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        for _ in 0..6 {
            s.step();
        }
        let report = s.final_report();
        let flows = report.get("flow_reports").and_then(Json::as_array).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(
            flows[0].get("label").and_then(Json::as_str),
            Some("flows-0")
        );
    }

    #[test]
    fn flow_results_are_in_simulated_seconds_at_any_tick_length() {
        // The same flow set over the same simulated window, once at 500 ms ticks
        // and once at 1000 ms ticks: the engine advances in simulated seconds, so
        // FCTs and throughput must not depend on the tick length.
        let flows = |tick_millis: u64, scale: u32| {
            let mut s = Session::new(SessionConfig {
                tick_millis,
                ..tiny()
            });
            for _ in 0..10 * scale {
                s.step();
            }
            let ack = s.apply(&Command::Flows(FlowsSpec {
                pairs: 24,
                duration_ticks: 6 * scale,
                rate_per_tick: Some(4.0 / f64::from(scale)),
                permutation: false,
                seed_salt: Some(5),
            }));
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
            for _ in 0..7 * scale {
                s.step();
            }
            let report = s.final_report();
            let flows = report.get("flow_reports").and_then(Json::as_array).unwrap();
            assert_eq!(flows.len(), 1, "{report}");
            let fct = flows[0]
                .get("digests")
                .and_then(|d| d.get("fct_s"))
                .cloned();
            let mbps = flows[0]
                .get("series")
                .and_then(|d| d.get("achieved_mbps"))
                .cloned();
            (fct.unwrap(), mbps.unwrap())
        };
        let (fct_half, mbps_half) = flows(500, 2);
        let (fct_full, mbps_full) = flows(1000, 1);
        assert_eq!(fct_half, fct_full);
        assert_eq!(mbps_half, mbps_full);
        assert_eq!(mbps_full.as_array().map(<[Json]>::len), Some(6));
        assert!(fct_full.get("n").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn snapshots_are_well_formed() {
        let mut s = Session::new(tiny());
        for _ in 0..4 {
            s.step();
        }
        let topo = s.topology_json();
        assert_eq!(topo.get("name").and_then(Json::as_str), Some("Grid-2x3"));
        assert!(!topo
            .get("links")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        let node = s.node_json(2).unwrap();
        assert_eq!(node.get("kind").and_then(Json::as_str), Some("switch"));
        assert!(s.node_json(999).is_none());
        let log = s.log_json(0, 3);
        assert_eq!(log.get("lines").and_then(Json::as_array).unwrap().len(), 3);
        assert!(s.last_sample().is_some());
    }
}
