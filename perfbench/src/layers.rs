//! Per-layer timing from the benchmark's own code.
//!
//! Nothing inside the program is instrumented. At fixed simulated instants the
//! traced run clones the live controllers and switches (both are `Clone`) and calls
//! each layer's public functions on the clones, timing every call, so the live run
//! is never perturbed:
//!
//! * `ReplyDb::fusion_graph` and `FlowPlanner::plan_restricted` on that view,
//! * `Controller::iterate`, then `AbstractSwitch::apply_batch` of every batch the
//!   iteration produced on a clone of the addressed switch,
//! * `SdnNetwork::legitimacy_report_fresh` and the memoized `is_legitimate`.
//!
//! The flow engine is timed by [`TimedFlows`], a wrapper around the scenario's
//! `FlowEngineWorkload`, plus direct `FlowEngine::retarget` calls on an engine the
//! wrapper builds over the same flow population.

use renaissance::scenario::{Workload, WorkloadReport, WorkloadTick};
use renaissance::SdnNetwork;
use sdn_netsim::SimDuration;
use sdn_topology::{FlowPlanner, Graph, NodeId};
use sdn_traffic::engine::{generate, EngineConfig, FlowEngine, FlowEngineWorkload, FlowSetConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Named wall-clock samples, in the unit their name ends with.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Appends one sample to the named series.
pub fn push(samples: &mut Samples, name: &str, value: f64) {
    samples.entry(name.to_string()).or_default().push(value);
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Samples the control-plane layers of a live network through clones.
#[derive(Default)]
pub struct LayerProbe {
    samples: Samples,
    /// Each controller's fusion view at the previous sample.
    last_views: BTreeMap<NodeId, Graph>,
    view_samples: u64,
    view_changes: u64,
    reply_rules: Vec<f64>,
}

impl LayerProbe {
    /// Times every control-plane layer once against the current state of `net`.
    pub fn sample(&mut self, net: &SdnNetwork) {
        for id in net.live_controller_ids() {
            let Some(controller) = net.controller(id) else {
                continue;
            };
            let neighbors = net.sim().observed(id).to_vec();
            let (curr, prev) = (controller.curr_tag(), controller.prev_tag());

            let started = Instant::now();
            let view = black_box(
                controller
                    .reply_db()
                    .fusion_graph(curr, prev, id, &neighbors),
            );
            push(&mut self.samples, "reply_db.fusion_us", micros(started));

            let config = controller.config();
            let non_transit: BTreeSet<NodeId> = view
                .nodes()
                .filter(|n| n.is_controller(config.n_controllers))
                .collect();
            let mut planner = FlowPlanner::new(config.kappa);
            if let Some(limit) = config.max_priorities {
                planner = planner.with_max_candidates(limit);
            }
            let started = Instant::now();
            black_box(planner.plan_restricted(&view, &non_transit));
            push(&mut self.samples, "planner.plan_us", micros(started));

            if let Some(last) = self.last_views.insert(id, view.clone()) {
                self.view_samples += 1;
                if last != view {
                    self.view_changes += 1;
                }
            }

            let mut clone = controller.clone();
            let started = Instant::now();
            let batches = black_box(clone.iterate(&neighbors));
            push(&mut self.samples, "controller.iterate_us", micros(started));

            for (dst, batch) in &batches {
                let Some(switch) = net.switch(*dst) else {
                    continue;
                };
                if net.sim().is_node_failed(*dst) {
                    continue;
                }
                let mut clone = switch.clone();
                let observed = net.sim().observed(*dst);
                let started = Instant::now();
                let reply = black_box(clone.apply_batch(batch, observed));
                push(&mut self.samples, "switch.apply_us", micros(started));
                if let Some(reply) = reply {
                    self.reply_rules.push(reply.rules.len() as f64);
                }
            }
        }

        let started = Instant::now();
        black_box(net.legitimacy_report_fresh());
        push(
            &mut self.samples,
            "legitimacy.fresh_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let started = Instant::now();
        black_box(net.is_legitimate());
        push(&mut self.samples, "legitimacy.cached_us", micros(started));
    }

    /// Writes the timings and the probe's deterministic counts into `report`.
    pub fn into_report(self, report: &mut WorkloadReport) {
        for (name, values) in self.samples {
            report.push_series(name, values);
        }
        let share = if self.view_samples == 0 {
            0.0
        } else {
            self.view_changes as f64 / self.view_samples as f64
        };
        report.push_series("count:controller.view_change_share", vec![share]);
        let mean_rules = crate::stats::mean(&self.reply_rules);
        report.push_series("count:switch.reply_rules", vec![mean_rules]);
    }
}

/// The label of the [`Observer`]'s report.
pub const OBSERVER: &str = "observer";

/// A scenario workload that spans the measured window and, when traced, samples
/// every control-plane layer on its ticks.
///
/// Untraced runs carry it too, with the same tick cadence and no-op ticks, so the
/// runner's agenda (and hence every simulated result) is the same in both modes.
pub struct Observer {
    window: SimDuration,
    every: SimDuration,
    probe: Option<LayerProbe>,
}

impl Observer {
    /// An observer over `window` post-bootstrap seconds, ticking `every`.
    pub fn new(window: SimDuration, every: SimDuration, traced: bool) -> Self {
        Observer {
            window,
            every,
            probe: traced.then(LayerProbe::default),
        }
    }
}

impl Workload for Observer {
    fn label(&self) -> String {
        OBSERVER.to_string()
    }

    fn duration(&self) -> SimDuration {
        self.window
    }

    fn tick_interval(&self) -> SimDuration {
        self.every
    }

    fn start(&mut self, _net: &mut SdnNetwork) {}

    fn tick(&mut self, net: &mut SdnNetwork, _tick: WorkloadTick) {
        if let Some(probe) = self.probe.as_mut() {
            probe.sample(net);
        }
    }

    fn finish(&mut self, _net: &mut SdnNetwork) -> WorkloadReport {
        let mut report = WorkloadReport::new(OBSERVER);
        if let Some(probe) = self.probe.take() {
            probe.into_report(&mut report);
        }
        report
    }
}

/// The label of [`TimedFlows`]' report (the wrapped engine's own label).
pub const FLOWS: &str = "flow_engine";

/// `FlowEngineWorkload` with wall-clock timing around its calls.
///
/// `start` (flow generation plus the first route build) is always timed, because it
/// is set-up; ticks and direct `FlowEngine::retarget` calls are timed when traced.
pub struct TimedFlows {
    inner: FlowEngineWorkload,
    config: FlowSetConfig,
    /// Salt mixed into the harness seed for the flow population, kept so the traced
    /// run can rebuild the identical population for its direct engine calls.
    salt: u64,
    traced: bool,
    /// A second engine over the same population, for timing `retarget` directly.
    shadow: Option<FlowEngine>,
    generation: u64,
    samples: Samples,
}

impl TimedFlows {
    /// Wraps a flow-engine workload of `config` running `ticks` one-second ticks,
    /// its population seeded by the harness seed mixed with `salt`.
    pub fn new(config: FlowSetConfig, ticks: u32, salt: u64, traced: bool) -> Self {
        TimedFlows {
            inner: FlowEngineWorkload::new(config, ticks).with_seed_salt(salt),
            config,
            salt,
            traced,
            shadow: None,
            generation: 0,
            samples: Samples::new(),
        }
    }

    fn time_retarget(&mut self, net: &SdnNetwork) {
        let n_controllers = net.controller_config().n_controllers;
        if let Some(engine) = self.shadow.as_mut() {
            let started = Instant::now();
            engine.retarget(net.sim().operational_graph(), |n| {
                n.is_switch(n_controllers)
            });
            push(
                &mut self.samples,
                "engine.retarget_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
        self.generation = net.sim().topology_generation();
    }
}

impl Workload for TimedFlows {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn duration(&self) -> SimDuration {
        self.inner.duration()
    }

    fn tick_interval(&self) -> SimDuration {
        self.inner.tick_interval()
    }

    fn start(&mut self, net: &mut SdnNetwork) {
        let started = Instant::now();
        self.inner.start(net);
        push(
            &mut self.samples,
            "engine.generate_s",
            started.elapsed().as_secs_f64(),
        );
        if self.traced {
            let seed = net.harness_config().seed ^ self.salt;
            let batch = generate(&net.topology().switches, &self.config, seed);
            self.shadow = Some(FlowEngine::new(batch, EngineConfig::default()));
            self.time_retarget(net);
        }
    }

    fn tick(&mut self, net: &mut SdnNetwork, tick: WorkloadTick) {
        if self.traced && net.sim().topology_generation() != self.generation {
            self.time_retarget(net);
        }
        let started = Instant::now();
        self.inner.tick(net, tick);
        if self.traced {
            push(
                &mut self.samples,
                "engine.tick_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
    }

    fn finish(&mut self, net: &mut SdnNetwork) -> WorkloadReport {
        let mut report = self.inner.finish(net);
        for (name, values) in std::mem::take(&mut self.samples) {
            report.push_series(name, values);
        }
        self.shadow = None;
        report
    }
}
