//! The three workloads driven through `renaissance::scenario`: `steady_fabric`,
//! `stabilize` and `traffic_heavy`.
//!
//! Each repetition builds one scenario with a single seed and runs it on one
//! thread. An [`Observer`] spans the measured window in every mode, so a traced
//! repetition follows the same agenda as an untraced one.

use crate::layers::{push, Observer, TimedFlows, FLOWS, OBSERVER};
use crate::rep::{median_setup, Rep, Size};
use renaissance::scenario::{
    ControlPlane, ControllerSelector, Endpoints, FaultEvent, LinkSelector, RunReport, Scenario,
};
use renaissance::{ControllerConfig, ControllerStats, CorruptionPlan, HarnessConfig, SdnNetwork};
use sdn_netsim::SimDuration;
use sdn_switch::SwitchStats;
use sdn_topology::builders;
use sdn_traffic::engine::FlowSetConfig;
use std::time::Instant;

/// Legitimacy is checked, and recovery measured, at this simulated period.
pub const CHECK_EVERY_MS: u64 = 250;

/// Every scenario workload runs 3 controllers with a 200 ms task delay.
const CONTROLLERS: usize = 3;
const TASK_DELAY_MS: u64 = 200;

/// One scenario-driven workload, fully specified. Times are simulated
/// milliseconds after the bootstrap instant.
pub struct Spec {
    name: &'static str,
    network: &'static str,
    /// Post-bootstrap window the observer spans.
    window_ms: u64,
    /// Observer tick: the traced run's sampling period.
    probe_every_ms: u64,
    faults: Vec<(u64, FaultEvent)>,
    /// Flow-engine population (pairs) and ticks. When set, the seed picks the
    /// flow population and the fabric itself is seeded with [`FABRIC_SEED`], so
    /// the control-plane work before the flows start is the same for every seed.
    flows: Option<(u32, u32)>,
    frozen: bool,
}

/// Harness seed of a workload whose seed drives only its flow population.
const FABRIC_SEED: u64 = 1;

/// Salt for the flow population, mixed with the benchmark seed.
const FLOW_SALT: u64 = 0x7065_7266_6265_6e63;

/// `fat_tree(8)` (tiny: `fat_tree(4)`): bootstrap,
/// then a 30 s fault-free window in which the control plane only holds its state.
pub fn steady_fabric(size: Size) -> Spec {
    let (network, window_ms) = match size {
        Size::Full => ("fat_tree(8)", 30_000),
        Size::Tiny => ("fat_tree(4)", 6_000),
    };
    Spec {
        name: "steady_fabric",
        network,
        window_ms,
        probe_every_ms: 2_000,
        faults: Vec::new(),
        flows: None,
        frozen: false,
    }
}

/// `jellyfish(256, 4, 7)` (tiny: `jellyfish(24, 4, 7)`): bootstrap
/// from empty, then heavy state corruption, a random controller failure and a
/// mid-path link removal.
///
/// Each batch gets about twice the longest recovery seen for its kind over many
/// seeds (corruption up to 2 s, controller failure 0.5 s, link removal 0.5 s), so
/// convergence rather than idle time fills most of the window while every batch
/// still recovers before the next.
pub fn stabilize(size: Size) -> Spec {
    let network = match size {
        Size::Full => "jellyfish(256,4,7)",
        Size::Tiny => "jellyfish(24,4,7)",
    };
    Spec {
        name: "stabilize",
        network,
        window_ms: 6_000,
        probe_every_ms: 500,
        faults: vec![
            (0, FaultEvent::CorruptState(CorruptionPlan::heavy())),
            (
                3_000,
                FaultEvent::FailController(ControllerSelector::Random { count: 1 }),
            ),
            (
                4_500,
                FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
            ),
        ],
        flows: None,
        frozen: false,
    }
}

/// `fat_tree(16)` (tiny: `fat_tree(4)`) carrying a uniform stress population with a
/// frozen control plane over one-second ticks (60; tiny: 12); a mid-path link
/// removal at 10 s (tiny: 6 s) forces a route rebuild.
pub fn traffic_heavy(size: Size) -> Spec {
    let (network, pairs, ticks) = match size {
        Size::Full => ("fat_tree(16)", 2_000_000, 60),
        Size::Tiny => ("fat_tree(4)", 2_000, 12),
    };
    Spec {
        name: "traffic_heavy",
        network,
        window_ms: u64::from(ticks) * 1_000,
        probe_every_ms: 10_000,
        faults: vec![(
            10_000.min(u64::from(ticks) * 500),
            FaultEvent::RemoveLink(LinkSelector::MidPath(Endpoints::FarthestSwitches)),
        )],
        flows: Some((pairs, ticks)),
        frozen: true,
    }
}

fn controller_sum(net: &SdnNetwork, field: fn(&ControllerStats) -> u64) -> f64 {
    net.controller_ids()
        .into_iter()
        .filter_map(|id| net.controller(id))
        .map(|c| field(&c.stats()))
        .sum::<u64>() as f64
}

fn switch_sum(net: &SdnNetwork, field: fn(&SwitchStats) -> u64) -> f64 {
    net.switch_ids()
        .into_iter()
        .filter_map(|id| net.switch(id))
        .map(|s| field(&s.stats()))
        .sum::<u64>() as f64
}

/// Runs one repetition of `spec` with `seed`.
pub fn rep(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let task_delay = SimDuration::from_millis(TASK_DELAY_MS);
    let (seed, flow_salt) = match spec.flows {
        Some(_) => (
            FABRIC_SEED,
            FLOW_SALT ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ),
        None => (seed, FLOW_SALT),
    };

    // Set-up as the runner performs it: topology and network construction. The
    // runner repeats this inside its run; timing it here as well makes work moved
    // into construction show in `setup_s`.
    let construct_s = median_setup(|| {
        let topology = builders::by_name(spec.network, CONTROLLERS);
        let config =
            ControllerConfig::for_network(topology.controller_count(), topology.switch_count());
        let harness = HarnessConfig::default()
            .with_task_delay(task_delay)
            .with_seed(seed);
        drop(std::hint::black_box(SdnNetwork::new(
            topology, config, harness,
        )));
    });

    let window = SimDuration::from_millis(spec.window_ms);
    let every = SimDuration::from_millis(spec.probe_every_ms);
    let mut builder = Scenario::builder(spec.name)
        .network(spec.network)
        .controllers(CONTROLLERS)
        .task_delay(task_delay)
        .check_every(SimDuration::from_millis(CHECK_EVERY_MS))
        .timeout(SimDuration::from_secs(600))
        .threads(1)
        .seeds_from(seed)
        .workload(move || Box::new(Observer::new(window, every, traced)))
        .summary("controller.iterations", |n| {
            controller_sum(n, |s| s.iterations)
        })
        .summary("controller.rounds", |n| {
            controller_sum(n, |s| s.rounds_completed)
        })
        .summary("controller.rule_updates", |n| {
            controller_sum(n, |s| s.rule_updates_sent)
        })
        .summary("controller.replies_accepted", |n| {
            controller_sum(n, |s| s.replies_accepted)
        })
        .summary("controller.replies_ignored", |n| {
            controller_sum(n, |s| s.replies_ignored)
        })
        .summary("controller.c_resets", |n| {
            n.controller_ids()
                .into_iter()
                .filter_map(|id| n.controller(id))
                .map(|c| c.c_resets())
                .sum::<u64>() as f64
        })
        .summary("switch.batches", |n| switch_sum(n, |s| s.batches_applied))
        .summary("switch.rules_replaced", |n| {
            switch_sum(n, |s| s.rules_deleted)
        })
        .summary("switch.forwarded", |n| {
            switch_sum(n, |s| s.packets_forwarded)
        })
        .summary("switch.fwd_dropped", |n| {
            switch_sum(n, |s| s.packets_dropped)
        })
        .summary("netsim.bytes", |n| n.metrics().total_bytes_sent() as f64)
        .summary("netsim.dropped", |n| n.metrics().dropped() as f64);
    for (offset, event) in &spec.faults {
        builder = builder.fault_at(SimDuration::from_millis(*offset), event.clone());
    }
    if let Some((pairs, ticks)) = spec.flows {
        let config = FlowSetConfig::stress(pairs);
        builder =
            builder.workload(move || Box::new(TimedFlows::new(config, ticks, flow_salt, traced)));
    }
    if spec.frozen {
        builder = builder.control_plane(ControlPlane::Frozen);
    }
    let scenario = builder.build();

    let started = Instant::now();
    let mut report = scenario.run();
    let total_s = started.elapsed().as_secs_f64();
    let Some(run) = report.runs.pop() else {
        rep.violation("the runner returned no run");
        return rep;
    };

    // The flow population is generated inside the run, by the workload's `start`.
    let generate_s = run
        .workload(FLOWS)
        .and_then(|w| w.series("engine.generate_s"))
        .and_then(|s| s.first().copied())
        .unwrap_or(0.0);
    rep.setup_s = construct_s + generate_s;
    rep.run_s = total_s - generate_s;
    rep.attempted = 1 + spec.faults.len() as u64;
    record(&mut rep, spec, &run, traced);
    rep
}

/// Turns the run report into outcomes, samples and output checks.
fn record(rep: &mut Rep, spec: &Spec, run: &RunReport, traced: bool) {
    let check_s = CHECK_EVERY_MS as f64 / 1e3;
    let Some(bootstrap_s) = run.bootstrap_s else {
        rep.violation(format!(
            "{}: seed {} never bootstrapped",
            spec.name, run.seed
        ));
        return;
    };
    rep.outcome("bootstrap_sim_s", bootstrap_s);
    // The runner checks legitimacy every `check_s` while it waits, starting at the
    // bootstrap origin and at each fault instant.
    let mut checks = (bootstrap_s / check_s).round() + 1.0;
    if !spec.faults.is_empty() {
        let mut recovery_s = 0.0;
        for record in &run.recoveries {
            match record.recovered_in_s {
                Some(s) => {
                    recovery_s += s;
                    checks += (s / check_s).round() + 1.0;
                }
                None => rep.violation(format!(
                    "{}: fault batch at {} s did not recover",
                    spec.name, record.fault_at_s
                )),
            }
        }
        if !spec.frozen && run.recoveries.len() != spec.faults.len() {
            rep.violation(format!(
                "{}: {} recovery records for {} fault batches",
                spec.name,
                run.recoveries.len(),
                spec.faults.len()
            ));
        }
        if !spec.frozen {
            rep.outcome("recovery_sim_s", recovery_s);
        }
    }
    if !spec.frozen && !run.final_legitimate {
        rep.violation(format!("{}: run ended illegitimate", spec.name));
    }
    rep.outcome("control_messages", run.messages_sent as f64);
    rep.outcome("netsim.events", run.events_processed as f64);
    rep.outcome("netsim.messages", run.messages_sent as f64);
    rep.outcome("sim_end_s", run.sim_end_s);
    rep.outcome("legitimacy.checks", checks);
    for (key, value) in &run.summaries {
        rep.outcome(key.name(), *value);
    }
    let offered = run
        .summaries
        .iter()
        .filter(|(k, _)| k.name().starts_with("controller.replies_"))
        .map(|(_, v)| v)
        .sum::<f64>();
    let ignored = rep.get("controller.replies_ignored").unwrap_or(0.0);
    rep.outcome(
        "controller.reply_waste",
        if offered > 0.0 {
            ignored / offered
        } else {
            0.0
        },
    );

    rep.sim_s = if spec.frozen {
        bootstrap_s + spec.window_ms as f64 / 1e3
    } else {
        run.sim_end_s
    };

    if let Some(flows) = run.workload(FLOWS) {
        let population = flows.note("flows").and_then(|v| v.parse::<f64>().ok());
        let completed = flows.note("completed").and_then(|v| v.parse::<f64>().ok());
        match (population, completed) {
            (Some(population), Some(completed)) => {
                if completed > population {
                    rep.violation(format!(
                        "{completed} completed flows exceed the population of {population}"
                    ));
                }
                rep.outcome("engine.flows", population);
                rep.outcome("engine.completed", completed);
                push(&mut rep.samples, "flows_per_s", completed / rep.run_s);
            }
            _ => rep.violation("flow report lacks its population or completion count"),
        }
        let sum = |name: &str| flows.series(name).map(|v| v.iter().sum::<f64>());
        rep.outcome("engine.flow_ticks", sum("concurrent_flows").unwrap_or(0.0));
        rep.outcome(
            "engine.stalled_flow_ticks",
            sum("stalled_flows").unwrap_or(0.0),
        );
        match flows.digest("fct_s").and_then(|d| d.quantile(0.99)) {
            Some(p99) => rep.outcome("fct_p99_sim_s", p99),
            None => rep.violation("no flow completed, so the run has no FCT"),
        }
        for series in &flows.series {
            if series.name.starts_with("engine.") {
                rep.samples
                    .entry(series.name.clone())
                    .or_default()
                    .extend(&series.values);
            }
        }
    }

    if traced {
        let Some(observer) = run.workload(OBSERVER) else {
            rep.violation("the observer produced no report");
            return;
        };
        for series in &observer.series {
            match series.name.strip_prefix("count:") {
                Some(count) => rep.traced_outcome.push((
                    count.to_string(),
                    series.values.first().copied().unwrap_or(0.0),
                )),
                None => rep
                    .samples
                    .entry(series.name.clone())
                    .or_default()
                    .extend(&series.values),
            }
        }
    }
}
