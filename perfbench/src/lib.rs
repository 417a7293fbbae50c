//! A layered wall-clock benchmark of the Renaissance reproduction.
//!
//! Four named workloads run through the crates' public APIs (see `README.md` in
//! this package for why each exists and which layer metric should move which
//! end-to-end metric). A run repeats one workload on one seed until its time is
//! spent, checks every repetition's outputs, and reports medians:
//!
//! * untraced (`--trace 0`): the end-to-end metrics;
//! * traced (`--trace 1`): untraced and traced repetitions alternate; the traced
//!   ones time calls into each layer from the benchmark's own code
//!   ([`layers`]) and yield the per-layer metrics and the tracing overhead.

pub mod fabric;
pub mod host;
pub mod layers;
pub mod rep;
pub mod serve;
pub mod stats;

use rep::{Rep, Size};
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Quiescent control plane on `fat_tree(8)`.
    SteadyFabric,
    /// Bootstrap plus corruption and failures on `jellyfish(256,4,7)`.
    Stabilize,
    /// Millions of flows on `fat_tree(16)` with a frozen control plane.
    TrafficHeavy,
    /// A live `sdn-serve` session driven over HTTP.
    ServeSession,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyFabric,
        Workload::Stabilize,
        Workload::TrafficHeavy,
        Workload::ServeSession,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyFabric => "steady_fabric",
            Workload::Stabilize => "stabilize",
            Workload::TrafficHeavy => "traffic_heavy",
            Workload::ServeSession => "serve_session",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition.
    pub fn rep(self, size: Size, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::SteadyFabric => fabric::rep(&fabric::steady_fabric(size), seed, traced),
            Workload::Stabilize => fabric::rep(&fabric::stabilize(size), seed, traced),
            Workload::TrafficHeavy => fabric::rep(&fabric::traffic_heavy(size), seed, traced),
            Workload::ServeSession => serve::rep(&serve::serve_session(size), seed, traced),
        }
    }
}

/// Whether a metric is gated end to end or describes one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Reported by untraced runs.
    EndToEnd,
    /// Reported by traced runs.
    Layer,
}

/// One reported metric: a median, its tail and the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value reported as the metric (a median for wall-clock samples).
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// The highest percentile the sample supports, as `(label, value)`.
    pub tail: (&'static str, f64),
    /// Number of samples behind the value.
    pub n: usize,
}

impl Metric {
    fn of(values: &[f64], unit: &'static str) -> Metric {
        Metric {
            value: stats::median(values),
            unit,
            tail: stats::tail(values),
            n: values.len(),
        }
    }

    /// The 99th percentile of `values` as its own metric.
    fn p99(values: &[f64], unit: &'static str) -> Metric {
        let p99 = stats::quantile(values, 0.99);
        Metric {
            value: p99,
            unit,
            tail: ("p99", p99),
            n: values.len(),
        }
    }

    fn exact(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            tail: ("max", value),
            n: 1,
        }
    }
}

/// End-to-end metrics every workload reports, which a run's result line carries
/// with `--trace 0`: `(name, unit)`. `sim_speed` is left out: a seed fixes the
/// simulated time, so it is `run_s` inverted and would gate the same noise twice.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("control_messages", "count"),
];

/// Per-layer metrics every workload reports, which a run's result line carries
/// with `--trace 1`. Counts of a layer a workload does not reach read 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.messages", "count"),
    ("netsim.bytes", "bytes"),
    ("netsim.dropped", "count"),
    ("controller.iterations", "count"),
    ("controller.rounds", "count"),
    ("controller.c_resets", "count"),
    ("controller.rule_updates", "count"),
    ("controller.view_change_share", "share"),
    ("controller.reply_waste", "share"),
    ("switch.batches", "count"),
    ("switch.rules_replaced", "count"),
    ("switch.reply_rules", "count"),
    ("switch.forwarded", "count"),
    ("switch.fwd_dropped", "count"),
    ("legitimacy.checks", "count"),
    ("engine.flow_ticks", "count"),
    ("engine.stalled_flow_ticks", "count"),
    ("serve.commands", "count"),
    ("trace.overhead_s", "s"),
];

/// Everything one benchmark run measured.
#[derive(Debug, Default)]
pub struct Summary {
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, (Scope, Metric)>,
    /// Operations attempted (runs, fault batches, HTTP requests).
    pub attempted: u64,
    /// Violated checks, one line each.
    pub violations: Vec<String>,
    /// Every repetition in the order made: `(kind, setup_s, run_s)`, where the
    /// kind is `warmup`, `untraced` or `traced`.
    pub repetitions: Vec<(&'static str, f64, f64)>,
}

impl Summary {
    /// The value of a metric, if it was measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(_, m)| m.value)
    }

    fn put(&mut self, name: &str, scope: Scope, metric: Metric) {
        self.metrics.insert(name.to_string(), (scope, metric));
    }
}

/// Repeats `workload` on `seed` for about `seconds` and summarizes it.
///
/// The first repetition warms the process up (heap growth, caches) and is only
/// checked, not timed. After it, untraced runs make at least three repetitions;
/// traced runs alternate untraced and traced repetitions, at least one of each.
pub fn measure(workload: Workload, size: Size, seed: u64, seconds: f64, trace: bool) -> Summary {
    let started = Instant::now();
    let warmup = workload.rep(size, seed, false);
    let mut order = vec![("warmup", warmup.setup_s, warmup.run_s)];
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        let traced_turn = trace && traced.len() < untraced.len();
        let rep_started = Instant::now();
        let rep = workload.rep(size, seed, traced_turn);
        let took = rep_started.elapsed().as_secs_f64();
        let kind = if traced_turn { "traced" } else { "untraced" };
        order.push((kind, rep.setup_s, rep.run_s));
        if traced_turn {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
        let enough = if trace {
            !traced.is_empty()
        } else {
            untraced.len() >= 3
        };
        if enough && started.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    let mut summary = summarize(&warmup, &untraced, &traced);
    summary.repetitions = order;
    summary
}

/// Checks that every repetition reproduced the first one's deterministic results.
fn check_repeats(reps: &[&Rep], field: fn(&Rep) -> &Vec<(String, f64)>, out: &mut Vec<String>) {
    let Some(first) = reps.first() else {
        return;
    };
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if field(rep).len() != field(first).len() {
            out.push(format!(
                "repetition {i} reported a different set of outcomes"
            ));
            continue;
        }
        for ((name, a), (_, b)) in field(first).iter().zip(field(rep)) {
            if a.to_bits() != b.to_bits() {
                out.push(format!(
                    "{name} differs between repetitions: {a} vs {b} (repetition {i})"
                ));
            }
        }
    }
}

fn summarize(warmup: &Rep, untraced: &[Rep], traced: &[Rep]) -> Summary {
    let mut summary = Summary::default();
    let checked: Vec<&Rep> = std::iter::once(warmup)
        .chain(untraced)
        .chain(traced)
        .collect();
    for rep in &checked {
        summary.attempted += rep.attempted;
        summary.violations.extend(rep.violations.iter().cloned());
    }
    check_repeats(&checked, |r| &r.outcome, &mut summary.violations);
    let traced_refs: Vec<&Rep> = traced.iter().collect();
    check_repeats(&traced_refs, |r| &r.traced_outcome, &mut summary.violations);

    let column = |reps: &[Rep], f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let e2e = Scope::EndToEnd;
    let setup: Vec<f64> = untraced.iter().chain(traced).map(|r| r.setup_s).collect();
    summary.put("setup_s", e2e, Metric::of(&setup, "s"));
    let run_s = column(untraced, |r| r.run_s);
    summary.put("run_s", e2e, Metric::of(&run_s, "s"));
    summary.put(
        "sim_speed",
        e2e,
        Metric::of(&column(untraced, |r| r.sim_s / r.run_s), "sim_s/s"),
    );
    summary.put(
        "peak_rss_mb",
        e2e,
        Metric::exact(host::peak_rss_mb(), "MiB"),
    );

    let first = untraced.first();
    let outcome = |name: &str| first.and_then(|r| r.get(name));
    for (name, unit) in [
        ("bootstrap_sim_s", "s"),
        ("recovery_sim_s", "s"),
        ("control_messages", "count"),
        ("fct_p99_sim_s", "s"),
    ] {
        if let Some(value) = outcome(name) {
            summary.put(name, e2e, Metric::exact(value, unit));
        }
    }
    let pooled = |reps: &[&Rep], name: &str| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| r.samples.get(name).into_iter().flatten().copied())
            .collect()
    };
    let untraced_refs: Vec<&Rep> = untraced.iter().collect();
    let flows_per_s = pooled(&untraced_refs, "flows_per_s");
    if !flows_per_s.is_empty() {
        summary.put("flows_per_s", e2e, Metric::of(&flows_per_s, "1/s"));
    }
    let requests = pooled(&untraced_refs, "request_ms");
    if !requests.is_empty() {
        summary.put("request_p50_ms", e2e, Metric::of(&requests, "ms"));
        summary.put("request_p99_ms", e2e, Metric::p99(&requests, "ms"));
    }
    let replay = pooled(&untraced_refs, "replay_s");
    if !replay.is_empty() {
        summary.put("replay_s", e2e, Metric::of(&replay, "s"));
    }
    let failed = summary.violations.len() as u64;
    summary.attempted = summary.attempted.max(failed).max(1);
    summary.put(
        "ops_failed",
        e2e,
        Metric::exact(failed as f64 / summary.attempted as f64, "share"),
    );

    if traced.is_empty() {
        return summary;
    }
    layer_metrics(&mut summary, first, &traced_refs, &run_s);
    summary
}

fn layer_metrics(summary: &mut Summary, first: Option<&Rep>, traced: &[&Rep], run_s: &[f64]) {
    let layer = Scope::Layer;
    let count = |name: &str| {
        first
            .and_then(|r| r.get(name))
            .or_else(|| traced.first().and_then(|r| r.get(name)))
    };
    for (name, unit) in PER_LAYER {
        if let Some(value) = count(name) {
            summary.put(name, layer, Metric::exact(value, unit));
        }
    }
    let run_median = stats::median(run_s);
    let traced_run: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    summary.put("trace.run_s", layer, Metric::of(&traced_run, "s"));
    summary.put(
        "trace.overhead_s",
        layer,
        Metric::exact(stats::median(&traced_run) - run_median, "s"),
    );
    let events = count("netsim.events").unwrap_or(0.0);
    if events > 0.0 {
        summary.put(
            "netsim.ns_per_event",
            layer,
            Metric::exact(run_median / events * 1e9, "ns"),
        );
    }

    // Wall-clock samples of the traced repetitions, pooled.
    let mut pooled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in traced {
        // Layer samples carry their layer as a prefix (`switch.apply_us`).
        for (name, values) in rep.samples.iter().filter(|(n, _)| n.contains('.')) {
            pooled.entry(name).or_default().extend(values);
        }
    }
    for (name, values) in &pooled {
        let unit = ["_ms", "_us", "_s"]
            .into_iter()
            .find(|suffix| name.ends_with(suffix) || name.contains(&format!("{suffix}.")))
            .map_or("count", |suffix| &suffix[1..]);
        let metric = Metric::of(values, unit);
        if ["controller.iterate_us", "switch.apply_us", "engine.tick_ms"].contains(name)
            || name.starts_with("serve.http_ms.")
        {
            summary.put(&format!("{name}.p99"), layer, Metric::p99(values, unit));
        }
        summary.put(name, layer, metric);
    }

    // The layer split: mean sampled cost times the number of calls the run made,
    // as a share of the untraced run time.
    let mean_of = |name: &str| pooled.get(name).map(|v| stats::mean(v));
    let iterations = count("controller.iterations").unwrap_or(0.0);
    let replans = iterations * count("controller.view_change_share").unwrap_or(0.0);
    for (share, timing, scale, calls) in [
        (
            "split.controller",
            "controller.iterate_us",
            1e-6,
            iterations,
        ),
        (
            "split.switch",
            "switch.apply_us",
            1e-6,
            count("switch.batches").unwrap_or(0.0),
        ),
        ("split.planner", "planner.plan_us", 1e-6, replans),
        (
            "split.legitimacy",
            "legitimacy.fresh_ms",
            1e-3,
            count("legitimacy.checks").unwrap_or(0.0),
        ),
    ] {
        if let (Some(mean), true) = (mean_of(timing), run_median > 0.0) {
            summary.put(
                share,
                layer,
                Metric::exact(mean * scale * calls / run_median, "share"),
            );
        }
    }
    let flow_ticks = count("engine.flow_ticks").unwrap_or(0.0);
    if let (Some(ticks), true) = (pooled.get("engine.tick_ms"), flow_ticks > 0.0) {
        let per_rep = ticks.iter().sum::<f64>() / traced.len() as f64;
        summary.put(
            "engine.ns_per_flow_tick",
            layer,
            Metric::exact(per_rep * 1e6 / flow_ticks, "ns"),
        );
    }
}
