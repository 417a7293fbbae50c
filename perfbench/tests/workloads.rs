//! The benchmark's own tests, on the tiny variants of the four workloads.

use perfbench::rep::Size;
use perfbench::{measure, Summary, Workload, END_TO_END, PER_LAYER};

/// End-to-end metrics a workload reports beyond the ones every workload reports.
fn workload_end_to_end(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::SteadyFabric => &[],
        Workload::Stabilize => &["recovery_sim_s"],
        Workload::TrafficHeavy => &["flows_per_s", "fct_p99_sim_s"],
        Workload::ServeSession => &[
            "recovery_sim_s",
            "request_p50_ms",
            "request_p99_ms",
            "replay_s",
        ],
    }
}

/// Layer timings the traced run of a workload must produce.
fn workload_layers(workload: Workload) -> &'static [&'static str] {
    const CONTROL_PLANE: &[&str] = &[
        "controller.iterate_us",
        "controller.iterate_us.p99",
        "reply_db.fusion_us",
        "planner.plan_us",
        "switch.apply_us",
        "switch.apply_us.p99",
        "legitimacy.fresh_ms",
        "legitimacy.cached_us",
        "split.controller",
        "split.switch",
        "split.planner",
        "split.legitimacy",
    ];
    match workload {
        Workload::SteadyFabric | Workload::Stabilize => CONTROL_PLANE,
        Workload::TrafficHeavy => &[
            "controller.iterate_us",
            "switch.apply_us",
            "legitimacy.fresh_ms",
            "engine.generate_s",
            "engine.tick_ms",
            "engine.tick_ms.p99",
            "engine.ns_per_flow_tick",
            "engine.retarget_ms",
        ],
        Workload::ServeSession => &[
            "serve.session_step_ms",
            "serve.render_ms",
            "serve.http_ms.step",
            "serve.http_ms.step.p99",
            "serve.http_ms.legitimacy",
            "serve.http_ms.metrics",
            "serve.http_ms.log",
            "serve.http_ms.faults",
        ],
    }
}

fn assert_has(summary: &Summary, workload: Workload, name: &str) {
    let (_, metric) = summary
        .metrics
        .get(name)
        .unwrap_or_else(|| panic!("{}: no metric {name}", workload.name()));
    assert!(!metric.unit.is_empty(), "{name} has no unit");
    assert!(metric.value.is_finite(), "{name} = {}", metric.value);
}

#[test]
fn tiny_workloads_emit_every_named_metric_with_its_unit() {
    for workload in Workload::ALL {
        let untraced = measure(workload, Size::Tiny, 3, 0.0, false);
        assert!(
            untraced.violations.is_empty(),
            "{}: {:?}",
            workload.name(),
            untraced.violations
        );
        for (name, unit) in END_TO_END {
            assert_has(&untraced, workload, name);
            assert_eq!(untraced.metrics[name].1.unit, unit);
            assert!(untraced.metrics[name].1.value > 0.0, "{name} is 0");
        }
        for name in ["sim_speed", "bootstrap_sim_s"]
            .iter()
            .chain(workload_end_to_end(workload))
        {
            assert_has(&untraced, workload, name);
        }
        assert_eq!(untraced.value("ops_failed"), Some(0.0));

        let traced = measure(workload, Size::Tiny, 3, 0.0, true);
        assert!(
            traced.violations.is_empty(),
            "{}: {:?}",
            workload.name(),
            traced.violations
        );
        assert!(traced.repetitions.iter().any(|r| r.0 == "traced"));
        for name in workload_layers(workload) {
            assert_has(&traced, workload, name);
        }
        for (name, unit) in PER_LAYER {
            if let Some((_, metric)) = traced.metrics.get(name) {
                assert_eq!(metric.unit, unit, "{name}");
            } else {
                assert!(
                    matches!(unit, "count" | "bytes" | "share"),
                    "{}: timing {name} missing",
                    workload.name()
                );
            }
        }
        assert!(traced.value("netsim.events").unwrap_or(0.0) > 0.0);
    }
}

#[test]
fn count_metrics_repeat_exactly_between_runs() {
    for workload in Workload::ALL {
        let first = measure(workload, Size::Tiny, 5, 0.0, true);
        let second = measure(workload, Size::Tiny, 5, 0.0, true);
        let counts = |s: &Summary| -> Vec<(String, u64)> {
            s.metrics
                .iter()
                .filter(|(_, (_, m))| matches!(m.unit, "count" | "bytes" | "share"))
                .filter(|(name, _)| !name.starts_with("split.") && *name != "ops_failed")
                .map(|(name, (_, m))| (name.clone(), m.value.to_bits()))
                .collect()
        };
        let a = counts(&first);
        assert!(a.len() >= 5, "{}: {a:?}", workload.name());
        assert_eq!(a, counts(&second), "{}", workload.name());
        for name in ["bootstrap_sim_s", "control_messages"] {
            assert_eq!(
                first.value(name).map(f64::to_bits),
                second.value(name).map(f64::to_bits),
                "{}: {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
    }
    assert_eq!(Workload::parse("nope"), None);
}
