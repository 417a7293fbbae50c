//! Traffic workloads attached to a scenario.
//!
//! A [`Workload`] is started at the bootstrap instant and ticked on a fixed cadence by
//! the [`ScenarioRunner`](super::ScenarioRunner); at the end of its window it produces
//! a [`WorkloadReport`] of named per-tick series. The concrete TCP/iperf workload lives
//! in the `sdn-traffic` crate (which depends on this one); the trait lives here so the
//! scenario runner can drive any traffic model without a dependency cycle.

use crate::harness::SdnNetwork;
use sdn_metrics::Digest;
use sdn_netsim::SimDuration;

/// Context passed to [`Workload::tick`]: which tick this is and how much workload time
/// has elapsed since the workload started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadTick {
    /// 1-based tick index.
    pub index: u32,
    /// Elapsed workload time at this tick (`index * tick_interval`).
    pub elapsed: SimDuration,
}

/// A traffic workload driven tick-by-tick by the scenario runner.
///
/// With a live control plane the runner advances the simulation between ticks, so the
/// workload observes genuine controller repair; with a frozen control plane
/// ([`ControlPlane::Frozen`](super::ControlPlane::Frozen)) the simulator clock stands
/// still and the workload sees only the static data plane — the paper's
/// "without recovery" mode (Figure 16). `Send`, so a [`ScenarioRun`](super::ScenarioRun)
/// carrying attached workloads can move to the thread that drives it.
pub trait Workload: Send {
    /// Display label of this workload; also the key of its report.
    fn label(&self) -> String;

    /// Total workload window length. The runner calls [`Workload::tick`]
    /// `duration / tick_interval` times.
    fn duration(&self) -> SimDuration;

    /// Cadence at which [`Workload::tick`] is called (default: one simulated second).
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// Called once at the bootstrap instant, before the first tick — resolve endpoints,
    /// open connections, etc.
    fn start(&mut self, net: &mut SdnNetwork);

    /// Called once per tick, after the simulator has advanced to the tick instant.
    fn tick(&mut self, net: &mut SdnNetwork, tick: WorkloadTick);

    /// Called once after the final tick; returns the collected measurements.
    fn finish(&mut self, net: &mut SdnNetwork) -> WorkloadReport;
}

/// One named per-tick series of a workload report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NamedSeries {
    /// Series name, e.g. `"throughput_mbps"`.
    pub name: String,
    /// One value per tick.
    pub values: Vec<f64>,
}

/// The measurements a workload collected over its window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    /// The workload label.
    pub label: String,
    /// Free-form key/value annotations (resolved endpoints, failed links, ...).
    pub notes: Vec<(String, String)>,
    /// Named per-tick series.
    pub series: Vec<NamedSeries>,
    /// Named streaming digests — for sample populations (per-flow completion
    /// times, per-flow rates) that are too large to keep as a series but whose
    /// quantiles are the result. Digests are deterministic summaries, so reports
    /// carrying them still compare bit-identically across thread counts.
    pub digests: Vec<(String, Digest)>,
}

impl WorkloadReport {
    /// Creates an empty report with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        WorkloadReport {
            label: label.into(),
            notes: Vec::new(),
            series: Vec::new(),
            digests: Vec::new(),
        }
    }

    /// Appends a named streaming digest (e.g. the FCT population of a traffic run).
    pub fn push_digest(&mut self, name: impl Into<String>, digest: Digest) {
        self.digests.push((name.into(), digest));
    }

    /// The named digest, if present.
    pub fn digest(&self, name: &str) -> Option<&Digest> {
        self.digests.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Appends a named series.
    pub fn push_series(&mut self, name: impl Into<String>, values: Vec<f64>) {
        self.series.push(NamedSeries {
            name: name.into(),
            values,
        });
    }

    /// Appends a key/value annotation.
    pub fn push_note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// The values of the named series, if present.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.values.as_slice())
    }

    /// The value of the named annotation, if present.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_series_and_notes() {
        let mut report = WorkloadReport::new("iperf");
        report.push_series("throughput_mbps", vec![1.0, 2.0]);
        report.push_note("endpoints", "3 -> 9");
        assert_eq!(report.series("throughput_mbps"), Some(&[1.0, 2.0][..]));
        assert_eq!(report.series("missing"), None);
        assert_eq!(report.note("endpoints"), Some("3 -> 9"));
        assert_eq!(report.note("missing"), None);
    }
}
