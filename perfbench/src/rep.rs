//! What one repetition of a workload produces, and the size presets.

use crate::layers::Samples;
use std::time::{Duration, Instant};

/// Times `build` repeatedly, at least three times and for at least 20 ms, and
/// returns the median in seconds: a single sub-millisecond construction is too
/// noisy to compare between runs.
pub fn median_setup(mut build: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < Duration::from_millis(20) {
        let one = Instant::now();
        build();
        samples.push(one.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

/// Input size of a workload: the benchmark runs [`Size::Full`]; the benchmark's own
/// tests run [`Size::Tiny`], which exercises the same code paths in well under a
/// second per repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A miniature of the same workload, for tests.
    Tiny,
}

/// The outcome of one repetition: one set-up, one measured run.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds spent building the topology, the network or session, and the
    /// flow population.
    pub setup_s: f64,
    /// Wall seconds of the run after set-up.
    pub run_s: f64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// Deterministic results (simulated times, counts). Every repetition of the same
    /// input must reproduce them bit for bit.
    pub outcome: Vec<(String, f64)>,
    /// Deterministic results that only a traced repetition produces (the layer
    /// probe's own counts); compared among traced repetitions.
    pub traced_outcome: Vec<(String, f64)>,
    /// Wall-clock samples by name; the name ends with its unit.
    pub samples: Samples,
    /// Operations attempted: the run itself, its fault batches and HTTP requests.
    pub attempted: u64,
    /// Failed operations and violated output checks, one line each.
    pub violations: Vec<String>,
}

impl Rep {
    /// Records a deterministic result.
    pub fn outcome(&mut self, name: &str, value: f64) {
        self.outcome.push((name.to_string(), value));
    }

    /// Records a violated check.
    pub fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }

    /// The named deterministic result, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.outcome
            .iter()
            .chain(&self.traced_outcome)
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}
