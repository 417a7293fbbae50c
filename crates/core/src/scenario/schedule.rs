//! Typed, time-stamped fault schedules.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s at offsets relative to the moment
//! the network first reaches a legitimate state (the paper injects every fault into an
//! already-stabilized network). Events carry *selectors* rather than concrete victims,
//! so one declarative scenario covers the paper's randomized experiments: the runner
//! resolves selectors per seeded run, deterministically.

use crate::faults::{CorruptionPlan, FaultInjector};
use crate::harness::SdnNetwork;
use crate::legitimacy;
use sdn_netsim::{BurstLoss, LinkConfig, SimDuration};
use sdn_rng::Rng;
use sdn_topology::{paths, FatTreeLayout, NodeId};
use std::collections::BTreeMap;

/// How a fault event picks its controller victim(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerSelector {
    /// A concrete controller.
    Id(NodeId),
    /// The controller at this index of [`SdnNetwork::controller_ids`].
    Index(usize),
    /// `count` random live controllers — but never all of them, so the control-plane
    /// task stays solvable (the paper's Figures 10/11 always leave one controller).
    Random {
        /// How many controllers fail simultaneously.
        count: usize,
    },
}

/// How a fault event picks its switch victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchSelector {
    /// A concrete switch.
    Id(NodeId),
    /// A random live switch whose removal keeps the rest of the network connected
    /// (the paper's Figure 12 experiment also always stays connected).
    Random,
}

/// Endpoints of a data-plane path, used by [`LinkSelector::MidPath`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoints {
    /// Two concrete nodes.
    Nodes(NodeId, NodeId),
    /// The two switches at maximal distance in the switch graph — where the paper
    /// attaches its iperf hosts (Section 6.4.3).
    FarthestSwitches,
}

impl Endpoints {
    /// Resolves the endpoints against a concrete network.
    pub fn resolve(&self, net: &SdnNetwork) -> Option<(NodeId, NodeId)> {
        match *self {
            Endpoints::Nodes(a, b) => Some((a, b)),
            Endpoints::FarthestSwitches => {
                paths::farthest_pair(&net.topology().switch_graph).map(|(a, b, _)| (a, b))
            }
        }
    }
}

/// How a fault event picks the link(s) it acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkSelector {
    /// A concrete link.
    Between(NodeId, NodeId),
    /// `count` random links whose removal keeps the network in-band connected
    /// (Figures 13/14).
    RandomSafe {
        /// How many links are picked simultaneously.
        count: usize,
    },
    /// The link closest to the middle of the current in-band data-plane path between
    /// the endpoints, preferring links whose removal keeps the topology connected —
    /// the paper's Figures 15/16 mid-path failure.
    MidPath(Endpoints),
    /// Every in-pod uplink of one random rack (edge switch) of a fat-tree —
    /// a correlated top-of-rack failure domain. Resolves to nothing on
    /// topologies without fat-tree coordinates.
    SameRack,
    /// Every intra-pod link of one random fat-tree pod (the agg↔edge bipartite
    /// block) — a correlated pod-wide failure domain. Resolves to nothing on
    /// topologies without fat-tree coordinates.
    SamePod,
    /// The links degraded by the most recent `DegradeLink` event.
    LastDegraded,
}

/// How a link's quality degrades under a [`FaultEvent::DegradeLink`] — the gray
/// failure: the link stays part of `Gc` (no failure detector fires) but drops,
/// delays, or reorders traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeSpec {
    /// Flat per-packet loss probability (ignored when `burst` is set: the burst
    /// process then owns the loss decision).
    pub loss: f64,
    /// Optional two-state burst-loss process; bursty links draw from a dedicated
    /// per-link RNG stream in the simulator, keeping runs interleaving-independent.
    pub burst: Option<BurstLoss>,
    /// Extra jitter added on top of the default link's jitter bound.
    pub extra_jitter: SimDuration,
    /// Degrade only the `a -> b` direction of each selected link, leaving the
    /// reverse direction clean — the asymmetric gray failure.
    pub asymmetric: bool,
}

impl DegradeSpec {
    /// Flat i.i.d. loss at probability `loss`, both directions.
    pub fn flat(loss: f64) -> Self {
        DegradeSpec {
            loss,
            burst: None,
            extra_jitter: SimDuration::ZERO,
            asymmetric: false,
        }
    }

    /// The canonical gray link of the issue: ~30% of packets dropped in bursts
    /// (Gilbert channel, mean burst ≈ 3 packets) in one direction only.
    pub fn gray() -> Self {
        DegradeSpec {
            loss: 0.0,
            burst: Some(BurstLoss::gilbert(0.15, 0.35, 1.0)),
            extra_jitter: SimDuration::ZERO,
            asymmetric: true,
        }
    }

    /// Makes the degradation symmetric (both directions).
    pub fn symmetric(mut self) -> Self {
        self.asymmetric = false;
        self
    }

    /// Adds jitter on top of the default link's jitter bound.
    pub fn with_extra_jitter(mut self, jitter: SimDuration) -> Self {
        self.extra_jitter = jitter;
        self
    }

    /// The concrete link configuration of a degraded link, derived from the
    /// network's default link behaviour.
    pub fn link_config(&self, base: LinkConfig) -> LinkConfig {
        let mut cfg = base.with_jitter(base.jitter + self.extra_jitter);
        cfg = match self.burst {
            Some(burst) => cfg.with_burst(burst),
            None => cfg.without_burst().with_loss(self.loss),
        };
        cfg
    }

    /// Short human-readable summary for fault descriptions.
    pub fn describe(&self) -> String {
        let loss = match self.burst {
            Some(burst) => format!("bursty loss ~{:.0}%", burst.stationary_loss() * 100.0),
            None => format!("loss {:.0}%", self.loss * 100.0),
        };
        let dir = if self.asymmetric { ", one-way" } else { "" };
        format!("{loss}{dir}")
    }
}

/// How a [`FaultEvent::Partition`] splits the network.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSpec {
    /// Two connected halves grown around the first two live controllers by
    /// multi-source BFS (ties go to the first seed), so each side keeps a
    /// controller and can re-stabilize while partitioned. Resolves to nothing
    /// when fewer than two controllers are alive.
    Halves,
    /// Explicit node groups; every `Gc` link whose endpoints land in different
    /// groups is cut. Nodes listed in several groups keep their first assignment;
    /// unlisted nodes belong to no group and keep all their links.
    Groups(Vec<Vec<NodeId>>),
}

/// One typed fault, to be applied at a scheduled instant.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Fail-stop of one or more controllers (Figures 10/11).
    FailController(ControllerSelector),
    /// Fail-stop of a switch (Figure 12).
    FailSwitch(SwitchSelector),
    /// Permanent removal of link(s) from `Gc` (Figures 13/14).
    RemoveLink(LinkSelector),
    /// Temporary link failure — the link stays part of `Gc`.
    FailLink(LinkSelector),
    /// Restores a concrete temporarily-failed link.
    RestoreLink(NodeId, NodeId),
    /// Restores every link taken down by the most recent `FailLink` event.
    RestoreLastFailedLinks,
    /// Adds a brand-new link to `Gc`.
    AddLink(NodeId, NodeId),
    /// Revives a concrete controller with fresh (empty) state (Lemma 8).
    ReviveController(NodeId),
    /// Revives the controller taken down by the most recent `FailController` event.
    ReviveLastFailedController,
    /// Revives a concrete switch with empty configuration.
    ReviveSwitch(NodeId),
    /// Revives the switch taken down by the most recent `FailSwitch` event.
    ReviveLastFailedSwitch,
    /// Arbitrary transient state corruption (the Theorem 2 experiments).
    CorruptState(CorruptionPlan),
    /// Degrades link quality without failing the link (gray failure): the link
    /// stays in `Gc`, no failure detector fires, but packets drop/delay per the
    /// spec. Victims are recorded for [`LinkSelector::LastDegraded`].
    DegradeLink(LinkSelector, DegradeSpec),
    /// Removes the quality overrides from the selected links, returning them to
    /// the default behaviour.
    RestoreLinkQuality(LinkSelector),
    /// Cuts the network into groups by transiently failing every crossing link.
    /// With `heal_after` set, the expander ([`FaultEvent::expand`]) schedules the
    /// heal of exactly this partition's cut that much later.
    Partition {
        /// How the groups are chosen.
        groups: PartitionSpec,
        /// Delay until the automatic heal, measured from the partition instant.
        heal_after: Option<SimDuration>,
    },
    /// Restores every link cut by the most recent partition still in force.
    HealPartition,
    /// A link that goes down and comes back `count` times, `period` apart (down
    /// for the first half of each period). The selector is resolved once, on the
    /// first down-phase, so every flap hits the same links.
    FlapLink {
        /// Which link(s) flap.
        selector: LinkSelector,
        /// Length of one down-then-up cycle.
        period: SimDuration,
        /// Number of cycles.
        count: u32,
    },
    /// A rolling restart of the controller fleet: controllers at indices
    /// `0..count` fail-stop one at a time, `interval` apart, each reviving with
    /// fresh state after `down_for` (the rolling-upgrade drill).
    RollingControllerRestart {
        /// Gap between consecutive controller restarts.
        interval: SimDuration,
        /// How long each controller stays down.
        down_for: SimDuration,
        /// How many controllers restart (clamped to the fleet size at apply time).
        count: usize,
    },
}

impl FaultEvent {
    /// Expands the event into the primitive steps [`FaultContext::apply`] executes,
    /// each at an offset from the event's own instant. This is the one expander
    /// behind both [`FaultSchedule::batches`] and
    /// [`ScenarioRun::inject`](super::ScenarioRun::inject): a `FlapLink` becomes
    /// down/up phase pairs, a `RollingControllerRestart` staggered fail/revive
    /// pairs, and a `Partition` with `heal_after` its cut plus the matching heal.
    /// `id` must be unique among the events of one run: phases sharing it resolve
    /// their flap victims once and heal their own partition's cut.
    pub fn expand(&self, id: u32) -> Vec<(SimDuration, FaultStep)> {
        let step = match self.clone() {
            FaultEvent::FailController(selector) => FaultStep::FailController(selector),
            FaultEvent::FailSwitch(selector) => FaultStep::FailSwitch(selector),
            FaultEvent::RemoveLink(selector) => FaultStep::RemoveLink(selector),
            FaultEvent::FailLink(selector) => FaultStep::FailLink(selector),
            FaultEvent::RestoreLink(a, b) => FaultStep::RestoreLink(a, b),
            FaultEvent::RestoreLastFailedLinks => FaultStep::RestoreLastFailedLinks,
            FaultEvent::AddLink(a, b) => FaultStep::AddLink(a, b),
            FaultEvent::ReviveController(node) => FaultStep::ReviveController(node),
            FaultEvent::ReviveLastFailedController => FaultStep::ReviveLastFailedController,
            FaultEvent::ReviveSwitch(node) => FaultStep::ReviveSwitch(node),
            FaultEvent::ReviveLastFailedSwitch => FaultStep::ReviveLastFailedSwitch,
            FaultEvent::CorruptState(plan) => FaultStep::CorruptState(plan),
            FaultEvent::DegradeLink(selector, spec) => FaultStep::DegradeLink(selector, spec),
            FaultEvent::RestoreLinkQuality(selector) => FaultStep::RestoreLinkQuality(selector),
            FaultEvent::HealPartition => FaultStep::HealPartition { key: None },
            FaultEvent::Partition { groups, heal_after } => {
                let mut steps = vec![(SimDuration::ZERO, FaultStep::Partition { key: id, groups })];
                if let Some(delay) = heal_after {
                    steps.push((delay, FaultStep::HealPartition { key: Some(id) }));
                }
                return steps;
            }
            FaultEvent::FlapLink {
                selector,
                period,
                count,
            } => {
                let period_us = period.as_micros();
                let phase = |down| FaultStep::FlapPhase {
                    flap: id,
                    selector,
                    down,
                };
                return (0..u64::from(count))
                    .flat_map(|i| {
                        let down_at = SimDuration::from_micros(period_us * i);
                        let up_at = down_at + SimDuration::from_micros(period_us / 2);
                        [(down_at, phase(true)), (up_at, phase(false))]
                    })
                    .collect();
            }
            FaultEvent::RollingControllerRestart {
                interval,
                down_for,
                count,
            } => {
                let interval_us = interval.as_micros();
                return (0..count)
                    .flat_map(|i| {
                        let fail_at = SimDuration::from_micros(interval_us * i as u64);
                        [
                            (
                                fail_at,
                                FaultStep::FailController(ControllerSelector::Index(i)),
                            ),
                            (fail_at + down_for, FaultStep::ReviveControllerIndex(i)),
                        ]
                    })
                    .collect();
            }
        };
        vec![(SimDuration::ZERO, step)]
    }
}

/// One primitive fault action, as [`FaultEvent::expand`] produces and
/// [`FaultContext::apply`] executes it. Most variants mirror the [`FaultEvent`] of the
/// same name; the rest are phases of compound events.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultStep {
    /// See [`FaultEvent::FailController`].
    FailController(ControllerSelector),
    /// See [`FaultEvent::FailSwitch`].
    FailSwitch(SwitchSelector),
    /// See [`FaultEvent::RemoveLink`].
    RemoveLink(LinkSelector),
    /// See [`FaultEvent::FailLink`].
    FailLink(LinkSelector),
    /// See [`FaultEvent::RestoreLink`].
    RestoreLink(NodeId, NodeId),
    /// See [`FaultEvent::RestoreLastFailedLinks`].
    RestoreLastFailedLinks,
    /// See [`FaultEvent::AddLink`].
    AddLink(NodeId, NodeId),
    /// See [`FaultEvent::ReviveController`].
    ReviveController(NodeId),
    /// See [`FaultEvent::ReviveLastFailedController`].
    ReviveLastFailedController,
    /// See [`FaultEvent::ReviveSwitch`].
    ReviveSwitch(NodeId),
    /// See [`FaultEvent::ReviveLastFailedSwitch`].
    ReviveLastFailedSwitch,
    /// See [`FaultEvent::CorruptState`].
    CorruptState(CorruptionPlan),
    /// See [`FaultEvent::DegradeLink`].
    DegradeLink(LinkSelector, DegradeSpec),
    /// See [`FaultEvent::RestoreLinkQuality`].
    RestoreLinkQuality(LinkSelector),
    /// Cuts a partition and remembers its cut set under `key`.
    Partition {
        /// The expanding event's id.
        key: u32,
        /// How the groups are chosen.
        groups: PartitionSpec,
    },
    /// Restores the cut of the partition expanded under `key`, or of the most
    /// recent partition still in force when `key` is `None`.
    HealPartition {
        /// The partition to heal.
        key: Option<u32>,
    },
    /// One half-cycle of a [`FaultEvent::FlapLink`].
    FlapPhase {
        /// The expanding event's id, tying the phases of one flap together.
        flap: u32,
        /// The original selector, resolved on the first down-phase.
        selector: LinkSelector,
        /// `true` for the down half-cycle, `false` for the up half-cycle.
        down: bool,
    },
    /// Revives the controller at this index of [`SdnNetwork::controller_ids`] with
    /// fresh state: the second half of a [`FaultEvent::RollingControllerRestart`].
    ReviveControllerIndex(usize),
}

/// A time-ordered list of fault events, offsets relative to the bootstrap instant.
///
/// # Example
///
/// ```
/// use renaissance::scenario::{ControllerSelector, FaultEvent, FaultSchedule, LinkSelector};
/// use sdn_netsim::SimDuration;
///
/// let schedule = FaultSchedule::new()
///     .at(SimDuration::from_secs(5), FaultEvent::RemoveLink(LinkSelector::RandomSafe { count: 2 }))
///     .at(SimDuration::from_secs(5), FaultEvent::FailController(ControllerSelector::Random { count: 1 }));
/// assert_eq!(schedule.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<(SimDuration, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds an event at `offset` after the bootstrap instant. Events at equal offsets
    /// form one *batch*: they are applied together and recovery is measured once for
    /// the whole batch.
    pub fn at(mut self, offset: SimDuration, event: FaultEvent) -> Self {
        self.events.push((offset, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events expanded ([`FaultEvent::expand`], with each event's insertion index
    /// as its id) and grouped into batches by offset, sorted by offset (stable:
    /// insertion order is kept within a batch).
    pub fn batches(&self) -> Vec<(SimDuration, Vec<FaultStep>)> {
        let mut expanded: Vec<(SimDuration, FaultStep)> = Vec::new();
        for (idx, (offset, event)) in self.events.iter().enumerate() {
            for (delay, step) in event.expand(idx as u32) {
                expanded.push((*offset + delay, step));
            }
        }
        expanded.sort_by_key(|&(offset, _)| offset);
        let mut batches: Vec<(SimDuration, Vec<FaultStep>)> = Vec::new();
        for (offset, step) in expanded {
            match batches.last_mut() {
                Some((at, steps)) if *at == offset => steps.push(step),
                _ => batches.push((offset, vec![step])),
            }
        }
        batches
    }
}

/// Per-run state the fault executor threads through event applications: deterministic
/// randomness plus the victims of the most recent events (for the `*LastFailed*`
/// targets).
#[derive(Debug)]
pub struct FaultContext {
    rng: Rng,
    injector: FaultInjector,
    /// Links taken down by the most recent `FailLink` event.
    pub last_failed_links: Vec<(NodeId, NodeId)>,
    /// Controller taken down most recently.
    pub last_failed_controller: Option<NodeId>,
    /// Switch taken down most recently.
    pub last_failed_switch: Option<NodeId>,
    /// Links degraded by the most recent `DegradeLink` event.
    pub last_degraded_links: Vec<(NodeId, NodeId)>,
    /// Cut sets of the partitions in force, in cut order, keyed by the id of the
    /// event that expanded into them.
    partitions: Vec<(u32, Vec<(NodeId, NodeId)>)>,
    /// Victims of each flapping link, resolved on its first down-phase so every
    /// subsequent phase of the same flap hits the same links.
    flap_targets: BTreeMap<u32, Vec<(NodeId, NodeId)>>,
}

impl FaultContext {
    /// Creates a context for one seeded run. Equal seeds resolve selectors to equal
    /// victims.
    pub fn new(seed: u64) -> Self {
        FaultContext {
            rng: Rng::seed_from_u64(seed ^ 0x5CEA_A210),
            injector: FaultInjector::new(seed ^ 0xFA17),
            last_failed_links: Vec::new(),
            last_failed_controller: None,
            last_failed_switch: None,
            last_degraded_links: Vec::new(),
            partitions: Vec::new(),
            flap_targets: BTreeMap::new(),
        }
    }

    /// Links cut by the partitions in force, in cut order.
    pub fn partitioned_links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.partitions
            .iter()
            .flat_map(|(_, cut)| cut.iter().copied())
    }

    /// Applies one step to `net`, resolving selectors, and returns a human-readable
    /// description of everything that was actually done.
    pub fn apply(&mut self, net: &mut SdnNetwork, step: &FaultStep) -> Vec<String> {
        let mut done = Vec::new();
        match step {
            FaultStep::FailController(selector) => {
                for victim in self.resolve_controllers(net, *selector) {
                    net.fail_controller(victim);
                    self.last_failed_controller = Some(victim);
                    done.push(format!("fail-stop controller {victim}"));
                }
            }
            FaultStep::FailSwitch(selector) => {
                if let Some(victim) = self.resolve_switch(net, *selector) {
                    net.fail_switch(victim);
                    self.last_failed_switch = Some(victim);
                    done.push(format!("fail-stop switch {victim}"));
                }
            }
            FaultStep::RemoveLink(selector) => {
                for (a, b) in self.resolve_links(net, *selector) {
                    net.remove_link(a, b);
                    done.push(format!("remove link {a}-{b}"));
                }
            }
            FaultStep::FailLink(selector) => {
                let links = self.resolve_links(net, *selector);
                if !links.is_empty() {
                    self.last_failed_links = links.clone();
                }
                for (a, b) in links {
                    net.fail_link(a, b);
                    done.push(format!("fail link {a}-{b}"));
                }
            }
            FaultStep::RestoreLink(a, b) => {
                let (a, b) = (*a, *b);
                net.restore_link(a, b);
                done.push(format!("restore link {a}-{b}"));
            }
            FaultStep::RestoreLastFailedLinks => {
                for (a, b) in std::mem::take(&mut self.last_failed_links) {
                    net.restore_link(a, b);
                    done.push(format!("restore link {a}-{b}"));
                }
            }
            FaultStep::AddLink(a, b) => {
                let (a, b) = (*a, *b);
                net.add_link(a, b);
                done.push(format!("add link {a}-{b}"));
            }
            FaultStep::ReviveController(id) => {
                let id = *id;
                net.revive_controller(id);
                done.push(format!("revive controller {id}"));
            }
            FaultStep::ReviveLastFailedController => {
                if let Some(id) = self.last_failed_controller.take() {
                    net.revive_controller(id);
                    done.push(format!("revive controller {id}"));
                }
            }
            FaultStep::ReviveSwitch(id) => {
                let id = *id;
                net.revive_switch(id);
                done.push(format!("revive switch {id}"));
            }
            FaultStep::ReviveLastFailedSwitch => {
                if let Some(id) = self.last_failed_switch.take() {
                    net.revive_switch(id);
                    done.push(format!("revive switch {id}"));
                }
            }
            FaultStep::CorruptState(plan) => {
                let mutations = self.injector.corrupt(net, *plan);
                done.push(format!("corrupt state ({mutations} mutations)"));
            }
            FaultStep::DegradeLink(selector, spec) => {
                let links = self.resolve_links(net, *selector);
                if !links.is_empty() {
                    self.last_degraded_links = links.clone();
                }
                let cfg = spec.link_config(net.default_link_config());
                let what = spec.describe();
                for (a, b) in links {
                    let known = if spec.asymmetric {
                        net.set_link_config_directed(a, b, cfg)
                    } else {
                        net.set_link_config(a, b, cfg)
                    };
                    let note = if known { "" } else { ", unknown link" };
                    done.push(format!("degrade link {a}-{b} ({what}{note})"));
                }
            }
            FaultStep::RestoreLinkQuality(selector) => {
                for (a, b) in self.resolve_links(net, *selector) {
                    net.clear_link_config(a, b);
                    done.push(format!("restore link quality {a}-{b}"));
                }
            }
            FaultStep::Partition { key, groups } => {
                let cut = partition_cut(net, groups);
                let n_groups = match groups {
                    PartitionSpec::Halves => 2,
                    PartitionSpec::Groups(g) => g.len(),
                };
                for &(a, b) in &cut {
                    net.fail_link(a, b);
                }
                done.push(format!(
                    "partition into {n_groups} groups ({} links cut)",
                    cut.len()
                ));
                self.partitions.push((*key, cut));
            }
            FaultStep::HealPartition { key } => {
                let index = match key {
                    Some(key) => self.partitions.iter().position(|(k, _)| k == key),
                    None => self.partitions.len().checked_sub(1),
                };
                let links = index.map_or_else(Vec::new, |i| self.partitions.remove(i).1);
                let n = links.len();
                for (a, b) in links {
                    net.restore_link(a, b);
                }
                done.push(format!("heal partition ({n} links restored)"));
            }
            FaultStep::FlapPhase {
                flap,
                selector,
                down,
            } => {
                let (flap, down) = (*flap, *down);
                let links = match self.flap_targets.get(&flap) {
                    Some(links) => links.clone(),
                    None => {
                        let links = self.resolve_links(net, *selector);
                        self.flap_targets.insert(flap, links.clone());
                        links
                    }
                };
                for (a, b) in links {
                    if down {
                        net.fail_link(a, b);
                        done.push(format!("flap link {a}-{b} down"));
                    } else {
                        net.restore_link(a, b);
                        done.push(format!("flap link {a}-{b} up"));
                    }
                }
            }
            FaultStep::ReviveControllerIndex(i) => {
                if let Some(&id) = net.controller_ids().get(*i) {
                    net.revive_controller(id);
                    done.push(format!("revive controller {id} (rolling restart)"));
                }
            }
        }
        done
    }

    fn resolve_controllers(
        &mut self,
        net: &SdnNetwork,
        selector: ControllerSelector,
    ) -> Vec<NodeId> {
        match selector {
            ControllerSelector::Id(id) => vec![id],
            ControllerSelector::Index(i) => {
                let ids = net.controller_ids();
                ids.get(i).copied().into_iter().collect()
            }
            ControllerSelector::Random { count } => {
                let mut candidates = net.live_controller_ids();
                // Never kill every controller: the task needs at least one.
                let kill = count.min(candidates.len().saturating_sub(1));
                let mut victims = Vec::with_capacity(kill);
                for _ in 0..kill {
                    let idx = self.rng.gen_range(0..candidates.len());
                    victims.push(candidates.remove(idx));
                }
                victims
            }
        }
    }

    fn resolve_switch(&mut self, net: &SdnNetwork, selector: SwitchSelector) -> Option<NodeId> {
        match selector {
            SwitchSelector::Id(id) => Some(id),
            SwitchSelector::Random => {
                let switches = net.live_switch_ids();
                if switches.is_empty() {
                    return None;
                }
                let graph = net.sim().topology();
                let mut candidates: Vec<NodeId> = switches
                    .iter()
                    .copied()
                    .filter(|&s| {
                        let pruned = graph.without_nodes(&[s]);
                        paths::is_connected(&pruned)
                    })
                    .collect();
                if candidates.is_empty() {
                    candidates = switches;
                }
                Some(candidates[self.rng.gen_range(0..candidates.len())])
            }
        }
    }

    fn resolve_links(&mut self, net: &SdnNetwork, selector: LinkSelector) -> Vec<(NodeId, NodeId)> {
        match selector {
            LinkSelector::Between(a, b) => vec![(a, b)],
            LinkSelector::RandomSafe { count } => self.injector.random_safe_links(net, count),
            LinkSelector::MidPath(endpoints) => {
                let Some((src, dst)) = endpoints.resolve(net) else {
                    return Vec::new();
                };
                mid_path_link(net, src, dst).into_iter().collect()
            }
            LinkSelector::SameRack => {
                let Some(layout) = FatTreeLayout::detect(net.topology()) else {
                    return Vec::new();
                };
                let pod = self.rng.gen_range(0..layout.pod_count());
                let rack = self.rng.gen_range(0..layout.racks_per_pod());
                layout.rack_links(pod, rack)
            }
            LinkSelector::SamePod => {
                let Some(layout) = FatTreeLayout::detect(net.topology()) else {
                    return Vec::new();
                };
                let pod = self.rng.gen_range(0..layout.pod_count());
                layout.pod_links(pod)
            }
            LinkSelector::LastDegraded => std::mem::take(&mut self.last_degraded_links),
        }
    }
}

/// The set of `Gc` links to cut for a partition: every link whose endpoints are
/// assigned to different groups. `Halves` grows two connected regions around the
/// first two live controllers by multi-source BFS with ties to the first seed —
/// the lexicographic `(distance, seed)` assignment makes every region connected,
/// so each half keeps a working in-band control plane while partitioned.
pub fn partition_cut(net: &SdnNetwork, spec: &PartitionSpec) -> Vec<(NodeId, NodeId)> {
    let graph = net.sim().topology();
    let mut group: BTreeMap<NodeId, usize> = BTreeMap::new();
    match spec {
        PartitionSpec::Halves => {
            let controllers = net.live_controller_ids();
            if controllers.len() < 2 {
                return Vec::new();
            }
            let trees: Vec<paths::BfsTree> = controllers[..2]
                .iter()
                .map(|&seed| paths::BfsTree::compute(graph, seed))
                .collect();
            for node in graph.nodes() {
                let best = trees
                    .iter()
                    .enumerate()
                    .filter_map(|(i, tree)| tree.distance(node).map(|d| (d, i)))
                    .min();
                if let Some((_, i)) = best {
                    group.insert(node, i);
                }
            }
        }
        PartitionSpec::Groups(groups) => {
            for (i, members) in groups.iter().enumerate() {
                for &node in members {
                    group.entry(node).or_insert(i);
                }
            }
        }
    }
    graph
        .links()
        .filter_map(|link| {
            let (a, b) = (link.a, link.b);
            match (group.get(&a), group.get(&b)) {
                (Some(ga), Some(gb)) if ga != gb => Some((a, b)),
                _ => None,
            }
        })
        .collect()
}

/// The link closest to the middle of the current in-band path from `src` to `dst`,
/// preferring links whose removal keeps the topology connected (the paper chooses a
/// link "such that it enables a backup path").
pub fn mid_path_link(net: &SdnNetwork, src: NodeId, dst: NodeId) -> Option<(NodeId, NodeId)> {
    let operational = net.sim().operational_graph().snapshot();
    let path = legitimacy::route_in_band(net, &operational, src, dst)?;
    if path.len() < 2 {
        return None;
    }
    let mid = path.len() / 2;
    // Try the middle link first, then walk outwards until a safe link is found.
    let mut candidates: Vec<usize> = (0..path.len() - 1).collect();
    candidates.sort_by_key(|&i| i.abs_diff(mid.saturating_sub(1)));
    for i in candidates {
        let (a, b) = (path[i], path[i + 1]);
        let mut graph = net.sim().topology().clone();
        graph.remove_link(a, b);
        if paths::is_connected(&graph) {
            return Some((a, b));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_topology::builders;

    fn bootstrapped() -> SdnNetwork {
        let topology = builders::ring(5, 2);
        let mut net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 5),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(3),
        );
        net.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        net
    }

    #[test]
    fn schedule_batches_group_equal_offsets_in_order() {
        let schedule = FaultSchedule::new()
            .at(
                SimDuration::from_secs(10),
                FaultEvent::RestoreLastFailedLinks,
            )
            .at(
                SimDuration::from_secs(5),
                FaultEvent::FailLink(LinkSelector::RandomSafe { count: 1 }),
            )
            .at(
                SimDuration::from_secs(5),
                FaultEvent::FailController(ControllerSelector::Index(1)),
            );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, SimDuration::from_secs(5));
        assert_eq!(batches[0].1.len(), 2);
        assert!(matches!(batches[0].1[0], FaultStep::FailLink(_)));
        assert_eq!(batches[1].0, SimDuration::from_secs(10));
        assert!(!schedule.is_empty());
        assert_eq!(schedule.len(), 3);
    }

    #[test]
    fn selectors_resolve_deterministically() {
        let net = bootstrapped();
        let mut a = FaultContext::new(9);
        let mut b = FaultContext::new(9);
        assert_eq!(
            a.resolve_controllers(&net, ControllerSelector::Random { count: 1 }),
            b.resolve_controllers(&net, ControllerSelector::Random { count: 1 }),
        );
        assert_eq!(
            a.resolve_switch(&net, SwitchSelector::Random),
            b.resolve_switch(&net, SwitchSelector::Random),
        );
        assert_eq!(
            a.resolve_links(&net, LinkSelector::RandomSafe { count: 2 }),
            b.resolve_links(&net, LinkSelector::RandomSafe { count: 2 }),
        );
    }

    #[test]
    fn random_controller_selector_never_kills_everyone() {
        let net = bootstrapped();
        let mut ctx = FaultContext::new(5);
        let victims = ctx.resolve_controllers(&net, ControllerSelector::Random { count: 99 });
        assert_eq!(victims.len(), net.controller_ids().len() - 1);
    }

    #[test]
    fn fail_and_restore_last_failed_links_round_trip() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(7);
        let done = ctx.apply(
            &mut net,
            &FaultStep::FailLink(LinkSelector::RandomSafe { count: 1 }),
        );
        assert_eq!(done.len(), 1);
        assert_eq!(ctx.last_failed_links.len(), 1);
        let (a, b) = ctx.last_failed_links[0];
        assert!(!net.sim().link_is_operational(a, b));
        let done = ctx.apply(&mut net, &FaultStep::RestoreLastFailedLinks);
        assert_eq!(done.len(), 1);
        assert!(net.sim().link_is_operational(a, b));
        assert!(ctx.last_failed_links.is_empty());
    }

    #[test]
    fn mid_path_link_is_on_the_path_and_safe() {
        let net = bootstrapped();
        let (src, dst) = Endpoints::FarthestSwitches
            .resolve(&net)
            .expect("endpoints");
        let (a, b) = mid_path_link(&net, src, dst).expect("mid-path link");
        assert!(net.sim().topology().has_link(a, b));
        let mut graph = net.sim().topology().clone();
        graph.remove_link(a, b);
        assert!(paths::is_connected(&graph));
    }

    #[test]
    fn degrade_and_restore_quality_round_trip() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(13);
        let done = ctx.apply(
            &mut net,
            &FaultStep::DegradeLink(LinkSelector::RandomSafe { count: 2 }, DegradeSpec::gray()),
        );
        assert_eq!(done.len(), 2);
        assert!(done[0].starts_with("degrade link"), "{:?}", done);
        assert!(done[0].contains("bursty loss"), "{:?}", done);
        assert_eq!(ctx.last_degraded_links.len(), 2);
        // Gray links stay operational: no failure detector fires.
        for &(a, b) in &ctx.last_degraded_links {
            assert!(net.sim().link_is_operational(a, b));
        }
        assert_eq!(net.link_config_warnings(), 0);
        let done = ctx.apply(
            &mut net,
            &FaultStep::RestoreLinkQuality(LinkSelector::LastDegraded),
        );
        assert_eq!(done.len(), 2);
        assert!(done[0].starts_with("restore link quality"));
        assert!(ctx.last_degraded_links.is_empty());
    }

    #[test]
    fn partition_halves_cuts_and_heals() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(17);
        let done = ctx.apply(
            &mut net,
            &FaultStep::Partition {
                key: 0,
                groups: PartitionSpec::Halves,
            },
        );
        assert_eq!(done.len(), 1);
        assert!(done[0].starts_with("partition into 2 groups"));
        let cut: Vec<(NodeId, NodeId)> = ctx.partitioned_links().collect();
        assert!(!cut.is_empty());
        for &(a, b) in &cut {
            assert!(!net.sim().link_is_operational(a, b));
        }
        let done = ctx.apply(&mut net, &FaultStep::HealPartition { key: None });
        assert!(done[0].starts_with("heal partition"));
        for &(a, b) in &cut {
            assert!(net.sim().link_is_operational(a, b));
        }
        assert_eq!(ctx.partitioned_links().count(), 0);
    }

    #[test]
    fn explicit_partition_groups_cut_only_crossing_links() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(19);
        // ring(5, 2): controllers 0-1, switches 2-6 in a ring with the controllers
        // attached. Split one switch off from everything else.
        let all: Vec<NodeId> = net.topology().graph.nodes().collect();
        let lone = net.topology().switches[0];
        let rest: Vec<NodeId> = all.iter().copied().filter(|&n| n != lone).collect();
        ctx.apply(
            &mut net,
            &FaultStep::Partition {
                key: 0,
                groups: PartitionSpec::Groups(vec![vec![lone], rest]),
            },
        );
        assert_eq!(
            ctx.partitioned_links().count(),
            net.topology().graph.degree(lone)
        );
        for (a, b) in ctx.partitioned_links() {
            assert!(a == lone || b == lone);
        }
    }

    #[test]
    fn overlapping_partitions_each_heal_their_own_cut() {
        // Two self-healing partitions whose windows overlap: the second cut
        // must not make the first partition's heal forget its own links.
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(37);
        let lone = |i: usize, net: &SdnNetwork| {
            let node = net.topology().switches[i];
            let rest = net
                .topology()
                .graph
                .nodes()
                .filter(|&n| n != node)
                .collect();
            PartitionSpec::Groups(vec![vec![node], rest])
        };
        let first = lone(0, &net);
        let second = lone(2, &net);
        let schedule = FaultSchedule::new()
            .at(
                SimDuration::from_secs(1),
                FaultEvent::Partition {
                    groups: first,
                    heal_after: Some(SimDuration::from_secs(4)),
                },
            )
            .at(
                SimDuration::from_secs(2),
                FaultEvent::Partition {
                    groups: second,
                    heal_after: Some(SimDuration::from_secs(4)),
                },
            );
        for (_, steps) in schedule.batches() {
            for step in &steps {
                ctx.apply(&mut net, step);
            }
        }
        assert_eq!(ctx.partitioned_links().count(), 0);
        let graph = net.sim().topology().clone();
        for link in graph.links() {
            assert!(
                net.sim().link_is_operational(link.a, link.b),
                "link {}-{} left cut",
                link.a,
                link.b
            );
        }
    }

    #[test]
    fn flap_link_expands_into_phase_batches() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(2),
            FaultEvent::FlapLink {
                selector: LinkSelector::RandomSafe { count: 1 },
                period: SimDuration::from_secs(4),
                count: 3,
            },
        );
        let batches = schedule.batches();
        // 3 flaps × (down + up) = 6 batches at 2, 4, 6, 8, 10, 12 s.
        assert_eq!(batches.len(), 6);
        for (i, (offset, events)) in batches.iter().enumerate() {
            assert_eq!(*offset, SimDuration::from_secs(2 + 2 * i as u64));
            assert_eq!(events.len(), 1);
            match &events[0] {
                FaultStep::FlapPhase { flap, down, .. } => {
                    assert_eq!(*flap, 0);
                    assert_eq!(*down, i % 2 == 0);
                }
                other => panic!("expected FlapPhase, got {other:?}"),
            }
        }
    }

    #[test]
    fn flap_phases_hit_the_same_link_every_cycle() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(23);
        let selector = LinkSelector::RandomSafe { count: 1 };
        let down = |ctx: &mut FaultContext, net: &mut SdnNetwork| {
            ctx.apply(
                net,
                &FaultStep::FlapPhase {
                    flap: 7,
                    selector,
                    down: true,
                },
            )
        };
        let first = down(&mut ctx, &mut net);
        ctx.apply(
            &mut net,
            &FaultStep::FlapPhase {
                flap: 7,
                selector,
                down: false,
            },
        );
        let second = down(&mut ctx, &mut net);
        assert_eq!(first, second, "the same link must flap every cycle");
    }

    #[test]
    fn rolling_restart_expands_into_fail_revive_pairs() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(1),
            FaultEvent::RollingControllerRestart {
                interval: SimDuration::from_secs(10),
                down_for: SimDuration::from_secs(4),
                count: 2,
            },
        );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].0, SimDuration::from_secs(1));
        assert!(matches!(
            batches[0].1[0],
            FaultStep::FailController(ControllerSelector::Index(0))
        ));
        assert_eq!(batches[1].0, SimDuration::from_secs(5));
        assert!(matches!(
            batches[1].1[0],
            FaultStep::ReviveControllerIndex(0)
        ));
        assert_eq!(batches[2].0, SimDuration::from_secs(11));
        assert!(matches!(
            batches[2].1[0],
            FaultStep::FailController(ControllerSelector::Index(1))
        ));
        assert_eq!(batches[3].0, SimDuration::from_secs(15));
    }

    #[test]
    fn partition_heal_after_schedules_heal_batch() {
        let schedule = FaultSchedule::new().at(
            SimDuration::from_secs(2),
            FaultEvent::Partition {
                groups: PartitionSpec::Halves,
                heal_after: Some(SimDuration::from_secs(8)),
            },
        );
        let batches = schedule.batches();
        assert_eq!(batches.len(), 2);
        assert!(matches!(
            batches[0].1[0],
            FaultStep::Partition { key: 0, .. }
        ));
        assert_eq!(batches[1].0, SimDuration::from_secs(10));
        assert!(matches!(
            batches[1].1[0],
            FaultStep::HealPartition { key: Some(0) }
        ));
    }

    #[test]
    fn rack_and_pod_selectors_resolve_on_fat_trees_only() {
        let topology = builders::fat_tree(4, 2);
        let mut net = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(2, 20),
            HarnessConfig::default()
                .with_task_delay(SimDuration::from_millis(100))
                .with_seed(4),
        );
        net.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        let mut ctx = FaultContext::new(29);
        let rack = ctx.resolve_links(&net, LinkSelector::SameRack);
        // One edge switch has k/2 = 2 in-pod uplinks.
        assert_eq!(rack.len(), 2);
        let common: Vec<NodeId> = rack.iter().map(|&(_, e)| e).collect();
        assert!(
            common.windows(2).all(|w| w[0] == w[1]),
            "one rack = one edge"
        );
        let pod = ctx.resolve_links(&net, LinkSelector::SamePod);
        assert_eq!(pod.len(), 4, "k/2 * k/2 intra-pod links");
        for (a, b) in pod {
            assert!(net.sim().topology().has_link(a, b));
        }
        // Determinism: equal seeds pick equal racks.
        let mut a = FaultContext::new(31);
        let mut b = FaultContext::new(31);
        assert_eq!(
            a.resolve_links(&net, LinkSelector::SameRack),
            b.resolve_links(&net, LinkSelector::SameRack)
        );
        // Non-fat-tree topologies resolve to nothing.
        let ring_net = bootstrapped();
        assert!(ctx
            .resolve_links(&ring_net, LinkSelector::SameRack)
            .is_empty());
        assert!(ctx
            .resolve_links(&ring_net, LinkSelector::SamePod)
            .is_empty());
    }

    #[test]
    fn corrupt_state_event_reports_mutations() {
        let mut net = bootstrapped();
        let mut ctx = FaultContext::new(11);
        let done = ctx.apply(&mut net, &FaultStep::CorruptState(CorruptionPlan::light()));
        assert_eq!(done.len(), 1);
        assert!(done[0].starts_with("corrupt state ("));
        assert!(!net.is_legitimate());
    }
}
