//! The legitimate-state predicate (paper, Definition 1) evaluated over a running
//! [`SdnNetwork`].
//!
//! A state is legitimate when, for every live controller `i` and node `k`:
//!
//! 1. `i`'s discovered topology equals the part of the connected topology it can reach,
//! 2. every switch is managed by exactly the live controllers (and nothing else),
//! 3. the installed rules let `i` and `k` exchange packets in-band over the operational
//!    network (both directions),
//! 4. no switch stores rules of controllers that are no longer part of the system.
//!
//! Every bootstrap-time and recovery-time measurement in the bench harness is "time
//! until [`check`] returns an empty issue list".

use crate::harness::SdnNetwork;
use crate::packet::{ControlPacket, Holder, Hop, PacketBody};
use sdn_switch::CommandBatch;
use sdn_topology::flat::NO_INDEX;
use sdn_topology::{BfsScratch, FlatGraph, Graph, NodeId};
use std::collections::BTreeSet;

/// The outcome of a legitimacy check: an empty issue list means the state is legitimate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LegitimacyReport {
    /// Human-readable descriptions of every violated condition.
    pub issues: Vec<String>,
}

impl LegitimacyReport {
    /// Returns `true` when no condition is violated.
    pub fn is_legitimate(&self) -> bool {
        self.issues.is_empty()
    }

    fn push(&mut self, issue: String) {
        // Cap the list so that a completely un-converged network does not allocate an
        // enormous report on every check.
        if self.issues.len() < 64 {
            self.issues.push(issue);
        }
    }
}

/// Evaluates the legitimacy predicate over the current state of `net`.
///
/// The operational graph is snapshot once into a [`FlatGraph`] and every
/// reachability question — the per-controller switch-transit sets, the induced
/// subgraphs, and the in-band routing walks of [`route_in_band`] — runs over that
/// snapshot; the BFS runs share one reusable [`BfsScratch`] workspace.
pub fn check(net: &SdnNetwork) -> LegitimacyReport {
    let mut report = LegitimacyReport::default();
    let operational = net.sim().operational_graph();
    let live_controllers = net.live_controller_ids();
    let live_switches = net.live_switch_ids();

    if live_controllers.is_empty() {
        report.push("no live controller exists".to_string());
        return report;
    }

    // All reachability below is "through switches only": controllers never forward
    // packets, so a node that can only be reached by relaying through another controller
    // is outside the task definition (it cannot be discovered or managed in-band).
    let controller_set: BTreeSet<NodeId> = net.controller_ids().into_iter().collect();
    let flat = operational.snapshot();
    let mut scratch = BfsScratch::new();
    let is_controller: Vec<bool> = flat
        .node_ids()
        .iter()
        .map(|n| controller_set.contains(n))
        .collect();

    // One switch-transit BFS per live controller, shared by conditions 1–3
    // (the old code re-ran it per (switch, controller) pair).
    let transit: Vec<(NodeId, TransitReach)> = live_controllers
        .iter()
        .map(|&c| {
            (
                c,
                TransitReach::compute(&flat, c, &is_controller, &mut scratch),
            )
        })
        .collect();

    // Condition 1: every live controller knows the topology it can reach.
    for (c, reach) in &transit {
        let c = *c;
        let Some(controller) = net.controller(c) else {
            report.push(format!("controller {c} has no state machine"));
            continue;
        };
        let observed = net.sim().observed(c);
        let discovered = controller.discovered_graph(observed);
        let expected = reach.induced_subgraph(&flat);
        if discovered != expected {
            report.push(format!(
                "controller {c} topology view diverges: knows {} nodes / {} links, expected {} nodes / {} links",
                discovered.node_count(),
                discovered.link_count(),
                expected.node_count(),
                expected.link_count(),
            ));
        }
    }

    // Condition 2 and 4: manager sets and rule ownership match the live controller set.
    for &s in &live_switches {
        let Some(switch) = net.switch(s) else {
            report.push(format!("switch {s} has no state machine"));
            continue;
        };
        let expected_managers: BTreeSet<NodeId> = transit
            .iter()
            .filter(|(_, reach)| reach.contains(&flat, s))
            .map(|&(c, _)| c)
            .collect();
        let actual_managers: BTreeSet<NodeId> =
            switch.managers().to_sorted_vec().into_iter().collect();
        if actual_managers != expected_managers {
            report.push(format!(
                "switch {s} managers {actual_managers:?} differ from live controllers {expected_managers:?}"
            ));
        }
        let rule_owners: BTreeSet<NodeId> = switch
            .rules()
            .controllers_with_rules()
            .into_iter()
            .collect();
        for owner in rule_owners {
            if !expected_managers.contains(&owner) {
                report.push(format!(
                    "switch {s} still stores rules of stale controller {owner}"
                ));
            }
        }
    }

    // Condition 3: in-band connectivity between every controller and every node it can
    // possibly reach without relaying through another controller.
    for (c, reach) in &transit {
        let c = *c;
        for &node in &reach.nodes {
            if node == c {
                continue;
            }
            if route_in_band(net, &flat, c, node).is_none() {
                report.push(format!("no in-band path from controller {c} to {node}"));
            }
            if route_in_band(net, &flat, node, c).is_none() {
                report.push(format!(
                    "no in-band path from {node} back to controller {c}"
                ));
            }
        }
    }

    report
}

/// The switch-transit reachability of one controller: nodes reachable along paths
/// whose *intermediate* hops are all switches — the reachability notion that matters
/// in-band, because controllers never forward.
struct TransitReach {
    /// Reached nodes in ascending identifier order.
    nodes: Vec<NodeId>,
    /// Membership mask per dense index of the snapshot the BFS ran over.
    mask: Vec<bool>,
}

impl TransitReach {
    fn compute(
        flat: &FlatGraph,
        from: NodeId,
        is_controller: &[bool],
        scratch: &mut BfsScratch,
    ) -> Self {
        let mut mask = vec![false; flat.node_count()];
        let Some(source) = flat.index_of(from) else {
            // A node outside the operational graph reaches only itself.
            return TransitReach {
                nodes: vec![from],
                mask,
            };
        };
        flat.bfs_filtered(source, scratch, |idx| !is_controller[idx as usize]);
        let mut nodes = Vec::new();
        for (idx, &d) in scratch.distances().iter().enumerate() {
            if d != NO_INDEX {
                mask[idx] = true;
                nodes.push(flat.node_at(idx as u32));
            }
        }
        TransitReach { nodes, mask }
    }

    fn contains(&self, flat: &FlatGraph, node: NodeId) -> bool {
        flat.index_of(node)
            .map(|idx| self.mask[idx as usize])
            .unwrap_or(false)
    }

    /// The subgraph of the snapshot induced by the reached nodes.
    fn induced_subgraph(&self, flat: &FlatGraph) -> Graph {
        let mut out = Graph::new();
        for &n in &self.nodes {
            out.add_node(n);
        }
        for (idx, reached) in self.mask.iter().enumerate() {
            if !reached {
                continue;
            }
            let idx = idx as u32;
            for &peer in flat.neighbor_indices(idx) {
                if peer > idx && self.mask[peer as usize] {
                    out.add_link(flat.node_at(idx), flat.node_at(peer));
                }
            }
        }
        out
    }
}

/// Walks one probe packet from `from` to `to` over `operational` (a snapshot of the
/// operational graph) and the installed rules, without mutating any state.
///
/// Every hop is `ControlPacket::step`, the rule the live nodes run, with the
/// harness packet TTL and no hint. Returns the traversed path, bounce-backs included,
/// or `None` when the packet would be dropped.
pub fn route_in_band(
    net: &SdnNetwork,
    operational: &FlatGraph,
    from: NodeId,
    to: NodeId,
) -> Option<Vec<NodeId>> {
    let body = PacketBody::Commands(CommandBatch::new(from, Vec::new()));
    let mut packet = ControlPacket::new(from, to, net.harness_config().packet_ttl, body);
    let mut path = vec![from];
    let mut neighbors = Vec::new();
    let mut cur = from;
    while cur != to {
        neighbors.clear();
        neighbors.extend(operational.neighbors(cur));
        let holder = match net.controller(cur) {
            Some(controller) => Holder::Controller {
                controller,
                hint: None,
            },
            None => Holder::Switch(net.switch(cur)?),
        };
        cur = match packet.step(holder, &neighbors) {
            Hop::Forward(next) | Hop::Bounce(Some(next)) => next,
            Hop::Bounce(None) | Hop::Drop => return None,
        };
        path.push(cur);
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControllerConfig, HarnessConfig};
    use sdn_netsim::SimDuration;
    use sdn_topology::builders;

    fn bootstrapped_ring() -> SdnNetwork {
        let topology = builders::ring(5, 1);
        let mut sdn = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(1, 5),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        sdn
    }

    #[test]
    fn fresh_network_is_not_legitimate_and_report_explains_why() {
        let topology = builders::ring(4, 1);
        let sdn = SdnNetwork::new(
            topology,
            ControllerConfig::for_network(1, 4),
            HarnessConfig::default(),
        );
        let report = sdn.legitimacy_report();
        assert!(!report.is_legitimate());
        assert!(!report.issues.is_empty());
    }

    #[test]
    fn bootstrapped_network_is_legitimate_and_routes_in_band() {
        let sdn = bootstrapped_ring();
        let report = sdn.legitimacy_report();
        assert!(report.is_legitimate(), "issues: {:?}", report.issues);
        let operational = sdn.sim().operational_graph().snapshot();
        let c = sdn.controller_ids()[0];
        for s in sdn.switch_ids() {
            let path = route_in_band(&sdn, &operational, c, s).expect("path to switch");
            assert_eq!(*path.first().unwrap(), c);
            assert_eq!(*path.last().unwrap(), s);
            let back = route_in_band(&sdn, &operational, s, c).expect("path back");
            assert_eq!(*back.last().unwrap(), c);
        }
    }

    #[test]
    fn a_walk_never_relays_through_its_origin_controller() {
        // Controller n0 hangs off switches n1 and n2 of a six-switch ring; its
        // shortest way to n4 starts at n2.
        let mut sdn = SdnNetwork::new(
            builders::ring(6, 1),
            ControllerConfig::for_network(1, 6),
            HarnessConfig::default().with_task_delay(SimDuration::from_millis(100)),
        );
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("bootstrap");
        let (c, dst) = (NodeId::new(0), NodeId::new(4));
        let first = sdn
            .controller(c)
            .and_then(|ctrl| ctrl.first_hop(dst, sdn.sim().observed(c)))
            .expect("first hop");
        assert_eq!(first, NodeId::new(2));
        sdn.switch_mut(first).unwrap().corrupt_clear();
        // n2 bounces the packet back to n0. A live controller drops it rather than
        // re-sending it through n1, so the oracle must find no path either.
        let operational = sdn.sim().operational_graph().snapshot();
        assert_eq!(route_in_band(&sdn, &operational, c, dst), None);
    }

    #[test]
    fn corrupting_a_switch_breaks_legitimacy_until_recovery() {
        let mut sdn = bootstrapped_ring();
        let victim = sdn.switch_ids()[2];
        sdn.switch_mut(victim).unwrap().corrupt_clear();
        let report = sdn.legitimacy_report();
        assert!(
            !report.is_legitimate(),
            "cleared switch must break legitimacy"
        );
        // The controller re-installs everything within a bounded time.
        let elapsed = sdn
            .run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(120))
            .expect("self-stabilization after switch corruption");
        assert!(elapsed > SimDuration::ZERO);
    }

    #[test]
    fn stale_rule_owner_is_reported_and_cleaned() {
        let mut sdn = bootstrapped_ring();
        let victim = sdn.switch_ids()[0];
        let bogus = sdn_switch::Rule {
            cid: NodeId::new(99),
            sid: victim,
            src: None,
            dst: NodeId::new(1),
            prt: 200,
            fwd: NodeId::new(1),
            tag: sdn_tags::Tag::new(99, 1),
        };
        sdn.switch_mut(victim).unwrap().corrupt_install_rule(bogus);
        sdn.switch_mut(victim)
            .unwrap()
            .corrupt_add_manager(NodeId::new(99));
        let report = sdn.legitimacy_report();
        assert!(report
            .issues
            .iter()
            .any(|i| i.contains("stale controller") || i.contains("managers")));
        sdn.run_until_legitimate(SimDuration::from_millis(100), SimDuration::from_secs(180))
            .expect("stale state must eventually be purged");
        let switch = sdn.switch(victim).unwrap();
        assert!(switch.rules().rules_of(NodeId::new(99)).is_empty());
        assert!(!switch.managers().contains(NodeId::new(99)));
    }
}
