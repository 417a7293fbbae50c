//! The data-plane forwarding decision: highest-priority applicable rule wins.
//!
//! A rule is *applicable* (paper, Section 2.1) for a packet when it matches the packet's
//! source and destination fields and its out-link is currently operational. Among the
//! applicable rules the one with the highest priority is used — this is how the
//! kappa-fault-resilient failover of Section 2.2.2 happens entirely in the data plane,
//! without waiting for any controller.
//!
//! On top of the paper's rule semantics the decision honours the packet's *visited set*:
//! next hops that the packet has already traversed are skipped, and when nothing remains
//! the caller bounces the packet back to where it came from. This reproduces the
//! data-plane DFS of Borokhovich–Schiff–Schmid (the paper's building block \[6\]), which
//! the prototype realised with OpenFlow fast-failover groups.

use crate::rules::RuleTable;
use sdn_topology::NodeId;

/// Chooses the next hop for a packet `(src, dst)` at a switch with rule table `rules`,
/// whose currently operational neighbors are `neighbors`.
///
/// Selection order:
/// 1. the highest-priority matching rule whose out-link is operational (its next hop
///    is in `neighbors`) and whose next hop is not in `visited`,
/// 2. otherwise, `dst` itself when it is an operational direct neighbor (the paper's
///    query-by-neighbor functionality, which is what lets a controller bootstrap a
///    switch that has no rules yet),
/// 3. otherwise `None` — the caller decides whether to bounce the packet back or drop it.
pub fn decide(
    rules: &RuleTable,
    src: NodeId,
    dst: NodeId,
    visited: &[NodeId],
    neighbors: &[NodeId],
) -> Option<NodeId> {
    let candidate = rules
        .matching(src, dst)
        .into_iter()
        .map(|r| r.fwd)
        .find(|&hop| !visited.contains(&hop) && neighbors.contains(&hop));
    if candidate.is_some() {
        return candidate;
    }
    if neighbors.contains(&dst) && !visited.contains(&dst) {
        return Some(dst);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;
    use sdn_tags::Tag;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rule(src: u32, dst: u32, prt: u8, fwd: u32) -> Rule {
        Rule {
            cid: n(0),
            sid: n(9),
            src: Some(n(src)),
            dst: n(dst),
            prt,
            fwd: n(fwd),
            tag: Tag::new(0, 1),
        }
    }

    fn table(rules: &[Rule]) -> RuleTable {
        let mut t = RuleTable::new(64);
        for r in rules {
            t.insert(*r);
        }
        t
    }

    #[test]
    fn highest_priority_applicable_rule_wins() {
        let t = table(&[rule(0, 5, 1, 3), rule(0, 5, 3, 4), rule(0, 5, 2, 2)]);
        let hop = decide(&t, n(0), n(5), &[], &[n(2), n(3), n(4)]);
        assert_eq!(hop, Some(n(4)));
        // With the out-link to 4 failed (4 left out of the neighbors), the next
        // priority takes over.
        let hop = decide(&t, n(0), n(5), &[], &[n(2), n(3)]);
        assert_eq!(hop, Some(n(2)));
    }

    #[test]
    fn visited_hops_are_skipped_for_dfs_backtracking() {
        let t = table(&[rule(0, 5, 3, 4), rule(0, 5, 2, 2)]);
        let hop = decide(&t, n(0), n(5), &[n(4)], &[n(2), n(4)]);
        assert_eq!(hop, Some(n(2)));
        let stuck = decide(&t, n(0), n(5), &[n(2), n(4)], &[n(2), n(4)]);
        assert_eq!(stuck, None);
    }

    #[test]
    fn rules_pointing_to_non_neighbors_are_ignored() {
        // A stale rule pointing to a node that is no longer adjacent must not be used.
        let t = table(&[rule(0, 5, 3, 7)]);
        let hop = decide(&t, n(0), n(5), &[], &[n(2)]);
        assert_eq!(hop, None);
    }

    #[test]
    fn direct_neighbor_fallback_only_when_no_rule_applies() {
        let t = table(&[]);
        // dst 5 is a direct operational neighbor: forward straight to it.
        assert_eq!(decide(&t, n(0), n(5), &[], &[n(5), n(6)]), Some(n(5)));
        // ... but not when its link is down or it was already visited.
        assert_eq!(decide(&t, n(0), n(5), &[], &[n(6)]), None);
        assert_eq!(decide(&t, n(0), n(5), &[n(5)], &[n(5)]), None);
    }

    #[test]
    fn non_matching_rules_never_fire() {
        let t = table(&[rule(1, 5, 3, 4)]);
        // Packet source differs from the rule's match.
        assert_eq!(decide(&t, n(0), n(5), &[], &[n(4)]), None);
    }
}
