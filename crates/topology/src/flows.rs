//! kappa-fault-resilient flow computation — the routing brain behind `myRules()`.
//!
//! The paper (Section 2.2.2) requires that the rules a controller installs encode, for
//! every destination, a *primary* path (the first shortest path, highest priority) plus
//! failover alternatives so that communication survives up to `kappa` link failures.
//! The prototype realised this with BFS paths and OpenFlow *fast-failover groups*; we
//! reproduce the same semantics with per-switch, per-destination **priority-ordered
//! next-hop sets**: priority 0 (highest) is the first-shortest-path next hop, priority
//! `k` is the best next hop once the `k` better ones are unavailable.
//!
//! The forwarding engine in `sdn-switch` picks the highest-priority rule whose out-link
//! is currently operational, which is exactly the fast-failover group behaviour.

use crate::flat::BfsScratch;
use crate::graph::Graph;
use crate::ids::NodeId;
use std::collections::BTreeMap;

/// A priority-ordered list of candidate next hops from one node towards a destination.
///
/// Index 0 is the primary (first-shortest-path) next hop; index `k` is the `k`-th
/// failover alternative. The list never contains duplicates and never exceeds
/// `kappa + 1` entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NextHopSet {
    hops: Vec<NodeId>,
}

impl NextHopSet {
    /// Creates a next-hop set from an ordered list of candidates.
    pub fn new(hops: Vec<NodeId>) -> Self {
        NextHopSet { hops }
    }

    /// The primary next hop, if any.
    pub fn primary(&self) -> Option<NodeId> {
        self.hops.first().copied()
    }

    /// The candidate at the given priority level (0 = primary).
    pub fn at_priority(&self, level: usize) -> Option<NodeId> {
        self.hops.get(level).copied()
    }

    /// Iterates over the candidates in priority order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hops.iter().copied()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Returns `true` when there is no candidate at all (destination unreachable).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// All-pairs kappa-fault-resilient next-hop plan over a topology snapshot.
///
/// For every ordered pair `(at, towards)` of distinct connected nodes the plan stores
/// a [`NextHopSet`]. Controllers derive their switch rules from this plan.
///
/// # Example
///
/// ```
/// use sdn_topology::{Graph, NodeId, FlowPlanner};
/// let g = Graph::from_links([
///     (NodeId::new(0), NodeId::new(1)),
///     (NodeId::new(1), NodeId::new(2)),
///     (NodeId::new(2), NodeId::new(0)),
/// ]);
/// let plan = FlowPlanner::new(1).plan(&g);
/// let hops = plan.next_hops(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(hops.primary(), Some(NodeId::new(2)));   // direct link
/// assert_eq!(hops.at_priority(1), Some(NodeId::new(1))); // detour via 1
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowPlan {
    next_hops: BTreeMap<(NodeId, NodeId), NextHopSet>,
}

impl FlowPlan {
    /// The next-hop set stored for packets at `at` going towards `towards`.
    pub fn next_hops(&self, at: NodeId, towards: NodeId) -> Option<&NextHopSet> {
        self.next_hops.get(&(at, towards))
    }

    /// Iterates over every `(at, towards)` pair with its next-hop set.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &NextHopSet)> + '_ {
        self.next_hops.iter().map(|(&(a, t), s)| (a, t, s))
    }

    /// Iterates over the next-hop sets stored for packets at `at`, in ascending
    /// destination order — one ordered range scan instead of a tree lookup per
    /// destination, which is what makes `myRules()` linear in the rule count.
    pub fn next_hops_from(&self, at: NodeId) -> impl Iterator<Item = (NodeId, &NextHopSet)> + '_ {
        self.next_hops
            .range((at, NodeId::new(0))..=(at, NodeId::new(u32::MAX)))
            .map(|(&(_, t), s)| (t, s))
    }

    /// Number of `(at, towards)` entries in the plan.
    pub fn len(&self) -> usize {
        self.next_hops.len()
    }

    /// Returns `true` when the plan holds no entries (e.g. planned over an empty graph).
    pub fn is_empty(&self) -> bool {
        self.next_hops.is_empty()
    }

    /// Simulates forwarding a packet from `from` to `to` under the given set of failed
    /// links, returning the traversed path (inclusive) or `None` if the packet is
    /// dropped (no operational candidate or TTL exhausted).
    ///
    /// The forwarding semantics is the data-plane depth-first traversal of
    /// Borokhovich–Schiff–Schmid (the paper's building block \[6\]): at every node the
    /// packet tries the candidate next hops in priority order, skipping non-operational
    /// links and already-visited nodes, and *bounces back* to the previous hop when it
    /// is stuck. As long as the operational graph is connected and every candidate set
    /// covers all neighbors, the packet is guaranteed to reach its destination, which is
    /// how the paper obtains kappa-fault-resilient flows.
    ///
    /// This is the reference semantics the property tests use to check kappa-fault
    /// resilience.
    pub fn route<F>(
        &self,
        from: NodeId,
        to: NodeId,
        mut link_up: F,
        ttl: usize,
    ) -> Option<Vec<NodeId>>
    where
        F: FnMut(NodeId, NodeId) -> bool,
    {
        if from == to {
            return Some(vec![from]);
        }
        // Depth-first traversal with backtracking; `stack` holds the current trail.
        let mut path = vec![from];
        let mut stack = vec![from];
        let mut visited = std::collections::BTreeSet::new();
        visited.insert(from);
        let mut hops = 0usize;
        while let Some(&cur) = stack.last() {
            if cur == to {
                return Some(path);
            }
            if hops >= ttl {
                return None;
            }
            let next = self.next_hops(cur, to).and_then(|set| {
                set.iter()
                    .find(|&h| !visited.contains(&h) && link_up(cur, h))
            });
            match next {
                Some(h) => {
                    visited.insert(h);
                    stack.push(h);
                    path.push(h);
                    hops += 1;
                }
                None => {
                    // Bounce back towards the previous hop (consumes one hop of TTL).
                    stack.pop();
                    if let Some(&prev) = stack.last() {
                        path.push(prev);
                        hops += 1;
                    }
                }
            }
        }
        None
    }
}

/// Computes [`FlowPlan`]s for a fixed resilience level `kappa`.
///
/// The planner is stateless apart from its configuration; call [`FlowPlanner::plan`]
/// with a fresh topology snapshot whenever the discovered topology changes (each
/// controller does this once per synchronization round).
///
/// By default every neighbor of a node is a failover candidate (the paper's Lemma 3
/// observes that `nprt >= Delta + 1` priorities suffice to express all rules), which
/// combined with the bounce-back forwarding of [`FlowPlan::route`] guarantees delivery
/// whenever the operational graph stays connected — in particular under any `kappa`
/// failures on a `(kappa + 1)`-edge-connected topology. [`FlowPlanner::with_max_candidates`]
/// trades that guarantee for smaller rule tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowPlanner {
    kappa: usize,
    max_candidates: Option<usize>,
}

impl Default for FlowPlanner {
    fn default() -> Self {
        FlowPlanner {
            kappa: 1,
            max_candidates: None,
        }
    }
}

impl FlowPlanner {
    /// Creates a planner that targets resilience against `kappa` link failures.
    pub fn new(kappa: usize) -> Self {
        FlowPlanner {
            kappa,
            max_candidates: None,
        }
    }

    /// Limits the number of failover candidates (priority levels) per destination.
    ///
    /// A limit of 1 keeps only the primary next hop (`kappa = 0` behaviour); `None`
    /// (the default) keeps every neighbor.
    pub fn with_max_candidates(mut self, max_candidates: usize) -> Self {
        self.max_candidates = Some(max_candidates.max(1));
        self
    }

    /// The configured resilience level.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// The configured candidate limit, if any.
    pub fn max_candidates(&self) -> Option<usize> {
        self.max_candidates
    }

    /// Computes the all-pairs next-hop plan over `graph`.
    ///
    /// For every destination `t` we run one BFS (from `t`), then every other node `j`
    /// ranks its neighbors by `(distance(neighbor, t), neighbor id)` and keeps the best
    /// candidates (all of them by default). The first candidate is therefore the
    /// first-shortest-path next hop; the others are the local fast-failover
    /// alternatives, in decreasing priority.
    pub fn plan(&self, graph: &Graph) -> FlowPlan {
        self.plan_restricted(graph, &std::collections::BTreeSet::new())
    }

    /// Like [`FlowPlanner::plan`], but the nodes in `non_transit` are never used as
    /// intermediate hops — only as flow endpoints.
    ///
    /// Renaissance uses this to keep controllers out of the forwarding paths: SDN
    /// controllers do not forward packets (only switches store rules), so a flow from
    /// controller `i` to node `d` must only relay through switches, even when a path
    /// through another controller would be shorter (paper, Section 1: "not all nodes can
    /// compute and communicate").
    pub fn plan_restricted(
        &self,
        graph: &Graph,
        non_transit: &std::collections::BTreeSet<NodeId>,
    ) -> FlowPlan {
        let limit = self.max_candidates.unwrap_or(usize::MAX);
        // Everything below works on dense indices of one snapshot: a per-node flag
        // and one distance matrix replace the per-neighbor set probes of the naive
        // formulation, and one scratch serves every BFS.
        let flat = graph.snapshot();
        let n = flat.node_count();
        let endpoint_only: Vec<bool> = flat
            .node_ids()
            .iter()
            .map(|id| non_transit.contains(id))
            .collect();
        // Paths may start or end at a non-transit node but never pass through one:
        // the BFS from each target expands only transit nodes (and the target
        // itself). Row `ti` holds every node's distance towards target `ti`,
        // `u32::MAX` (`NO_INDEX`) when unreached. Its entries for non-transit
        // nodes other than the target are never read: the candidate ranking skips
        // them.
        let mut scratch = BfsScratch::new();
        let mut dist: Vec<u32> = Vec::with_capacity(n * n);
        for ti in 0..n {
            flat.bfs_filtered(ti as u32, &mut scratch, |u| !endpoint_only[u as usize]);
            dist.extend_from_slice(scratch.distances());
        }
        // Assemble with `at` as the outer loop so the map builds from key-sorted
        // pairs (one bulk construction instead of per-pair tree inserts). A pair
        // gets an entry exactly when some candidate is reachable: for a transit
        // `at` that is when its own restricted distance is finite.
        let mut next_hops_v: Vec<((NodeId, NodeId), NextHopSet)> = Vec::new();
        let mut candidates: Vec<(u32, NodeId)> = Vec::new();
        for ai in 0..n {
            let at = flat.node_at(ai as u32);
            for ti in 0..n {
                if ti == ai {
                    continue;
                }
                let target = flat.node_at(ti as u32);
                candidates.clear();
                for &hi in flat.neighbor_indices(ai as u32) {
                    if endpoint_only[hi as usize] && hi as usize != ti {
                        continue;
                    }
                    let d = dist[ti * n + hi as usize];
                    if d != u32::MAX {
                        candidates.push((d, flat.node_at(hi)));
                    }
                }
                if candidates.is_empty() {
                    continue; // disconnected pair under the transit restriction
                }
                candidates.sort();
                let hops: Vec<NodeId> = candidates.iter().take(limit).map(|&(_, h)| h).collect();
                next_hops_v.push(((at, target), NextHopSet::new(hops)));
            }
        }
        FlowPlan {
            next_hops: next_hops_v.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Link;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A 2-edge-connected graph: a 5-cycle with one chord.
    fn cycle_with_chord() -> Graph {
        Graph::from_links([
            (n(0), n(1)),
            (n(1), n(2)),
            (n(2), n(3)),
            (n(3), n(4)),
            (n(4), n(0)),
            (n(1), n(3)),
        ])
    }

    #[test]
    fn primary_hop_follows_shortest_path() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        // From 0 to 3: shortest is 0-1-3 (distance 2) or 0-4-3; lowest-index neighbor at
        // equal distance wins, so primary hop is 1.
        let hops = plan.next_hops(n(0), n(3)).unwrap();
        assert_eq!(hops.primary(), Some(n(1)));
        assert_eq!(plan.route(n(0), n(3), |_, _| true, 16).unwrap().len(), 3);
    }

    #[test]
    fn backup_hop_differs_from_primary() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let hops = plan.next_hops(n(0), n(3)).unwrap();
        assert_eq!(hops.len(), 2);
        assert_ne!(hops.at_priority(0), hops.at_priority(1));
        assert_eq!(hops.at_priority(1), Some(n(4)));
        assert_eq!(hops.at_priority(2), None);
    }

    #[test]
    fn candidate_limit_keeps_only_primary() {
        let g = cycle_with_chord();
        let planner = FlowPlanner::new(0).with_max_candidates(1);
        assert_eq!(planner.kappa(), 0);
        assert_eq!(planner.max_candidates(), Some(1));
        let plan = planner.plan(&g);
        for (_, _, set) in plan.iter() {
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn default_keeps_all_neighbors_as_candidates() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::default().plan(&g);
        // Node 1 has three neighbors; all must appear as candidates towards node 4.
        let set = plan.next_hops(n(1), n(4)).unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.primary(), Some(n(0)));
    }

    #[test]
    fn routing_without_failures_follows_shortest_path() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let path = plan.route(n(0), n(3), |_, _| true, 16).unwrap();
        assert_eq!(path, vec![n(0), n(1), n(3)]);
    }

    #[test]
    fn routing_survives_single_link_failure() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        let failed = Link::new(n(1), n(3));
        let path = plan
            .route(n(0), n(3), |a, b| Link::new(a, b) != failed, 16)
            .unwrap();
        assert_eq!(*path.last().unwrap(), n(3));
        assert!(!path.windows(2).any(|w| Link::new(w[0], w[1]) == failed));
    }

    #[test]
    fn routing_every_single_failure_on_two_connected_graph() {
        // kappa = 1 on a 2-edge-connected graph: any single link failure must be survivable
        // between every pair.
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        for failed in g.links() {
            for a in g.nodes() {
                for b in g.nodes() {
                    if a == b {
                        continue;
                    }
                    let ok = plan.route(a, b, |x, y| Link::new(x, y) != failed, 32);
                    assert!(
                        ok.is_some(),
                        "pair {a}->{b} not routable with {failed} down"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_have_no_entry() {
        let mut g = cycle_with_chord();
        g.add_node(n(9));
        let plan = FlowPlanner::new(1).plan(&g);
        assert!(plan.next_hops(n(0), n(9)).is_none());
        assert!(plan.route(n(0), n(9), |_, _| true, 16).is_none());
    }

    #[test]
    fn ttl_prevents_infinite_loops() {
        let g = cycle_with_chord();
        let plan = FlowPlanner::new(1).plan(&g);
        // All links down: routing fails rather than looping forever.
        assert!(plan.route(n(0), n(3), |_, _| false, 16).is_none());
        // TTL of zero means any non-trivial route fails.
        assert!(plan.route(n(0), n(3), |_, _| true, 0).is_none());
    }

    #[test]
    fn empty_graph_plan_is_empty() {
        let plan = FlowPlanner::default().plan(&Graph::new());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn restricted_plan_never_relays_through_non_transit_nodes() {
        // Star-ish graph where node 9 (a "controller") would be the shortest relay
        // between 0 and 4: 0-9-4 (2 hops) vs 0-1-2-3-4 (4 hops).
        let g = Graph::from_links([
            (n(0), n(1)),
            (n(1), n(2)),
            (n(2), n(3)),
            (n(3), n(4)),
            (n(0), n(9)),
            (n(9), n(4)),
        ]);
        let non_transit: std::collections::BTreeSet<NodeId> = [n(9)].into_iter().collect();
        let plan = FlowPlanner::new(1).plan_restricted(&g, &non_transit);
        // The flow from 0 to 4 must avoid node 9.
        let path = plan.route(n(0), n(4), |_, _| true, 32).unwrap();
        assert!(
            !path.contains(&n(9)),
            "path {path:?} relays through a controller"
        );
        assert_eq!(path, vec![n(0), n(1), n(2), n(3), n(4)]);
        // Node 9 can still be an endpoint: flows towards it exist.
        let to_nine = plan.next_hops(n(0), n(9)).unwrap();
        assert_eq!(to_nine.primary(), Some(n(9)));
        // And node 9 (as a source endpoint) has next hops towards 4 that avoid itself.
        let from_nine = plan.next_hops(n(9), n(4)).unwrap();
        assert_eq!(from_nine.primary(), Some(n(4)));
    }

    /// The planner as first written: per-target graph clones without the other
    /// non-transit nodes, each searched with a plain BFS. Kept as the reference
    /// the single-snapshot filtered-BFS planner must reproduce exactly.
    fn reference_plan(
        planner: &FlowPlanner,
        graph: &Graph,
        non_transit: &std::collections::BTreeSet<NodeId>,
    ) -> FlowPlan {
        let limit = planner.max_candidates.unwrap_or(usize::MAX);
        let mut scratch = BfsScratch::new();
        let full = graph.snapshot();
        let n = full.node_count();
        let endpoint_only: Vec<bool> = full
            .node_ids()
            .iter()
            .map(|id| non_transit.contains(id))
            .collect();
        let mut dist: Vec<u32> = vec![u32::MAX; n * n];
        for ti in 0..n {
            let target = full.node_at(ti as u32);
            let removed: Vec<NodeId> = non_transit
                .iter()
                .copied()
                .filter(|&x| x != target)
                .collect();
            let search = graph.without_nodes(removed.iter()).snapshot();
            let Some(target_idx) = search.index_of(target) else {
                continue;
            };
            search.bfs(target_idx, &mut scratch);
            for (fi, slot) in dist[ti * n..(ti + 1) * n].iter_mut().enumerate() {
                if let Some(si) = search.index_of(full.node_at(fi as u32)) {
                    if let Some(d) = scratch.distance(si) {
                        *slot = d;
                    }
                }
            }
        }
        let mut next_hops = BTreeMap::new();
        for ai in 0..n {
            for ti in (0..n).filter(|&ti| ti != ai) {
                let mut candidates: Vec<(u32, NodeId)> = full
                    .neighbor_indices(ai as u32)
                    .iter()
                    .filter(|&&hi| !endpoint_only[hi as usize] || hi as usize == ti)
                    .map(|&hi| (dist[ti * n + hi as usize], full.node_at(hi)))
                    .filter(|&(d, _)| d != u32::MAX)
                    .collect();
                candidates.sort();
                // As first written, a transit `at` also needs a finite distance of
                // its own; the planner relies on that following from a candidate.
                let connected = endpoint_only[ai] || dist[ti * n + ai] != u32::MAX;
                if connected && !candidates.is_empty() {
                    let key = (full.node_at(ai as u32), full.node_at(ti as u32));
                    let hops = candidates.iter().take(limit).map(|&(_, h)| h).collect();
                    next_hops.insert(key, NextHopSet::new(hops));
                }
            }
        }
        FlowPlan { next_hops }
    }

    #[test]
    fn restricted_plan_matches_the_per_target_reference() {
        use crate::builders;
        use sdn_rng::Rng;
        let mut rng = Rng::seed_from_u64(13);
        for case in 0..60 {
            let controllers = rng.gen_range(0..3usize);
            let mut graph = match case % 3 {
                0 => builders::ring(rng.gen_range(3..12usize), controllers).graph,
                1 => {
                    let switches = 2 * rng.gen_range(3..9usize);
                    builders::jellyfish(switches, 3, rng.next_u64(), controllers).graph
                }
                _ => {
                    let (rows, cols) = (rng.gen_range(2..5usize), rng.gen_range(2..5usize));
                    builders::grid(rows, cols, controllers).graph
                }
            };
            // Cut a few links so some pairs are disconnected or only reachable
            // through a non-transit node.
            let links: Vec<Link> = graph.links().collect();
            for _ in 0..rng.gen_range(0..3usize) {
                let link = links[rng.gen_range(0..links.len())];
                graph.remove_link(link.a, link.b);
            }
            let nodes: Vec<NodeId> = graph.nodes().collect();
            let non_transit: std::collections::BTreeSet<NodeId> = (0..rng.gen_range(0..5usize))
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            for planner in [
                FlowPlanner::new(1),
                FlowPlanner::new(0).with_max_candidates(1),
                FlowPlanner::new(2).with_max_candidates(3),
            ] {
                assert_eq!(
                    planner.plan_restricted(&graph, &non_transit),
                    reference_plan(&planner, &graph, &non_transit),
                    "case {case}: {planner:?}, non-transit {non_transit:?}"
                );
            }
        }
    }

    #[test]
    fn next_hop_set_accessors() {
        let set = NextHopSet::new(vec![n(1), n(2), n(3)]);
        assert_eq!(set.iter().count(), 3);
        assert!(!set.is_empty());
    }
}
