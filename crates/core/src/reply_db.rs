//! The controller's `replyDB`: the most recently received query replies, from which the
//! controller derives its view of the network topology (paper, Algorithm 2 line 1).
//!
//! The database is bounded by `maxReplies`; trying to exceed the bound triggers a
//! *C-reset* (line 21) that keeps only the controller's own neighborhood record. Both
//! the bound and the reset are essential to the self-stabilization argument (Lemma 2:
//! at most one C-reset per controller per execution once the system is past its
//! arbitrary initial state).

use sdn_switch::QueryReply;
use sdn_tags::Tag;
use sdn_topology::{paths, Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The largest-valued tag carried by the rules reported in `reply`, if any.
fn max_rule_tag(reply: &QueryReply) -> Option<Tag> {
    let mut best: Option<Tag> = None;
    for rule in &reply.rules {
        if best.is_none_or(|b| rule.tag.value() > b.value()) {
            best = Some(rule.tag);
        }
    }
    best
}

/// Outcome of inserting a reply into the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The reply was stored (possibly replacing an older reply from the same node).
    Stored,
    /// The reply was stored, but only after a C-reset made room for it.
    StoredAfterReset,
    /// The reply was ignored because its tag is not the current round's tag.
    IgnoredStaleTag,
}

/// One stored reply.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    reply: QueryReply,
    /// Largest rule tag of `reply` (`None` without rules), computed at insert so
    /// the per-iterate tag observation is O(#replies) instead of O(#rules).
    rule_tag_ceiling: Option<Tag>,
}

/// Bounded store of query replies keyed by `(responder, round tag)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplyDb {
    max_replies: usize,
    records: BTreeMap<(NodeId, Tag), Record>,
    c_resets: u64,
}

impl ReplyDb {
    /// Creates an empty database with capacity `max_replies`.
    ///
    /// # Panics
    ///
    /// Panics if `max_replies == 0`.
    pub fn new(max_replies: usize) -> Self {
        assert!(max_replies > 0, "replyDB needs room for at least one reply");
        ReplyDb {
            max_replies,
            records: BTreeMap::new(),
            c_resets: 0,
        }
    }

    /// The configured capacity (`maxReplies`).
    pub fn capacity(&self) -> usize {
        self.max_replies
    }

    /// Number of stored replies.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no reply is stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of C-resets performed since creation.
    pub fn c_resets(&self) -> u64 {
        self.c_resets
    }

    /// Inserts a reply received with the given expected round tag (Algorithm 2,
    /// lines 20–22): stale tags are ignored, and a full database triggers a C-reset.
    pub fn insert(&mut self, reply: QueryReply, curr_tag: Tag) -> InsertOutcome {
        if reply.echo_tag != curr_tag {
            return InsertOutcome::IgnoredStaleTag;
        }
        let key = (reply.responder, reply.echo_tag);
        let replaces_existing = self.records.contains_key(&key);
        let mut outcome = InsertOutcome::Stored;
        if !replaces_existing && self.records.len() + 1 > self.max_replies {
            self.records.clear();
            self.c_resets += 1;
            outcome = InsertOutcome::StoredAfterReset;
        }
        // Remove any other response from the same node carrying a different tag for the
        // current round bucket (line 22 replaces "the previous response from pj").
        let rule_tag_ceiling = max_rule_tag(&reply);
        self.records.insert(
            key,
            Record {
                reply,
                rule_tag_ceiling,
            },
        );
        outcome
    }

    /// Removes every reply whose tag is not in `live_tags` or whose responder is not
    /// reachable from the controller according to the topology derivable from replies of
    /// the *same* tag (Algorithm 2 line 8).
    ///
    /// Returns, per live tag, the nodes reachable from the controller in
    /// `G(res(tag))`. Pruning does not change these sets: a dropped record belongs to
    /// an unreachable node, so none of its claimed links touches the reachable
    /// component.
    pub fn prune<const N: usize>(
        &mut self,
        self_id: NodeId,
        self_neighbors: &[NodeId],
        live_tags: [Tag; N],
    ) -> [BTreeSet<NodeId>; N] {
        // Replies claiming to come from the controller itself are always synthesized
        // fresh, never stored (line 5 of Algorithm 1): drop any stored one.
        self.records.retain(|(node, _), _| *node != self_id);
        let reachable: [BTreeSet<NodeId>; N] = live_tags.map(|tag| {
            let graph = self.res_graph(tag, self_id, self_neighbors);
            paths::reachable_set(&graph, self_id).into_iter().collect()
        });
        self.records.retain(|(node, tag), _| {
            live_tags
                .iter()
                .zip(&reachable)
                .any(|(live, set)| live == tag && set.contains(node))
        });
        reachable
    }

    /// Removes every reply carrying `tag` (Algorithm 2 line 12).
    pub fn drop_tag(&mut self, tag: Tag) {
        self.records.retain(|(_, t), _| *t != tag);
    }

    /// Performs an explicit C-reset, forgetting everything.
    pub fn c_reset(&mut self) {
        self.records.clear();
        self.c_resets += 1;
    }

    /// The reply from `node` for round `tag`, if stored.
    pub fn get(&self, node: NodeId, tag: Tag) -> Option<&QueryReply> {
        self.records.get(&(node, tag)).map(|r| &r.reply)
    }

    /// All stored replies.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, Tag), &QueryReply)> + '_ {
        self.records.iter().map(|(key, r)| (key, &r.reply))
    }

    /// The tag with the largest value present anywhere in the stored replies (including
    /// tags inside rules). The tag generator folds observations with `max`, so this is
    /// all it needs — without walking every rule of every reply each iteration.
    pub fn max_observed_tag(&self) -> Option<Tag> {
        let mut best: Option<Tag> = None;
        for ((_, tag), record) in &self.records {
            for t in [Some(*tag), record.rule_tag_ceiling].into_iter().flatten() {
                if best.is_none_or(|b| t.value() > b.value()) {
                    best = Some(t);
                }
            }
        }
        best
    }

    /// `G(res(tag))`: the topology derivable from the replies of round `tag` plus the
    /// controller's own neighborhood record.
    pub fn res_graph(&self, tag: Tag, self_id: NodeId, self_neighbors: &[NodeId]) -> Graph {
        let mut g = Graph::new();
        g.add_node(self_id);
        for &nb in self_neighbors {
            g.add_link(self_id, nb);
        }
        for ((node, _), reply) in self.iter().filter(|((_, t), _)| *t == tag) {
            g.add_node(*node);
            for &nb in &reply.neighbors {
                if nb != *node {
                    g.add_link(*node, nb);
                }
            }
        }
        g
    }

    /// The *fusion* view (Algorithm 2 line 5): the current round's replies plus, for
    /// nodes that have not answered the current round yet, the previous round's replies.
    pub fn fusion(&self, curr: Tag, prev: Tag) -> BTreeMap<NodeId, &QueryReply> {
        let mut out: BTreeMap<NodeId, &QueryReply> = BTreeMap::new();
        for ((node, tag), reply) in self.iter() {
            if *tag == prev {
                out.entry(*node).or_insert(reply);
            }
        }
        for ((node, tag), reply) in self.iter() {
            if *tag == curr {
                out.insert(*node, reply);
            }
        }
        out
    }

    /// `G(fusion)`: the topology derivable from the fusion view plus the controller's
    /// own neighborhood.
    ///
    /// A link claimed by one endpoint's reply is *dropped* when the other endpoint
    /// has strictly fresher information contradicting it — a newer-tagged reply (or
    /// the controller's own live neighborhood) that does not list the claimant.
    /// Without this tie-break a failed link can wedge the whole control plane: the
    /// stale endpoint's previous-round reply keeps the dead link in the fusion view,
    /// the plan keeps routing that endpoint's queries over the dead link, so its
    /// current-round reply never arrives, the round never completes, and the stale
    /// reply is never evicted.
    pub fn fusion_graph(
        &self,
        curr: Tag,
        prev: Tag,
        self_id: NodeId,
        self_neighbors: &[NodeId],
    ) -> Graph {
        let fusion = self.fusion(curr, prev);
        let mut g = Graph::new();
        g.add_node(self_id);
        for &nb in self_neighbors {
            g.add_link(self_id, nb);
        }
        for (&node, reply) in &fusion {
            g.add_node(node);
            for &nb in &reply.neighbors {
                if nb == node {
                    continue;
                }
                let contradicted = if nb == self_id {
                    // The controller's own observation is always current.
                    !self_neighbors.contains(&node)
                } else {
                    fusion.get(&nb).is_some_and(|other| {
                        other.echo_tag > reply.echo_tag && !other.neighbors.contains(&node)
                    })
                };
                if !contradicted {
                    g.add_link(node, nb);
                }
            }
        }
        g
    }

    /// The round-completion test of Algorithm 2 line 10: every node reachable from the
    /// controller in `G(res(curr))` — the `curr` set [`ReplyDb::prune`] returned — has
    /// sent a reply tagged `curr`.
    pub fn round_complete(&self, curr: Tag, self_id: NodeId, reachable: &BTreeSet<NodeId>) -> bool {
        reachable
            .iter()
            .all(|&n| n == self_id || self.records.contains_key(&(n, curr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdn_rng::Rng;
    use sdn_switch::Rule;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn reply(responder: u32, neighbors: &[u32], tag: Tag) -> QueryReply {
        QueryReply {
            responder: n(responder),
            neighbors: neighbors.iter().map(|&i| n(i)).collect(),
            managers: vec![],
            rules: vec![],
            echo_tag: tag,
        }
    }

    /// Stores `reply` under its own tag, bypassing the current-round check — a
    /// reply left over from an earlier round or injected by a transient fault.
    fn put(db: &mut ReplyDb, reply: QueryReply) {
        let tag = reply.echo_tag;
        db.insert(reply, tag);
    }

    const T1: Tag = Tag::new(0, 1);
    const T2: Tag = Tag::new(0, 2);

    #[test]
    fn insert_stores_current_tag_and_ignores_stale() {
        let mut db = ReplyDb::new(8);
        assert_eq!(db.insert(reply(3, &[0, 4], T1), T1), InsertOutcome::Stored);
        assert_eq!(
            db.insert(reply(4, &[3], T2), T1),
            InsertOutcome::IgnoredStaleTag
        );
        assert_eq!(db.len(), 1);
        assert!(db.get(n(3), T1).is_some());
        assert!(db.get(n(4), T2).is_none());
    }

    #[test]
    fn reinsert_replaces_previous_reply_from_same_node() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0], T1), T1);
        db.insert(reply(3, &[0, 4], T1), T1);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(n(3), T1).unwrap().neighbors.len(), 2);
    }

    #[test]
    fn overflowing_capacity_triggers_c_reset() {
        let mut db = ReplyDb::new(2);
        db.insert(reply(3, &[0], T1), T1);
        db.insert(reply(4, &[0], T1), T1);
        assert_eq!(
            db.insert(reply(5, &[0], T1), T1),
            InsertOutcome::StoredAfterReset
        );
        assert_eq!(db.len(), 1, "reset keeps only the new reply");
        assert_eq!(db.c_resets(), 1);
    }

    #[test]
    fn res_graph_includes_self_neighborhood() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[4], T1), T1);
        let g = db.res_graph(T1, n(0), &[n(3)]);
        assert!(g.has_link(n(0), n(3)));
        assert!(g.has_link(n(3), n(4)));
        assert_eq!(g.node_count(), 3);
        // A different tag sees only the self record.
        let g2 = db.res_graph(T2, n(0), &[n(3)]);
        assert_eq!(g2.node_count(), 2);
    }

    #[test]
    fn prune_removes_stale_tags_and_unreachable_responders() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0, 4], T1), T1);
        db.insert(reply(9, &[10], T1), T1); // not connected to controller 0
                                            // An old-tag reply sneaks in (e.g. left over from a corrupted state).
        put(&mut db, reply(7, &[0], T2));
        db.prune(n(0), &[n(3)], [T1]);
        assert!(db.get(n(3), T1).is_some());
        assert!(db.get(n(9), T1).is_none(), "unreachable responder pruned");
        assert!(db.get(n(7), T2).is_none(), "stale tag pruned");
    }

    #[test]
    fn prune_drops_replies_claiming_to_be_self() {
        let mut db = ReplyDb::new(8);
        put(&mut db, reply(0, &[42], T1));
        db.prune(n(0), &[n(3)], [T1]);
        assert!(db.get(n(0), T1).is_none());
    }

    #[test]
    fn prune_returns_the_reachable_sets_of_the_pruned_views() {
        let mut rng = Rng::seed_from_u64(8);
        let tags = [T1, T2, Tag::new(3, 9)];
        for case in 0..300 {
            let mut db = ReplyDb::new(64);
            let self_neighbors: Vec<NodeId> = (1..6).filter(|_| rng.gen_bool(0.4)).map(n).collect();
            // Nodes 1..10 surround the controller; nodes 20..26 form islands that
            // only link among themselves. Responder 0 is a self-claimed record.
            for _ in 0..rng.gen_range(0..24usize) {
                let pool = if rng.gen_bool(0.7) {
                    0..10u32
                } else {
                    20..26u32
                };
                let responder = rng.gen_range(pool.clone());
                let neighbors: Vec<u32> = (0..rng.gen_range(0..4usize))
                    .map(|_| rng.gen_range(pool.clone()))
                    .collect();
                let tag = tags[rng.gen_range(0..tags.len())];
                put(&mut db, reply(responder, &neighbors, tag));
            }
            let curr = tags[rng.gen_range(0..2usize)];
            let prev = if rng.gen_bool(0.2) {
                curr
            } else {
                tags[rng.gen_range(0..2usize)]
            };
            let reachable = db.prune(n(0), &self_neighbors, [curr, prev]);
            for (tag, set) in [curr, prev].into_iter().zip(&reachable) {
                let graph = db.res_graph(tag, n(0), &self_neighbors);
                let recomputed: BTreeSet<NodeId> =
                    paths::reachable_set(&graph, n(0)).into_iter().collect();
                assert_eq!(*set, recomputed, "case {case}: tag {tag:?}");
            }
            for ((node, tag), _) in db.iter() {
                assert_ne!(*node, n(0), "case {case}: self-claimed record kept");
                assert!(
                    [curr, prev]
                        .into_iter()
                        .zip(&reachable)
                        .any(|(t, set)| t == *tag && set.contains(node)),
                    "case {case}: kept an unreachable or stale record of {node}"
                );
            }
        }
    }

    #[test]
    fn fusion_prefers_current_round() {
        let mut db = ReplyDb::new(8);
        put(&mut db, reply(3, &[0], T1));
        put(&mut db, reply(3, &[0, 4], T2));
        put(&mut db, reply(5, &[0], T1));
        let fusion = db.fusion(T2, T1);
        assert_eq!(fusion[&n(3)].neighbors.len(), 2, "current-round reply wins");
        assert_eq!(
            fusion[&n(5)].neighbors.len(),
            1,
            "previous round fills gaps"
        );
        let g = db.fusion_graph(T2, T1, n(0), &[n(3), n(5)]);
        assert!(g.has_link(n(3), n(4)));
        assert!(g.has_link(n(0), n(5)));
    }

    #[test]
    fn fusion_graph_drops_links_contradicted_by_fresher_replies() {
        let mut db = ReplyDb::new(8);
        // Node 4's current-round reply no longer lists 5 (their link failed), but
        // node 5's previous-round reply still claims it.
        put(&mut db, reply(4, &[0, 3], T2));
        put(&mut db, reply(5, &[4, 6], T1));
        let g = db.fusion_graph(T2, T1, n(0), &[n(4)]);
        assert!(
            !g.has_link(n(4), n(5)),
            "stale claim loses to the fresher contradicting reply"
        );
        assert!(g.has_link(n(5), n(6)), "uncontradicted claims survive");
        assert!(g.has_link(n(4), n(3)), "fresh claims survive");

        // Same-tag replies keep union semantics: a mid-round disagreement is not
        // a contradiction.
        let mut db = ReplyDb::new(8);
        put(&mut db, reply(4, &[0], T2));
        put(&mut db, reply(5, &[4], T2));
        let g = db.fusion_graph(T2, T1, n(0), &[n(4)]);
        assert!(
            g.has_link(n(4), n(5)),
            "equal freshness falls back to union"
        );
    }

    #[test]
    fn fusion_graph_trusts_own_neighborhood_over_stale_claims() {
        let mut db = ReplyDb::new(8);
        // Node 3's stale reply claims adjacency to the controller, but the
        // controller no longer observes node 3.
        put(&mut db, reply(3, &[0, 4], T1));
        let g = db.fusion_graph(T2, T1, n(0), &[n(5)]);
        assert!(!g.has_link(n(0), n(3)), "own observation is always current");
        assert!(g.has_link(n(3), n(4)), "claims about third parties survive");
    }

    #[test]
    fn round_completion_requires_all_reachable_nodes() {
        let mut db = ReplyDb::new(8);
        // Controller 0 has neighbor 3; 3 knows 4.
        db.insert(reply(3, &[0, 4], T1), T1);
        let [reachable] = db.prune(n(0), &[n(3)], [T1]);
        assert!(
            !db.round_complete(T1, n(0), &reachable),
            "node 4 is reachable but has not replied"
        );
        db.insert(reply(4, &[3], T1), T1);
        let [reachable] = db.prune(n(0), &[n(3)], [T1]);
        assert!(db.round_complete(T1, n(0), &reachable));
    }

    #[test]
    fn max_observed_tag_includes_rule_tags() {
        let mut db = ReplyDb::new(8);
        assert_eq!(db.max_observed_tag(), None);
        db.insert(reply(3, &[0], T1), T1);
        assert_eq!(db.max_observed_tag(), Some(T1));
        let mut with_rule = reply(4, &[0], T1);
        with_rule.rules.push(Rule {
            cid: n(1),
            sid: n(4),
            src: None,
            dst: n(3),
            prt: 7,
            fwd: n(3),
            tag: Tag::new(1, 40),
        });
        db.insert(with_rule, T1);
        assert_eq!(db.max_observed_tag(), Some(Tag::new(1, 40)));
        db.drop_tag(T1);
        assert_eq!(db.max_observed_tag(), None);
    }

    #[test]
    fn drop_tag_and_c_reset() {
        let mut db = ReplyDb::new(8);
        db.insert(reply(3, &[0], T1), T1);
        put(&mut db, reply(4, &[0], T2));
        assert_eq!(db.len(), 2);
        db.drop_tag(T1);
        assert!(db.get(n(3), T1).is_none());
        assert!(db.get(n(4), T2).is_some());
        db.c_reset();
        assert!(db.is_empty());
        assert_eq!(db.c_resets(), 1);
        assert_eq!(db.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one reply")]
    fn zero_capacity_rejected() {
        let _ = ReplyDb::new(0);
    }
}
