//! Packet-forwarding rules and the bounded rule table of the abstract switch.
//!
//! A rule is the tuple `<cID, sID, src, dest, prt, fwd, tag>` of the paper (Figure 4):
//! controller that installed it, switch that stores it, matched source and destination,
//! priority, forwarding next hop, and the synchronization-round tag. The table is
//! bounded by `maxRules` and evicts the least-recently-updated rules first, which is the
//! memory-management behaviour the paper requires in Section 2.1.1.

use sdn_tags::Tag;
use sdn_topology::NodeId;

/// A single match-action packet-forwarding rule.
///
/// The source match is optional: `None` is a wildcard (the paper explicitly allows
/// wildcard matches, Section 2.1), which is what Renaissance's `myRules()` uses — a
/// flow's forwarding decision only depends on the destination, so one wildcard rule per
/// destination and priority level replaces a rule per (source, destination) pair and
/// keeps the table within the paper's Lemma 1 bound.
///
/// # Example
///
/// ```
/// use sdn_switch::rules::Rule;
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
/// let r = Rule {
///     cid: NodeId::new(0),
///     sid: NodeId::new(5),
///     src: Some(NodeId::new(0)),
///     dst: NodeId::new(9),
///     prt: 3,
///     fwd: NodeId::new(6),
///     tag: Tag::new(0, 1),
/// };
/// assert!(r.matches(NodeId::new(0), NodeId::new(9)));
/// assert!(!r.matches(NodeId::new(9), NodeId::new(0)));
/// let wildcard = Rule { src: None, ..r };
/// assert!(wildcard.matches(NodeId::new(7), NodeId::new(9)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// The controller that installed the rule (`cID`).
    pub cid: NodeId,
    /// The switch that stores the rule (`sID`).
    pub sid: NodeId,
    /// Matched packet source field; `None` is a wildcard.
    pub src: Option<NodeId>,
    /// Matched packet destination field.
    pub dst: NodeId,
    /// Rule priority; larger values are matched first.
    pub prt: u8,
    /// The neighbor the packet is forwarded to when this rule applies.
    pub fwd: NodeId,
    /// The synchronization-round tag the rule was installed with.
    pub tag: Tag,
}

impl Rule {
    /// Approximate encoded size of one rule in bytes (used for message-size accounting,
    /// cf. the paper's Lemma 3).
    pub const WIRE_SIZE: usize = 24;

    /// Returns `true` when the rule matches a packet with the given source and
    /// destination header fields.
    pub fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst == dst
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoredRule {
    rule: Rule,
    /// Monotonic freshness stamp; smaller means less recently updated.
    stamp: u64,
}

/// Key identifying a rule slot: one slot per (installer, destination, source, priority).
///
/// The installer comes first so that one controller's rules form a single contiguous
/// block (the per-round `updateRule` replacement is a splice of that block), and the
/// priority is reversed so that `myRules()` — which emits destinations ascending with
/// priorities descending — produces rule lists already in key order.
type RuleKey = (NodeId, NodeId, Option<NodeId>, std::cmp::Reverse<u8>);

fn key_of(rule: &Rule) -> RuleKey {
    (rule.cid, rule.dst, rule.src, std::cmp::Reverse(rule.prt))
}

/// The bounded rule table of an abstract switch.
///
/// Capacity is `max_rules`; inserting into a full table evicts the least-recently
/// updated rule (the paper's clogged-memory policy). Re-installing an existing rule
/// refreshes its stamp, so the rules of live controllers — which refresh every round —
/// are never evicted in favour of stale ones.
///
/// Rules are stored as a flat vector sorted by [`RuleKey`], which keeps the
/// per-round `updateRule` command (a wholesale replacement of one controller's
/// rules) a splice of one contiguous block instead of per-rule tree operations —
/// the dominant cost of the simulation's recovery phases.
#[derive(Clone, Debug)]
pub struct RuleTable {
    max_rules: usize,
    /// Sorted by `key_of`, one entry per key.
    rules: Vec<StoredRule>,
    next_stamp: u64,
    evictions: u64,
    /// Reusable buffers for `replace_controller_rules` (never observable).
    staged: Vec<StoredRule>,
    scratch: Vec<StoredRule>,
}

impl PartialEq for RuleTable {
    fn eq(&self, other: &Self) -> bool {
        // The merge buffers are scratch space: two tables with the same rules,
        // stamps, and counters are equal regardless of buffer capacity.
        self.max_rules == other.max_rules
            && self.rules == other.rules
            && self.next_stamp == other.next_stamp
            && self.evictions == other.evictions
    }
}

impl Eq for RuleTable {}

impl RuleTable {
    /// Creates an empty table with capacity `max_rules`.
    ///
    /// # Panics
    ///
    /// Panics if `max_rules == 0`.
    pub fn new(max_rules: usize) -> Self {
        assert!(max_rules > 0, "a switch needs room for at least one rule");
        RuleTable {
            max_rules,
            rules: Vec::new(),
            next_stamp: 0,
            evictions: 0,
            staged: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.max_rules
    }

    /// Number of rules currently stored.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when no rules are stored.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules evicted due to a full table since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Index of `key` in the sorted rule vector, or the insertion point.
    fn position(&self, key: &RuleKey) -> Result<usize, usize> {
        self.rules.binary_search_by(|s| key_of(&s.rule).cmp(key))
    }

    /// Inserts (or refreshes) a rule, evicting the least-recently-updated rule if the
    /// table is full. Returns `true` if an eviction happened.
    pub fn insert(&mut self, rule: Rule) -> bool {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.insert_stamped(StoredRule { rule, stamp })
    }

    /// The contiguous index range holding `controller`'s rules.
    fn controller_range(&self, controller: NodeId) -> (usize, usize) {
        let lo = self.rules.partition_point(|s| s.rule.cid < controller);
        let hi = lo + self.rules[lo..].partition_point(|s| s.rule.cid <= controller);
        (lo, hi)
    }

    /// Removes every rule installed by `controller`. Returns how many were removed.
    pub fn delete_controller(&mut self, controller: NodeId) -> usize {
        let (lo, hi) = self.controller_range(controller);
        self.rules.drain(lo..hi);
        hi - lo
    }

    /// Replaces the rules of `controller`: existing rules of that controller whose tag
    /// is *not* in `keep_tags` are removed, then `new_rules` are inserted.
    ///
    /// This implements the `updateRule` command; plain Algorithm 2 passes an empty
    /// `keep_tags` (replace everything), while the Section 6.2 evaluation variant keeps
    /// the previous round's tag alive for one extra round.
    ///
    /// Returns the number of rules removed.
    pub fn replace_controller_rules(
        &mut self,
        controller: NodeId,
        new_rules: impl IntoIterator<Item = Rule>,
        keep_tags: &[Tag],
    ) -> usize {
        // Stamp the incoming rules in arrival order — one stamp per rule, exactly as
        // repeated `insert` calls would consume them (including overwritten duplicates).
        let mut all_same_cid = true;
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        staged.extend(new_rules.into_iter().map(|rule| {
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            all_same_cid &= rule.cid == controller;
            StoredRule { rule, stamp }
        }));

        let (lo, hi) = self.controller_range(controller);
        let keep = |s: &StoredRule| keep_tags.contains(&s.rule.tag);
        let removed = self.rules[lo..hi].iter().filter(|s| !keep(s)).count();

        if !all_same_cid || self.rules.len() - removed + staged.len() > self.max_rules {
            // Rules for foreign controllers land outside the block, and near capacity
            // evictions may interleave with the insertions — fall back to the
            // one-at-a-time path to keep the sequence exact. The stamps were already
            // consumed above, so bypass `insert`'s stamp counter.
            self.rules
                .retain(|s| s.rule.cid != controller || keep_tags.contains(&s.rule.tag));
            for s in staged.drain(..) {
                self.insert_stamped(s);
            }
            self.staged = staged;
            return removed;
        }

        // Fast path: every incoming rule lands inside the controller's block and the
        // table cannot reach capacity mid-way, so no eviction can happen and sequential
        // insertion reduces to a sorted merge of the block. `myRules()` already emits
        // in key order; arbitrary callers pay a stable sort plus a keep-last dedup
        // (matching the overwrite-on-reinsert semantics of `insert`).
        if !staged.is_sorted_by(|a, b| key_of(&a.rule) <= key_of(&b.rule)) {
            staged.sort_by_key(|s| key_of(&s.rule));
        }
        staged.dedup_by(|later, kept| {
            if key_of(&later.rule) == key_of(&kept.rule) {
                *kept = *later;
                true
            } else {
                false
            }
        });
        let mut block = std::mem::take(&mut self.scratch);
        block.clear();
        let mut old = lo;
        for s in staged.drain(..) {
            let key = key_of(&s.rule);
            while old < hi && key_of(&self.rules[old].rule) < key {
                if keep(&self.rules[old]) {
                    block.push(self.rules[old]);
                }
                old += 1;
            }
            if old < hi && key_of(&self.rules[old].rule) == key {
                old += 1; // overwritten by the incoming rule
            }
            block.push(s);
        }
        while old < hi {
            if keep(&self.rules[old]) {
                block.push(self.rules[old]);
            }
            old += 1;
        }
        if block.len() == hi - lo {
            self.rules[lo..hi].copy_from_slice(&block);
        } else {
            self.rules.splice(lo..hi, block.iter().copied());
        }
        block.clear();
        self.scratch = block;
        self.staged = staged;
        removed
    }

    /// [`RuleTable::insert`] for a rule whose stamp was already drawn from the counter.
    fn insert_stamped(&mut self, stored: StoredRule) -> bool {
        match self.position(&key_of(&stored.rule)) {
            Ok(at) => {
                self.rules[at] = stored;
                false
            }
            Err(mut at) => {
                let mut evicted = false;
                if self.rules.len() >= self.max_rules {
                    // Evict the least recently updated rule (stamps are unique,
                    // so the victim is unambiguous).
                    if let Some(victim) = (0..self.rules.len()).min_by_key(|&i| self.rules[i].stamp)
                    {
                        self.rules.remove(victim);
                        self.evictions += 1;
                        evicted = true;
                        if victim < at {
                            at -= 1;
                        }
                    }
                }
                self.rules.insert(at, stored);
                evicted
            }
        }
    }

    /// All stored rules, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> + '_ {
        self.rules.iter().map(|s| &s.rule)
    }

    /// All rules installed by `controller`.
    pub fn rules_of(&self, controller: NodeId) -> Vec<Rule> {
        let (lo, hi) = self.controller_range(controller);
        self.rules[lo..hi].iter().map(|s| s.rule).collect()
    }

    /// The set of controllers that currently have at least one rule in the table.
    pub fn controllers_with_rules(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.iter().map(|r| r.cid).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The rules matching a packet `(src, dst)`, sorted by decreasing priority.
    pub fn matching(&self, src: NodeId, dst: NodeId) -> Vec<Rule> {
        // One contiguous sub-block per installing controller: walk the controller
        // blocks (a handful at most) and binary-search the destination inside each.
        let mut out: Vec<Rule> = Vec::new();
        let mut i = 0;
        while i < self.rules.len() {
            let cid = self.rules[i].rule.cid;
            let run_end = i + self.rules[i..].partition_point(|s| s.rule.cid <= cid);
            let run = &self.rules[i..run_end];
            let lo = i + run.partition_point(|s| s.rule.dst < dst);
            let hi = i + run.partition_point(|s| s.rule.dst <= dst);
            out.extend(
                self.rules[lo..hi]
                    .iter()
                    .map(|s| s.rule)
                    .filter(|r| r.matches(src, dst)),
            );
            i = run_end;
        }
        out.sort_by(|a, b| b.prt.cmp(&a.prt).then(a.fwd.cmp(&b.fwd)));
        out
    }

    /// Removes every rule (used by tests that model a factory-reset switch).
    pub fn clear(&mut self) {
        self.rules.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rule(cid: u32, src: u32, dst: u32, prt: u8, fwd: u32, tag: u64) -> Rule {
        Rule {
            cid: n(cid),
            sid: n(99),
            src: Some(n(src)),
            dst: n(dst),
            prt,
            fwd: n(fwd),
            tag: Tag::new(cid, tag),
        }
    }

    #[test]
    fn insert_and_match_by_priority() {
        let mut t = RuleTable::new(100);
        t.insert(rule(0, 0, 9, 1, 5, 1));
        t.insert(rule(0, 0, 9, 3, 6, 1));
        t.insert(rule(0, 0, 9, 2, 7, 1));
        t.insert(rule(0, 1, 9, 7, 8, 1)); // different source, must not match
        let m = t.matching(n(0), n(9));
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].prt, 3);
        assert_eq!(m[1].prt, 2);
        assert_eq!(m[2].prt, 1);
        assert!(t.matching(n(2), n(9)).is_empty());
    }

    #[test]
    fn reinserting_same_slot_does_not_grow_table() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 9, 1, 5, 1));
        t.insert(rule(0, 0, 9, 1, 6, 2)); // same key, new fwd/tag
        assert_eq!(t.len(), 1);
        assert_eq!(t.matching(n(0), n(9))[0].fwd, n(6));
    }

    #[test]
    fn full_table_evicts_least_recently_updated() {
        let mut t = RuleTable::new(2);
        t.insert(rule(0, 0, 1, 1, 5, 1));
        t.insert(rule(0, 0, 2, 1, 5, 1));
        // Refresh the first rule so the second becomes the LRU victim.
        t.insert(rule(0, 0, 1, 1, 5, 2));
        let evicted = t.insert(rule(0, 0, 3, 1, 5, 1));
        assert!(evicted);
        assert_eq!(t.len(), 2);
        assert_eq!(t.evictions(), 1);
        assert!(t.matching(n(0), n(2)).is_empty(), "LRU rule evicted");
        assert!(!t.matching(n(0), n(1)).is_empty(), "refreshed rule kept");
    }

    #[test]
    fn delete_controller_removes_only_its_rules() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 1, 1, 5, 1));
        t.insert(rule(1, 1, 2, 1, 5, 1));
        t.insert(rule(0, 0, 2, 1, 5, 1));
        assert_eq!(t.delete_controller(n(0)), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.controllers_with_rules(), vec![n(1)]);
        assert_eq!(t.delete_controller(n(0)), 0);
    }

    #[test]
    fn replace_controller_rules_respects_keep_tags() {
        let mut t = RuleTable::new(10);
        t.insert(rule(0, 0, 1, 1, 5, 1)); // tag 1
        t.insert(rule(0, 0, 2, 1, 5, 2)); // tag 2
        t.insert(rule(1, 1, 2, 1, 5, 7)); // other controller
        let removed = t.replace_controller_rules(n(0), [rule(0, 0, 3, 1, 5, 3)], &[Tag::new(0, 2)]);
        assert_eq!(removed, 1, "only the tag-1 rule is dropped");
        let of0 = t.rules_of(n(0));
        assert_eq!(of0.len(), 2);
        assert!(of0.iter().any(|r| r.tag == Tag::new(0, 2)));
        assert!(of0.iter().any(|r| r.tag == Tag::new(0, 3)));
        assert_eq!(t.rules_of(n(1)).len(), 1);
    }

    #[test]
    fn rules_of_and_clear() {
        let mut t = RuleTable::new(10);
        t.insert(rule(2, 0, 1, 1, 5, 1));
        assert_eq!(t.rules_of(n(2)).len(), 1);
        assert_eq!(t.capacity(), 10);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn rule_matching_predicate() {
        let r = rule(0, 3, 4, 1, 5, 1);
        assert!(r.matches(n(3), n(4)));
        assert!(!r.matches(n(4), n(3)));
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(Rule::WIRE_SIZE > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rule")]
    fn zero_capacity_rejected() {
        let _ = RuleTable::new(0);
    }
}
