//! The in-band control packet envelope.
//!
//! All control-plane traffic — command batches, queries, and query replies — travels
//! *through the data plane*: a packet is handed from switch to switch according to the
//! rules the controllers themselves installed. The envelope carries the source and
//! destination header fields the rules match on, a TTL, and the depth-first traversal
//! state (visited set and trail) used by the bounce-back failover of the paper's
//! building block \[6\].
//!
//! `ControlPacket::step` is the one per-hop forwarding rule: the live nodes run it on
//! every packet they hold, and the legitimacy oracle runs it to walk probe packets.

use crate::controller::Controller;
use sdn_netsim::Payload;
use sdn_switch::{forwarding, AbstractSwitch, CommandBatch, QueryReply};
use sdn_topology::NodeId;

/// What a control packet carries.
#[derive(Clone, Debug, PartialEq)]
pub enum PacketBody {
    /// A controller-to-node command batch (switches apply it; controllers answer the
    /// trailing query and ignore the rest, per Algorithm 2 line 23).
    Commands(CommandBatch),
    /// A query reply travelling back to the querying controller.
    Reply(QueryReply),
}

impl PacketBody {
    /// Approximate payload size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            PacketBody::Commands(batch) => batch.wire_size(),
            PacketBody::Reply(reply) => reply.wire_size(),
        }
    }
}

/// An in-band control-plane packet.
///
/// # Example
///
/// ```
/// use renaissance::packet::{ControlPacket, PacketBody};
/// use sdn_switch::{CommandBatch, SwitchCommand};
/// use sdn_tags::Tag;
/// use sdn_topology::NodeId;
///
/// let batch = CommandBatch::new(NodeId::new(0), vec![SwitchCommand::Query { tag: Tag::new(0, 1) }]);
/// let pkt = ControlPacket::new(NodeId::new(0), NodeId::new(7), 64, PacketBody::Commands(batch));
/// assert_eq!(pkt.src, NodeId::new(0));
/// assert_eq!(pkt.dst, NodeId::new(7));
/// assert_eq!(pkt.visited, vec![NodeId::new(0)]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ControlPacket {
    /// The node that originated the packet (matched by the rules' source field).
    pub src: NodeId,
    /// The node the packet is destined to.
    pub dst: NodeId,
    /// Remaining hops before the packet is dropped.
    pub ttl: u16,
    /// Every node the packet has visited (monotonically growing; DFS visited set).
    pub visited: Vec<NodeId>,
    /// The current DFS trail (stack); the last element is the packet's current holder,
    /// and bounce-backs pop it to return to the previous hop.
    pub trail: Vec<NodeId>,
    /// The payload.
    pub body: PacketBody,
}

/// The node holding a packet, as [`ControlPacket::step`] sees it.
pub(crate) enum Holder<'a> {
    /// A controller. `hint` is the last-resort first hop for a packet it originates
    /// (typically the neighbor an incoming query arrived from).
    Controller {
        /// The controller's state machine, whose flow plan picks the first hop.
        controller: &'a Controller,
        /// The fallback first hop.
        hint: Option<NodeId>,
    },
    /// A switch, forwarding by its installed rules.
    Switch(&'a AbstractSwitch),
}

/// What the holder of a packet does with it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Hop {
    /// Send the packet to this neighbor, as the plan, a rule or a fallback chose.
    Forward(NodeId),
    /// No next hop applied at a switch: send the packet back along its trail to
    /// this neighbor, or drop it when there is none.
    Bounce(Option<NodeId>),
    /// Drop the packet: a controller does not forward it, or its TTL ran out.
    Drop,
}

impl ControlPacket {
    /// Creates a packet originating at `src` (which is recorded as already visited).
    pub fn new(src: NodeId, dst: NodeId, ttl: u16, body: PacketBody) -> Self {
        ControlPacket {
            src,
            dst,
            ttl,
            visited: vec![src],
            trail: vec![src],
            body,
        }
    }

    /// One hop of in-band forwarding at `holder`, whose current neighbors are
    /// `neighbors`.
    ///
    /// - A controller sends a packet it originates to the first plan hop among its
    ///   neighbors, failing that to `dst` if adjacent, failing that to the hint. It
    ///   drops every other packet: controllers do not forward.
    /// - A switch consumes one TTL hop, records the arrival and takes
    ///   [`forwarding::decide`]; when that finds nothing it bounces the packet back
    ///   along the trail to a current neighbor, or drops it.
    ///
    /// The caller has already checked that the holder is not the destination.
    pub(crate) fn step(&mut self, holder: Holder<'_>, neighbors: &[NodeId]) -> Hop {
        match holder {
            Holder::Controller { controller, hint } => {
                // Only a fresh packet has visited nothing but its origin.
                if self.visited != [controller.id()] {
                    return Hop::Drop;
                }
                let dst = self.dst;
                controller
                    .first_hop(dst, neighbors)
                    .or_else(|| neighbors.contains(&dst).then_some(dst))
                    .or_else(|| hint.filter(|h| neighbors.contains(h)))
                    .map_or(Hop::Drop, Hop::Forward)
            }
            Holder::Switch(switch) => {
                if !self.consume_hop() {
                    return Hop::Drop;
                }
                self.arrive_at(switch.id());
                match forwarding::decide(
                    switch.rules(),
                    self.src,
                    self.dst,
                    &self.visited,
                    neighbors,
                ) {
                    Some(hop) => Hop::Forward(hop),
                    None => Hop::Bounce(self.bounce_back().filter(|b| neighbors.contains(b))),
                }
            }
        }
    }

    /// Records that the packet is now held by `node`, updating the visited set and the
    /// DFS trail. Idempotent when the node is already at the top of the trail.
    fn arrive_at(&mut self, node: NodeId) {
        if !self.visited.contains(&node) {
            self.visited.push(node);
        }
        if self.trail.last() != Some(&node) {
            self.trail.push(node);
        }
    }

    /// Pops the current holder off the trail and returns the node the packet should
    /// bounce back to, if any.
    fn bounce_back(&mut self) -> Option<NodeId> {
        self.trail.pop();
        self.trail.last().copied()
    }

    /// Decrements the TTL; returns `false` when the packet must be dropped.
    fn consume_hop(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        true
    }
}

impl Payload for ControlPacket {
    fn wire_size(&self) -> usize {
        // Envelope header + DFS state + payload.
        24 + self.visited.len() * 4 + self.trail.len() * 4 + self.body.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;
    use sdn_switch::{Rule, SwitchCommand, SwitchConfig};
    use sdn_tags::Tag;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn query_packet(src: u32, dst: u32, ttl: u16) -> ControlPacket {
        let batch = CommandBatch::new(
            n(src),
            vec![SwitchCommand::Query {
                tag: Tag::new(src, 1),
            }],
        );
        ControlPacket::new(n(src), n(dst), ttl, PacketBody::Commands(batch))
    }

    #[test]
    fn new_packet_starts_with_source_visited() {
        let p = query_packet(0, 5, 8);
        assert_eq!(p.visited, vec![n(0)]);
        assert_eq!(p.trail, vec![n(0)]);
        assert_eq!(p.ttl, 8);
    }

    #[test]
    fn arrival_updates_visited_and_trail_once() {
        let mut p = query_packet(0, 5, 8);
        p.arrive_at(n(3));
        p.arrive_at(n(3));
        assert_eq!(p.visited, vec![n(0), n(3)]);
        assert_eq!(p.trail, vec![n(0), n(3)]);
        p.arrive_at(n(4));
        assert_eq!(p.trail, vec![n(0), n(3), n(4)]);
    }

    #[test]
    fn bounce_back_walks_the_trail() {
        let mut p = query_packet(0, 5, 8);
        p.arrive_at(n(3));
        p.arrive_at(n(4));
        assert_eq!(p.bounce_back(), Some(n(3)));
        assert_eq!(p.bounce_back(), Some(n(0)));
        assert_eq!(p.bounce_back(), None);
    }

    /// A controller with an empty flow plan: it routes only by the fallbacks.
    fn controller(i: u32) -> Controller {
        Controller::new(n(i), ControllerConfig::for_network(1, 8))
    }

    /// A switch whose only rule sends `(src, dst)` packets to `fwd`.
    fn switch_with_rule(i: u32, src: u32, dst: u32, fwd: u32) -> AbstractSwitch {
        let mut sw = AbstractSwitch::new(n(i), SwitchConfig::default());
        sw.corrupt_install_rule(Rule {
            cid: n(0),
            sid: n(i),
            src: Some(n(src)),
            dst: n(dst),
            prt: 1,
            fwd: n(fwd),
            tag: Tag::new(0, 1),
        });
        sw
    }

    fn at(controller: &Controller, hint: Option<u32>) -> Holder<'_> {
        Holder::Controller {
            controller,
            hint: hint.map(n),
        }
    }

    #[test]
    fn a_packet_bounced_back_to_its_origin_controller_is_dropped() {
        let c = controller(0);
        let sw = AbstractSwitch::new(n(1), SwitchConfig::default());
        let mut p = query_packet(0, 5, 8);
        assert_eq!(p.step(at(&c, Some(1)), &[n(1)]), Hop::Forward(n(1)));
        // No rule and no direct link to 5 at switch 1: back to the controller...
        assert_eq!(
            p.step(Holder::Switch(&sw), &[n(0), n(2)]),
            Hop::Bounce(Some(n(0)))
        );
        // ...which does not re-send it, although its hint is still a neighbor.
        assert_eq!(p.step(at(&c, Some(2)), &[n(1), n(2)]), Hop::Drop);
    }

    #[test]
    fn a_controller_drops_packets_addressed_to_another_node() {
        let sw = switch_with_rule(1, 1, 5, 7);
        let c = controller(7);
        let mut p = query_packet(1, 5, 8);
        assert_eq!(p.step(Holder::Switch(&sw), &[n(7)]), Hop::Forward(n(7)));
        // Controller 7 is adjacent to the destination, yet it does not forward.
        assert_eq!(p.step(at(&c, Some(5)), &[n(1), n(5)]), Hop::Drop);
    }

    #[test]
    fn a_packet_is_dropped_when_its_ttl_runs_out() {
        let first = switch_with_rule(1, 0, 5, 2);
        let second = switch_with_rule(2, 0, 5, 5);
        let mut p = query_packet(0, 5, 1);
        assert_eq!(
            p.step(Holder::Switch(&first), &[n(0), n(2)]),
            Hop::Forward(n(2))
        );
        assert_eq!(p.step(Holder::Switch(&second), &[n(1), n(5)]), Hop::Drop);
        assert_eq!(p.ttl, 0);
    }

    #[test]
    fn a_controller_falls_back_to_the_destination_then_the_hint() {
        let c = controller(0);
        let mut p = query_packet(0, 5, 8);
        assert_eq!(p.step(at(&c, Some(3)), &[n(3), n(5)]), Hop::Forward(n(5)));
        let mut p = query_packet(0, 5, 8);
        assert_eq!(p.step(at(&c, Some(3)), &[n(3)]), Hop::Forward(n(3)));
        let mut p = query_packet(0, 5, 8);
        assert_eq!(p.step(at(&c, Some(4)), &[n(3)]), Hop::Drop);
        // A switch with no rule forwards straight to an adjacent destination.
        let sw = AbstractSwitch::new(n(3), SwitchConfig::default());
        let mut p = query_packet(0, 5, 8);
        assert_eq!(
            p.step(Holder::Switch(&sw), &[n(0), n(5)]),
            Hop::Forward(n(5))
        );
    }

    #[test]
    fn a_bounce_back_to_a_former_neighbor_drops_the_packet() {
        let first = switch_with_rule(1, 0, 5, 2);
        let second = AbstractSwitch::new(n(2), SwitchConfig::default());
        let mut p = query_packet(0, 5, 8);
        assert_eq!(
            p.step(Holder::Switch(&first), &[n(0), n(2)]),
            Hop::Forward(n(2))
        );
        // Switch 2 is stuck, and its link back to 1 failed meanwhile.
        assert_eq!(p.step(Holder::Switch(&second), &[n(3)]), Hop::Bounce(None));
    }

    #[test]
    fn ttl_consumption() {
        let mut p = query_packet(0, 5, 2);
        assert!(p.consume_hop());
        assert!(p.consume_hop());
        assert!(!p.consume_hop());
        assert_eq!(p.ttl, 0);
    }

    #[test]
    fn wire_size_includes_body_and_state() {
        let p = query_packet(0, 5, 8);
        let small = p.wire_size();
        let mut big = p.clone();
        big.arrive_at(n(1));
        big.arrive_at(n(2));
        assert!(big.wire_size() > small);
        let reply = ControlPacket::new(
            n(5),
            n(0),
            8,
            PacketBody::Reply(QueryReply::from_controller(
                n(5),
                vec![n(1)],
                Tag::new(0, 1),
            )),
        );
        assert!(reply.wire_size() > 24);
    }
}
