//! The `Network` facade: one object combining topology, flows, messages,
//! loss injection and accounting.
//!
//! `Network` is a *passive* component: it never schedules events itself.
//! The embedding event loop (in `gpunion-core`) calls [`Network::poll`] when
//! the clock reaches [`Network::next_event_at`], and re-arms its wake timer
//! after every mutating call. This keeps the substrate deterministic and
//! directly unit-testable without an event loop.

use crate::accounting::{Accounting, TrafficClass};
use crate::bandwidth::Bandwidth;
use crate::flow::{FlowEnd, FlowId, FlowOutcome, FlowTable};
use crate::message::{Delivery, MessageQueue};
use crate::topology::{LinkId, NodeId, Topology};
use gpunion_des::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Latency applied to node-local (loopback) messages.
const LOOPBACK_LATENCY: SimDuration = SimDuration::from_micros(10);

/// Events surfaced by [`Network::poll`].
#[derive(Debug, Clone)]
pub enum NetEvent<M> {
    /// A control message arrived at `to`.
    Delivered {
        /// Sender.
        from: NodeId,
        /// Recipient (still up at delivery time).
        to: NodeId,
        /// The payload handed to [`Network::send`].
        payload: M,
    },
    /// A bulk flow ended; `tag` is the context handed to [`Network::start_flow`].
    FlowEnded {
        /// The flow.
        id: FlowId,
        /// Completion, cancellation, or path loss.
        outcome: FlowOutcome,
        /// Caller context.
        tag: M,
    },
}

/// Errors from send/flow operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No usable path between the endpoints (node/link down or partitioned).
    Unreachable,
    /// The referenced flow does not exist (already finished or cancelled).
    UnknownFlow,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Unreachable => write!(f, "destination unreachable"),
            NetError::UnknownFlow => write!(f, "unknown flow"),
        }
    }
}

impl std::error::Error for NetError {}

/// The simulated campus network.
pub struct Network<M> {
    topo: Topology,
    flows: FlowTable,
    msgs: MessageQueue<M>,
    accounting: Accounting,
    tags: HashMap<FlowId, M>,
    /// Per-link message drop probability (fault injection).
    loss: HashMap<LinkId, f64>,
    default_loss: f64,
    rng: SmallRng,
    messages_sent: u64,
    messages_dropped: u64,
}

impl<M> Network<M> {
    /// Wrap a topology. `local_rate` bounds same-node copies (disk speed);
    /// `seed` drives loss-injection randomness.
    pub fn new(topo: Topology, local_rate: Bandwidth, seed: u64) -> Self {
        Network {
            topo,
            flows: FlowTable::new(local_rate),
            msgs: MessageQueue::new(),
            accounting: Accounting::new(SimDuration::from_secs(60)),
            tags: HashMap::new(),
            loss: HashMap::new(),
            default_loss: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            messages_sent: 0,
            messages_dropped: 0,
        }
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Traffic accounting collected so far.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Total control messages accepted by [`Network::send`].
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages lost to fault injection or dead destinations.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Set the default per-link drop probability for control messages.
    pub fn set_default_loss(&mut self, p: f64) {
        self.default_loss = p.clamp(0.0, 1.0);
    }

    /// Override the drop probability of one link.
    pub fn set_link_loss(&mut self, link: LinkId, p: f64) {
        self.loss.insert(link, p.clamp(0.0, 1.0));
    }

    fn link_loss(&self, link: LinkId) -> f64 {
        self.loss.get(&link).copied().unwrap_or(self.default_loss)
    }

    /// Send a control message of `size_bytes`. Latency is propagation plus
    /// store-and-forward transmission on each hop. The message may be lost
    /// to injected faults — the sender gets no error in that case, exactly
    /// like UDP on a real LAN; reliability is the protocol layer's job.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        size_bytes: u32,
        class: TrafficClass,
        payload: M,
    ) -> Result<(), NetError> {
        if !self.topo.node_up(from) || !self.topo.node_up(to) {
            return Err(NetError::Unreachable);
        }
        self.messages_sent += 1;
        if from == to {
            self.msgs.enqueue(
                now + LOOPBACK_LATENCY,
                Delivery {
                    from,
                    to,
                    payload,
                    size_bytes,
                },
            );
            return Ok(());
        }
        let path = self.topo.route(from, to).ok_or(NetError::Unreachable)?;
        let mut at = now;
        for ch in path.iter() {
            at += self.topo.link_latency(ch.link);
            at += SimDuration::from_secs_f64(
                self.topo
                    .link_capacity(ch.link)
                    .transfer_secs(size_bytes as u64),
            );
            self.accounting
                .record_instant(ch.link, class, at, size_bytes as f64);
            let p = self.link_loss(ch.link);
            if p > 0.0 && self.rng.gen_bool(p) {
                self.messages_dropped += 1;
                return Ok(()); // lost in transit; sender cannot tell
            }
        }
        self.msgs.enqueue(
            at,
            Delivery {
                from,
                to,
                payload,
                size_bytes,
            },
        );
        Ok(())
    }

    /// Start a bulk transfer; `tag` is returned in the completion event.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: TrafficClass,
        tag: M,
    ) -> Result<FlowId, NetError> {
        if !self.topo.node_up(from) || !self.topo.node_up(to) {
            return Err(NetError::Unreachable);
        }
        let path = if from == to {
            Vec::new()
        } else {
            self.topo
                .route(from, to)
                .ok_or(NetError::Unreachable)?
                .to_vec()
        };
        // Integrate existing flows to `now` before the rate change.
        let _ = self.flows.advance(now, &mut self.accounting);
        let id = self.flows.add(path, bytes, class);
        self.flows.reallocate(&self.topo);
        self.tags.insert(id, tag);
        Ok(id)
    }

    /// Cancel an in-flight flow. The tag is returned for caller cleanup.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Result<M, NetError> {
        let _ = self.flows.advance(now, &mut self.accounting);
        if !self.flows.remove(id) {
            return Err(NetError::UnknownFlow);
        }
        self.flows.reallocate(&self.topo);
        self.tags.remove(&id).ok_or(NetError::UnknownFlow)
    }

    /// Fraction of a flow delivered so far.
    pub fn flow_progress(&self, id: FlowId) -> Option<f64> {
        self.flows.progress(id)
    }

    /// Bring a node up or down. Downing a node kills in-flight messages and
    /// flows involving it; the lost flows are returned as events (so the
    /// caller can fail the associated transfers immediately).
    pub fn set_node_up(&mut self, now: SimTime, node: NodeId, up: bool) -> Vec<NetEvent<M>> {
        let _ = self.flows.advance(now, &mut self.accounting);
        self.topo.set_node_up(node, up);
        let mut events = Vec::new();
        if !up {
            self.messages_dropped += self.msgs.drop_involving(node) as u64;
            for end in self.flows.fail_broken_paths(&self.topo) {
                events.push(self.flow_end_event(end));
            }
        }
        self.flows.reallocate(&self.topo);
        events
    }

    /// Bring a link up or down; flows crossing a downed link are lost.
    pub fn set_link_up(&mut self, now: SimTime, link: LinkId, up: bool) -> Vec<NetEvent<M>> {
        let _ = self.flows.advance(now, &mut self.accounting);
        self.topo.set_link_up(link, up);
        let mut events = Vec::new();
        if !up {
            for end in self.flows.fail_broken_paths(&self.topo) {
                events.push(self.flow_end_event(end));
            }
        }
        self.flows.reallocate(&self.topo);
        events
    }

    fn flow_end_event(&mut self, end: FlowEnd) -> NetEvent<M> {
        let tag = self
            .tags
            .remove(&end.id)
            .expect("every flow has a tag until it ends");
        NetEvent::FlowEnded {
            id: end.id,
            outcome: end.outcome,
            tag,
        }
    }

    /// The next instant at which [`Network::poll`] would produce events.
    pub fn next_event_at(&self) -> Option<SimTime> {
        match (self.msgs.next_at(), self.flows.next_completion()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance internal state to `now` and append everything that happened
    /// to `events`: flow completions, then message deliveries (to
    /// still-up nodes) in time order. The caller owns and reuses the
    /// buffer, so a warm poll that only delivers messages allocates nothing.
    pub fn poll(&mut self, now: SimTime, events: &mut Vec<NetEvent<M>>) {
        for end in self.flows.advance(now, &mut self.accounting) {
            events.push(self.flow_end_event(end));
        }
        self.flows.reallocate(&self.topo);
        while let Some(d) = self.msgs.pop_due(now) {
            if self.topo.node_up(d.to) {
                events.push(NetEvent::Delivered {
                    from: d.from,
                    to: d.to,
                    payload: d.payload,
                });
            } else {
                self.messages_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star_campus;

    fn poll(net: &mut Network<&'static str>, now: SimTime) -> Vec<NetEvent<&'static str>> {
        let mut events = Vec::new();
        net.poll(now, &mut events);
        events
    }

    fn campus(n: usize) -> (Network<&'static str>, Vec<NodeId>, NodeId) {
        let (topo, hosts, coord, _) = star_campus(
            n,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::from_micros(50),
        );
        (Network::new(topo, Bandwidth::gbps(16.0), 7), hosts, coord)
    }

    #[test]
    fn message_roundtrip_latency() {
        let (mut net, hosts, coord) = campus(3);
        net.send(
            SimTime::ZERO,
            hosts[0],
            coord,
            200,
            TrafficClass::Control,
            "hb",
        )
        .unwrap();
        let at = net.next_event_at().unwrap();
        // Two hops: 2×50 µs propagation + 2×(200 B / capacity) transmission.
        assert!(at > SimTime::from_nanos(100_000), "{at}");
        assert!(at < SimTime::from_nanos(120_000), "{at}");
        let evs = poll(&mut net, at);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::Delivered { from, to, payload } => {
                assert_eq!(*from, hosts[0]);
                assert_eq!(*to, coord);
                assert_eq!(*payload, "hb");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loopback_messages_work() {
        let (mut net, hosts, _) = campus(1);
        net.send(
            SimTime::ZERO,
            hosts[0],
            hosts[0],
            64,
            TrafficClass::Control,
            "self",
        )
        .unwrap();
        let at = net.next_event_at().unwrap();
        assert_eq!(at, SimTime::ZERO + LOOPBACK_LATENCY);
        assert_eq!(poll(&mut net, at).len(), 1);
    }

    #[test]
    fn send_to_down_node_errors() {
        let (mut net, hosts, coord) = campus(2);
        net.set_node_up(SimTime::ZERO, hosts[1], false);
        let err = net
            .send(
                SimTime::ZERO,
                hosts[0],
                hosts[1],
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap_err();
        assert_eq!(err, NetError::Unreachable);
        // Coordinator still reachable.
        assert!(net
            .send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "y"
            )
            .is_ok());
    }

    #[test]
    fn message_to_node_that_dies_in_flight_is_dropped() {
        let (mut net, hosts, coord) = campus(2);
        net.send(
            SimTime::ZERO,
            coord,
            hosts[0],
            64,
            TrafficClass::Control,
            "kill-order",
        )
        .unwrap();
        // Node dies before delivery.
        net.set_node_up(SimTime::from_nanos(1), hosts[0], false);
        let evs = poll(&mut net, SimTime::from_secs(1));
        assert!(evs.is_empty());
        assert_eq!(net.messages_dropped(), 1);
    }

    #[test]
    fn flow_completion_tag_returned() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                125_000_000, // 1 Gb ⇒ 1 s on the access link
                TrafficClass::Checkpoint,
                "ckpt-42",
            )
            .unwrap();
        let at = net.next_event_at().unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 0.01, "{at}");
        let evs = poll(&mut net, at);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::FlowEnded {
                id: fid,
                outcome,
                tag,
            } => {
                assert_eq!(*fid, id);
                assert_eq!(*outcome, FlowOutcome::Completed);
                assert_eq!(*tag, "ckpt-42");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_down_fails_flow_with_event() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                1 << 30,
                TrafficClass::Migration,
                "m",
            )
            .unwrap();
        let evs = net.set_node_up(SimTime::from_millis(100), hosts[0], false);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            NetEvent::FlowEnded {
                id: fid, outcome, ..
            } => {
                assert_eq!(*fid, id);
                assert_eq!(*outcome, FlowOutcome::PathLost);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cancel_flow_returns_tag() {
        let (mut net, hosts, coord) = campus(2);
        let id = net
            .start_flow(
                SimTime::ZERO,
                hosts[0],
                coord,
                1 << 30,
                TrafficClass::ImagePull,
                "img",
            )
            .unwrap();
        let tag = net.cancel_flow(SimTime::from_millis(5), id).unwrap();
        assert_eq!(tag, "img");
        assert_eq!(
            net.cancel_flow(SimTime::from_millis(6), id).unwrap_err(),
            NetError::UnknownFlow
        );
    }

    #[test]
    fn total_loss_drops_all_messages() {
        let (mut net, hosts, coord) = campus(2);
        net.set_default_loss(1.0);
        for _ in 0..10 {
            net.send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap();
        }
        assert!(poll(&mut net, SimTime::from_secs(1)).is_empty());
        assert_eq!(net.messages_dropped(), 10);
        assert_eq!(net.messages_sent(), 10);
    }

    #[test]
    fn partial_loss_drops_some() {
        let (mut net, hosts, coord) = campus(2);
        net.set_default_loss(0.3);
        for _ in 0..200 {
            net.send(
                SimTime::ZERO,
                hosts[0],
                coord,
                64,
                TrafficClass::Control,
                "x",
            )
            .unwrap();
        }
        let delivered = poll(&mut net, SimTime::from_secs(1)).len();
        // Two lossy hops at 30 % each ⇒ ~49 % delivery. Allow wide margin.
        assert!(delivered > 60 && delivered < 140, "delivered {delivered}");
    }

    #[test]
    fn concurrent_checkpoints_share_backbone_fairly() {
        // 4 hosts all pushing to the coordinator: each limited by its own
        // 1 Gb/s access link (backbone 10 Gb/s is not the bottleneck).
        let (mut net, hosts, coord) = campus(4);
        let bytes = 125_000_000u64; // 1 s at full access rate
        for h in &hosts {
            net.start_flow(
                SimTime::ZERO,
                *h,
                coord,
                bytes,
                TrafficClass::Checkpoint,
                "c",
            )
            .unwrap();
        }
        let at = net.next_event_at().unwrap();
        assert!((at.as_secs_f64() - 1.0).abs() < 0.01, "{at}");
        let evs = poll(&mut net, at);
        assert_eq!(evs.len(), 4, "all four finish together");
    }
}
