//! Control-plane message delivery queue.
//!
//! Heartbeats, dispatch orders, acknowledgements and other small messages are
//! delivered after the path's propagation + store-and-forward transmission
//! delay. Unlike flows they are not rate-shared: control traffic is tiny
//! relative to link capacity (the paper's agents exchange JSON over REST),
//! so queueing delay is negligible and modelling it would add noise, not
//! fidelity.

use crate::topology::NodeId;
use gpunion_des::SimTime;
use std::collections::BTreeMap;

/// A message awaiting delivery.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Opaque payload owned by the caller (protocol messages in GPUnion).
    pub payload: M,
    /// Wire size used for latency and accounting.
    pub size_bytes: u32,
}

/// Time-ordered pending message queue.
#[derive(Debug)]
pub struct MessageQueue<M> {
    pending: BTreeMap<(SimTime, u64), Delivery<M>>,
    seq: u64,
}

impl<M> Default for MessageQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MessageQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        MessageQueue {
            pending: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueue a message for delivery at `at`. Messages enqueued for the
    /// same instant are delivered in enqueue order.
    pub fn enqueue(&mut self, at: SimTime, delivery: Delivery<M>) {
        let key = (at, self.seq);
        self.seq += 1;
        self.pending.insert(key, delivery);
    }

    /// The earliest pending delivery time.
    pub fn next_at(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|(t, _)| *t)
    }

    /// Remove and return the earliest message if it is due at or before
    /// `now`. Calling it until `None` yields the due messages in time
    /// order without collecting them anywhere.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Delivery<M>> {
        let head = self.pending.first_entry()?;
        if head.key().0 > now {
            return None;
        }
        Some(head.remove())
    }

    /// Drop every in-flight message to or from `node` (the node went down
    /// while packets were in the air). Returns how many were lost.
    pub fn drop_involving(&mut self, node: NodeId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, d| d.from != node && d.to != node);
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut MessageQueue<&'static str>, now: SimTime) -> Vec<&'static str> {
        std::iter::from_fn(|| q.pop_due(now))
            .map(|m| m.payload)
            .collect()
    }

    fn d(from: u32, to: u32, tag: &'static str) -> Delivery<&'static str> {
        Delivery {
            from: NodeId(from),
            to: NodeId(to),
            payload: tag,
            size_bytes: 100,
        }
    }

    #[test]
    fn drain_respects_time_and_order() {
        let mut q = MessageQueue::new();
        q.enqueue(SimTime::from_secs(2), d(0, 1, "b"));
        q.enqueue(SimTime::from_secs(1), d(0, 1, "a"));
        q.enqueue(SimTime::from_secs(1), d(0, 1, "a2"));
        q.enqueue(SimTime::from_secs(3), d(0, 1, "c"));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(1)));

        assert_eq!(drain(&mut q, SimTime::from_secs(2)), vec!["a", "a2", "b"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn drain_when_empty() {
        let mut q = MessageQueue::new();
        assert!(drain(&mut q, SimTime::MAX).is_empty());
        assert_eq!(q.next_at(), None);
    }

    #[test]
    fn drop_involving_node() {
        let mut q = MessageQueue::new();
        q.enqueue(SimTime::from_secs(1), d(0, 1, "keep? no, from 0"));
        q.enqueue(SimTime::from_secs(1), d(1, 2, "involves 1"));
        q.enqueue(SimTime::from_secs(1), d(2, 3, "keep"));
        let dropped = q.drop_involving(NodeId(1));
        assert_eq!(dropped, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, SimTime::MAX), vec!["keep"]);
    }
}
