//! Bulk transfers as fluid flows with max-min fair bandwidth sharing.
//!
//! Checkpoint backups, migrations, and image pulls are modelled as *flows*:
//! a byte count draining at a rate decided by a max-min fair allocation over
//! every directed channel the flow crosses (the classic progressive-filling
//! algorithm). Whenever the flow set or topology changes, rates are
//! recomputed and every flow's completion deadline moves accordingly — the
//! same fluid approximation used by flow-level network simulators.
//!
//! Invariants (checked by property tests):
//! * no channel's summed allocation exceeds its capacity (within float dust);
//! * the allocation is Pareto-efficient: every flow is bottlenecked on at
//!   least one saturated channel (or runs at the local-copy rate).

use crate::accounting::{Accounting, TrafficClass};
use crate::bandwidth::Bandwidth;
use crate::topology::{Channel, Topology};
use gpunion_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an in-flight bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// Why a flow left the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes delivered.
    Completed,
    /// Cancelled by the caller (e.g. workload killed mid-checkpoint).
    Cancelled,
    /// A node or link on the path went down and no reroute was possible.
    PathLost,
}

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    class: TrafficClass,
    path: Vec<Channel>,
    total_bytes: f64,
    remaining: f64,
    /// Current allocated rate in bytes/sec.
    rate: f64,
}

/// A completed/failed flow notification produced by [`FlowTable::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEnd {
    /// Which flow ended.
    pub id: FlowId,
    /// How it ended.
    pub outcome: FlowOutcome,
}

/// The set of active flows plus the fair-share allocator.
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<FlowId, Flow>,
    next_id: u64,
    last_advance: SimTime,
    /// Rate applied to flows with an empty path (src == dst local copies):
    /// models local disk bandwidth rather than the network.
    local_rate: Bandwidth,
    dirty: bool,
}

/// Completion epsilon: a flow with less than half a byte left is done.
const EPSILON_BYTES: f64 = 0.5;

impl FlowTable {
    /// Empty table. `local_rate` is used for same-node transfers.
    pub fn new(local_rate: Bandwidth) -> Self {
        FlowTable {
            flows: HashMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            local_rate,
            dirty: false,
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Begin a flow of `bytes` along `path` (empty path = local copy).
    /// Call [`FlowTable::advance`] to `now` *before* adding, then
    /// [`FlowTable::reallocate`] after.
    pub fn add(&mut self, path: Vec<Channel>, bytes: u64, class: TrafficClass) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                id,
                class,
                path,
                total_bytes: bytes as f64,
                remaining: bytes as f64,
                rate: 0.0,
            },
        );
        self.dirty = true;
        id
    }

    /// Remove a flow (cancellation). Returns true if it existed.
    pub fn remove(&mut self, id: FlowId) -> bool {
        let existed = self.flows.remove(&id).is_some();
        if existed {
            self.dirty = true;
        }
        existed
    }

    /// Fraction of the flow already delivered, if it is still active.
    pub fn progress(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| {
            if f.total_bytes <= 0.0 {
                1.0
            } else {
                1.0 - f.remaining / f.total_bytes
            }
        })
    }

    /// Bytes remaining for an active flow.
    pub fn remaining_bytes(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.remaining)
    }

    /// Current rate (bytes/sec) of an active flow.
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.rate)
    }

    /// Integrate all flows forward to `now`, debiting delivered bytes into
    /// `accounting` and returning flows that finished in the interval.
    ///
    /// Completions are detected at `now`; the caller should schedule wakes at
    /// [`FlowTable::next_completion`] so no completion is observed late.
    pub fn advance(&mut self, now: SimTime, accounting: &mut Accounting) -> Vec<FlowEnd> {
        let from = self.last_advance;
        if now < from {
            return Vec::new();
        }
        let dt = now.since(from).as_secs_f64();
        let mut done = Vec::new();
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                if f.rate <= 0.0 {
                    continue;
                }
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining -= moved;
                for ch in &f.path {
                    accounting.record_span(ch.link, f.class, from, now, moved);
                }
                if f.path.is_empty() {
                    // Local copies never touch a link but still take time.
                }
                if f.remaining <= EPSILON_BYTES {
                    done.push(FlowEnd {
                        id: f.id,
                        outcome: FlowOutcome::Completed,
                    });
                }
            }
            for d in &done {
                self.flows.remove(&d.id);
            }
            if !done.is_empty() {
                self.dirty = true;
            }
        }
        self.last_advance = now;
        done
    }

    /// Drop every flow whose path crosses a now-down link or node; returns
    /// the lost flows. Call after topology changes.
    pub fn fail_broken_paths(&mut self, topo: &Topology) -> Vec<FlowEnd> {
        let mut lost = Vec::new();
        self.flows.retain(|id, f| {
            let broken = f
                .path
                .iter()
                .any(|ch| !topo.link_up(ch.link) || !topo.node_up(ch.from) || !topo.node_up(ch.to));
            if broken {
                lost.push(FlowEnd {
                    id: *id,
                    outcome: FlowOutcome::PathLost,
                });
            }
            !broken
        });
        if !lost.is_empty() {
            self.dirty = true;
        }
        lost
    }

    /// Recompute the max-min fair allocation if the flow set changed.
    /// Returns true when any rate changed.
    pub fn reallocate(&mut self, topo: &Topology) -> bool {
        if !self.dirty {
            return false;
        }
        self.dirty = false;
        self.max_min(topo);
        true
    }

    /// Progressive-filling max-min fairness over directed channels.
    fn max_min(&mut self, topo: &Topology) {
        // Channel capacities in bytes/sec, only for channels in use.
        let mut cap: HashMap<Channel, f64> = HashMap::new();
        let mut users: HashMap<Channel, Vec<FlowId>> = HashMap::new();
        let mut unfixed: Vec<FlowId> = Vec::new();
        for f in self.flows.values_mut() {
            if f.path.is_empty() {
                f.rate = self.local_rate.bytes_per_sec();
                continue;
            }
            f.rate = 0.0;
            unfixed.push(f.id);
            for ch in &f.path {
                cap.entry(*ch)
                    .or_insert_with(|| topo.link_capacity(ch.link).bytes_per_sec());
                users.entry(*ch).or_default().push(f.id);
            }
        }

        let mut remaining_users: HashMap<Channel, usize> =
            users.iter().map(|(c, v)| (*c, v.len())).collect();
        let mut fixed: HashMap<FlowId, f64> = HashMap::new();

        while fixed.len() < unfixed.len() {
            // Find the bottleneck channel: min capacity / active users.
            let mut bottleneck: Option<(Channel, f64)> = None;
            for (ch, &n) in &remaining_users {
                if n == 0 {
                    continue;
                }
                let fair = cap[ch] / n as f64;
                match bottleneck {
                    Some((_, best)) if fair >= best => {}
                    _ => bottleneck = Some((*ch, fair)),
                }
            }
            let Some((bch, rate)) = bottleneck else { break };
            let rate = rate.max(0.0);
            // Fix every unfixed flow crossing the bottleneck at `rate`.
            let flows_here: Vec<FlowId> = users[&bch]
                .iter()
                .copied()
                .filter(|id| !fixed.contains_key(id))
                .collect();
            debug_assert!(!flows_here.is_empty(), "bottleneck must have users");
            for id in flows_here {
                fixed.insert(id, rate);
                let path = self.flows[&id].path.clone();
                for ch in path {
                    if let Some(c) = cap.get_mut(&ch) {
                        *c = (*c - rate).max(0.0);
                    }
                    if let Some(n) = remaining_users.get_mut(&ch) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
        }

        for (id, rate) in fixed {
            if let Some(f) = self.flows.get_mut(&id) {
                f.rate = rate;
            }
        }
    }

    /// Earliest time any flow will complete at current rates, if any flow is
    /// active and draining.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.flows
            .values()
            .filter(|f| f.rate > 0.0)
            .map(|f| {
                let secs = (f.remaining - EPSILON_BYTES).max(0.0) / f.rate;
                // Round up to the next nanosecond so the completion check at
                // the scheduled wake sees `remaining <= EPSILON_BYTES`.
                let ns = (secs * 1e9).ceil() as u64 + 1;
                self.last_advance + SimDuration::from_nanos(ns)
            })
            .min()
    }

    /// Iterate over active flow ids with their classes (diagnostics).
    pub fn active(&self) -> impl Iterator<Item = (FlowId, TrafficClass)> + '_ {
        self.flows.values().map(|f| (f.id, f.class))
    }

    /// Sum of allocated rates crossing a channel (test/diagnostic hook).
    pub fn channel_load(&self, ch: Channel) -> f64 {
        self.flows
            .values()
            .filter(|f| f.path.contains(&ch))
            .map(|f| f.rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{star_campus, TopologyBuilder};
    use gpunion_des::SimDuration;

    fn acct() -> Accounting {
        Accounting::new(SimDuration::from_secs(60))
    }

    /// Two flows sharing one 1 Gb/s channel each get 62.5 MB/s.
    #[test]
    fn equal_share_on_shared_link() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_link(a, c, Bandwidth::gbps(1.0), SimDuration::ZERO);
        let mut topo = b.build();
        let path = topo.route(a, c).unwrap().to_vec();

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        ft.add(path.clone(), 1_000_000_000, TrafficClass::Checkpoint);
        ft.add(path, 1_000_000_000, TrafficClass::Migration);
        ft.reallocate(&topo);

        let rates: Vec<f64> = ft.flows.values().map(|f| f.rate).collect();
        for r in &rates {
            assert!((r - 62.5e6).abs() < 1.0, "rate {r}");
        }
    }

    /// A flow limited by a slow access link leaves backbone capacity to others.
    #[test]
    fn bottleneck_respected_max_min() {
        // h0 --100Mb-- sw --10Gb-- coord ; h1 --1Gb-- sw
        let mut b = TopologyBuilder::new();
        let sw = b.add_node("sw");
        let coord = b.add_node("coord");
        let h0 = b.add_node("h0");
        let h1 = b.add_node("h1");
        b.add_link(coord, sw, Bandwidth::gbps(10.0), SimDuration::ZERO);
        b.add_link(h0, sw, Bandwidth::mbps(100.0), SimDuration::ZERO);
        b.add_link(h1, sw, Bandwidth::gbps(1.0), SimDuration::ZERO);
        let mut topo = b.build();

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p0 = topo.route(h0, coord).unwrap().to_vec();
        let p1 = topo.route(h1, coord).unwrap().to_vec();
        let f0 = ft.add(p0, u64::MAX / 4, TrafficClass::Checkpoint);
        let f1 = ft.add(p1, u64::MAX / 4, TrafficClass::Checkpoint);
        ft.reallocate(&topo);

        // f0 capped by its 100 Mb/s access link: 12.5 MB/s.
        assert!((ft.rate(f0).unwrap() - 12.5e6).abs() < 1.0);
        // f1 capped by its 1 Gb/s access link: 125 MB/s (backbone not limiting).
        assert!((ft.rate(f1).unwrap() - 125e6).abs() < 1.0);
    }

    /// Flow completion time equals bytes / fair rate; releasing a flow
    /// speeds up the survivor.
    #[test]
    fn completion_and_rate_rebalance() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_link(a, c, Bandwidth::bps(8e6), SimDuration::ZERO); // 1 MB/s
        let mut topo = b.build();
        let path = topo.route(a, c).unwrap().to_vec();

        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let mut ac = acct();
        let small = ft.add(path.clone(), 1_000_000, TrafficClass::Checkpoint); // 1 MB
        let big = ft.add(path, 10_000_000, TrafficClass::Migration); // 10 MB
        ft.reallocate(&topo);

        // Both run at 0.5 MB/s; small finishes at t=2s.
        let next = ft.next_completion().unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 1e-3, "{next}");

        let done = ft.advance(next, &mut ac);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, small);
        assert_eq!(done[0].outcome, FlowOutcome::Completed);

        ft.reallocate(&topo);
        // Big had 10 - 0.5*2 = 9 MB left, now at full 1 MB/s ⇒ 9 s more.
        let next2 = ft.next_completion().unwrap();
        assert!((next2.as_secs_f64() - 11.0).abs() < 1e-3, "next2 {next2}");
        let done2 = ft.advance(next2, &mut ac);
        assert_eq!(done2.len(), 1);
        assert_eq!(done2[0].id, big);
        assert!(ft.is_empty());
    }

    #[test]
    fn local_flows_use_disk_rate() {
        let topo = {
            let mut b = TopologyBuilder::new();
            b.add_node("solo");
            b.build()
        };
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0)); // 2 GB/s
        let mut ac = acct();
        let f = ft.add(Vec::new(), 2_000_000_000, TrafficClass::Checkpoint);
        ft.reallocate(&topo);
        assert!((ft.rate(f).unwrap() - 2e9).abs() < 1.0);
        let next = ft.next_completion().unwrap();
        assert!((next.as_secs_f64() - 1.0).abs() < 1e-3);
        let done = ft.advance(next, &mut ac);
        assert_eq!(done.len(), 1);
        // Local copies generate no link traffic.
        assert_eq!(ac.total_bytes(), 0.0);
    }

    #[test]
    fn cancelled_flow_disappears() {
        let (mut topo, hosts, coord, _) = star_campus(
            2,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::ZERO,
        );
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p = topo.route(hosts[0], coord).unwrap().to_vec();
        let f = ft.add(p, 1 << 30, TrafficClass::Migration);
        ft.reallocate(&topo);
        assert!(ft.remove(f));
        assert!(!ft.remove(f));
        assert!(ft.next_completion().is_none());
    }

    #[test]
    fn down_link_kills_crossing_flows() {
        let (mut topo, hosts, coord, _) = star_campus(
            2,
            Bandwidth::gbps(1.0),
            Bandwidth::gbps(10.0),
            SimDuration::ZERO,
        );
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let p0 = topo.route(hosts[0], coord).unwrap().to_vec();
        let p1 = topo.route(hosts[1], coord).unwrap().to_vec();
        let f0 = ft.add(p0.clone(), 1 << 30, TrafficClass::Checkpoint);
        let _f1 = ft.add(p1, 1 << 30, TrafficClass::Checkpoint);
        ft.reallocate(&topo);

        // Take down host-0's access link.
        let access0 = p0[0].link;
        topo.set_link_up(access0, false);
        let lost = ft.fail_broken_paths(&topo);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].id, f0);
        assert_eq!(lost[0].outcome, FlowOutcome::PathLost);
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn accounting_receives_moved_bytes() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_link(a, c, Bandwidth::bps(8e6), SimDuration::ZERO); // 1 MB/s
        let mut topo = b.build();
        let path = topo.route(a, c).unwrap().to_vec();
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        let mut ac = acct();
        ft.add(path, 3_000_000, TrafficClass::Checkpoint);
        ft.reallocate(&topo);
        ft.advance(SimTime::from_secs(3), &mut ac);
        assert!((ac.class_total(TrafficClass::Checkpoint) - 3e6).abs() < 10.0);
    }
}
