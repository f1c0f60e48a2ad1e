//! # gpunion-simnet — the simulated campus LAN
//!
//! The paper deploys GPUnion on a university network: 11 GPU servers behind
//! campus switches, a CPU-only coordinator, 1 Gb/s access links and a fat
//! backbone. This crate reproduces that substrate as a flow-level network
//! model:
//!
//! * [`Topology`] — nodes, full-duplex links, BFS routing, link/node churn.
//! * [`Network::send`] — control-plane messages with propagation +
//!   store-and-forward latency and optional loss injection.
//! * [`Network::start_flow`] — bulk transfers (checkpoints, migrations,
//!   image pulls) sharing links by **max-min fairness** (progressive
//!   filling), the standard fluid approximation for long-lived TCP flows.
//! * [`Accounting`] — every byte attributed to a [`TrafficClass`] and a time
//!   bucket, so the paper's "backup traffic < 2 % of campus bandwidth"
//!   analysis can be recomputed from a run.
//!
//! The crate is deliberately passive (no event scheduling): the embedding
//! event loop polls [`Network::next_event_at`] / [`Network::poll`].

pub mod accounting;
pub mod bandwidth;
pub mod flow;
pub mod message;
pub mod network;
pub mod topology;

pub use accounting::{Accounting, TrafficClass};
pub use bandwidth::Bandwidth;
pub use flow::{FlowEnd, FlowId, FlowOutcome, FlowTable};
pub use message::{Delivery, MessageQueue};
pub use network::{NetError, NetEvent, Network};
pub use topology::{star_campus, Channel, LinkId, NodeId, Topology, TopologyBuilder};

#[cfg(test)]
mod proptests {
    use super::*;
    use gpunion_des::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// Build a random star topology and a random flow set; check the
    /// max-min allocation invariants.
    fn star_with_flows(
        n_hosts: usize,
        access_mbps: Vec<f64>,
        flow_pairs: Vec<(usize, usize)>,
    ) -> (Topology, FlowTable) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_node("sw");
        let mut hosts = Vec::new();
        for (i, m) in access_mbps.iter().enumerate().take(n_hosts) {
            let h = b.add_node(format!("h{i}"));
            b.add_link(h, sw, Bandwidth::mbps(*m), SimDuration::ZERO);
            hosts.push(h);
        }
        let mut topo = b.build();
        let mut ft = FlowTable::new(Bandwidth::gbps(16.0));
        for (s, d) in flow_pairs {
            let (s, d) = (s % hosts.len(), d % hosts.len());
            if s == d {
                continue;
            }
            let path = topo.route(hosts[s], hosts[d]).unwrap().to_vec();
            ft.add(path, 1 << 40, TrafficClass::User);
        }
        ft.reallocate(&topo);
        (topo, ft)
    }

    proptest! {
        /// No channel is allocated beyond its capacity.
        #[test]
        fn max_min_never_oversubscribes(
            access in proptest::collection::vec(10.0f64..1000.0, 2..8),
            pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        ) {
            let n = access.len();
            let (topo, ft) = star_with_flows(n, access.clone(), pairs);
            // Check every directed channel of every link.
            for l in 0..topo.link_count() {
                let link = LinkId(l as u32);
                let (a, bnode) = topo.link_endpoints(link);
                for (from, to) in [(a, bnode), (bnode, a)] {
                    let ch = Channel { link, from, to };
                    let load = ft.channel_load(ch);
                    let cap = topo.link_capacity(link).bytes_per_sec();
                    prop_assert!(load <= cap * 1.000001 + 1.0,
                        "channel load {load} exceeds cap {cap}");
                }
            }
        }

        /// Every flow gets a strictly positive rate when all links are up.
        #[test]
        fn max_min_starvation_free(
            access in proptest::collection::vec(10.0f64..1000.0, 2..8),
            pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        ) {
            let n = access.len();
            let (_topo, ft) = star_with_flows(n, access, pairs);
            for (id, _) in ft.active() {
                prop_assert!(ft.rate(id).unwrap() > 0.0, "flow {id:?} starved");
            }
        }

        /// Conservation: bytes recorded in accounting equal bytes drained
        /// from flows (for network flows).
        #[test]
        fn advance_conserves_bytes(
            bytes in 1_000u64..100_000_000,
            secs in 1u64..20,
        ) {
            let (topo, hosts, coord, _) = star_campus(
                2, Bandwidth::gbps(1.0), Bandwidth::gbps(10.0), SimDuration::ZERO);
            let mut net: Network<u32> = Network::new(topo, Bandwidth::gbps(16.0), 1);
            let id = net.start_flow(SimTime::ZERO, hosts[0], coord, bytes, TrafficClass::Checkpoint, 0).unwrap();
            net.poll(SimTime::from_secs(secs), &mut Vec::new());
            let acct_bytes = net.accounting().class_total(TrafficClass::Checkpoint);
            let path_len = 2.0; // host→switch→coord
            match net.flow_progress(id) {
                Some(p) => {
                    let moved = bytes as f64 * p;
                    prop_assert!((acct_bytes - moved * path_len).abs() < 16.0,
                        "acct {acct_bytes} vs moved {moved} × {path_len}");
                }
                None => {
                    // Completed: all bytes accounted on both links.
                    prop_assert!((acct_bytes - bytes as f64 * path_len).abs() < 16.0,
                        "acct {acct_bytes} vs total {bytes} × {path_len}");
                }
            }
        }

        /// Routing never returns a path through a down node/link, for random
        /// up/down patterns.
        #[test]
        fn routes_avoid_down_elements(downs in proptest::collection::vec(any::<bool>(), 6)) {
            let (mut topo, hosts, coord, _) = star_campus(
                6, Bandwidth::gbps(1.0), Bandwidth::gbps(10.0), SimDuration::ZERO);
            for (h, down) in hosts.iter().zip(&downs) {
                if *down {
                    topo.set_node_up(*h, false);
                }
            }
            for (i, h) in hosts.iter().enumerate() {
                let r = topo.route(*h, coord);
                if downs[i] {
                    prop_assert!(r.is_none());
                } else {
                    let path = r.unwrap();
                    for ch in path.iter() {
                        prop_assert!(topo.node_up(ch.from) && topo.node_up(ch.to));
                        prop_assert!(topo.link_up(ch.link));
                    }
                }
            }
        }
    }
}
