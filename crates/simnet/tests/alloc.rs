//! Allocation discipline of the network's per-message hot path.
//!
//! Every control message routes through `Topology::route` and records one
//! `Accounting::record_instant` per hop. Once a route is cached and a
//! minute's bucket exists, neither may touch the heap: a route hit shares
//! the cached path, and a record into an existing bucket is an indexed
//! add. Delivery is the other half: `Network::poll` pops due messages
//! straight into the caller's event buffer, so a warm poll allocates
//! nothing either. These tests pin all three with a counting global
//! allocator (same idiom as `des/tests/alloc.rs`). The counter is **per thread**, so the libtest
//! harness's own bookkeeping on other threads never lands in a measured
//! window.

use gpunion_des::{SimDuration, SimTime};
use gpunion_simnet::{star_campus, Accounting, Bandwidth, LinkId, Network, TrafficClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static LOCAL_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocations() -> usize {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown are not a panic.
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn cached_route_hit_does_not_allocate() {
    let (mut topo, hosts, coord, _) = star_campus(
        8,
        Bandwidth::gbps(1.0),
        Bandwidth::gbps(10.0),
        SimDuration::from_micros(50),
    );
    // Warm the cache in both directions, as heartbeats and dispatches do.
    for &h in &hosts {
        assert!(topo.route(h, coord).is_some());
        assert!(topo.route(coord, h).is_some());
    }

    let before = allocations();
    let mut latency = SimDuration::ZERO;
    for _ in 0..100 {
        for &h in &hosts {
            for (src, dst) in [(h, coord), (coord, h)] {
                // The send path's use of a route: walk its hops.
                let path = topo.route(src, dst).expect("cached route");
                for ch in path.iter() {
                    latency += topo.link_latency(ch.link);
                }
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "cached route hits allocated {} times over 1600 lookups",
        after - before
    );
    // 1600 two-hop routes at 50 µs per hop.
    assert_eq!(latency, SimDuration::from_micros(1600 * 2 * 50));
}

#[test]
fn record_into_existing_bucket_does_not_allocate() {
    let mut acct = Accounting::new(SimDuration::from_secs(60));
    let links = [LinkId(0), LinkId(3), LinkId(7)];
    // First touch grows each (link, class) series to the current minute.
    for &link in &links {
        for class in TrafficClass::ALL {
            acct.record_instant(link, class, SimTime::from_secs(125), 1.0);
        }
    }

    let before = allocations();
    for i in 0..1_000u64 {
        for &link in &links {
            for class in TrafficClass::ALL {
                // Anywhere inside minutes 0..=2, all of which now exist.
                let at = SimTime::from_millis(i * 179 % 180_000);
                acct.record_instant(link, class, at, 1.0);
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "records into existing buckets allocated {} times",
        after - before
    );
    assert_eq!(acct.total_bytes(), 15.0 * 1_001.0);
}

#[test]
fn warm_poll_into_reused_buffer_does_not_allocate() {
    let (topo, hosts, coord, _) = star_campus(
        8,
        Bandwidth::gbps(1.0),
        Bandwidth::gbps(10.0),
        SimDuration::from_micros(50),
    );
    let mut net: Network<u64> = Network::new(topo, Bandwidth::gbps(16.0), 7);
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    let mut delivered = 0;
    let mut measured = 0;
    // A heartbeat round per second: every host reports to the coordinator
    // and the round lands in one poll. The first half warms the route
    // cache, the minute buckets and the event buffer's capacity.
    for round in 0..200u64 {
        for &h in &hosts {
            net.send(now, h, coord, 200, TrafficClass::Control, round)
                .expect("coordinator reachable");
        }
        let at = net.next_event_at().expect("messages in flight");
        let before = allocations();
        net.poll(at, &mut events);
        if round >= 100 {
            measured += allocations() - before;
        }
        delivered += events.len();
        events.clear();
        now = at + SimDuration::from_secs(1);
    }
    assert_eq!(
        measured, 0,
        "warm polls allocated {measured} times over 100 delivering calls"
    );
    assert_eq!(delivered, 200 * hosts.len());
}
