//! Regenerates the §5.2 scalability discussion: the coordinator handles
//! ~50 nodes with sub-second scheduling latency; beyond ~200 nodes the
//! heartbeat write rate saturates the database and latency explodes.
//!
//! Since the DbActor split (DESIGN.md §3b) the reported write latency is
//! **measured** — the mean sojourn of heartbeat status writes through the
//! database actor's bounded queue — with the M/M/1 formula printed next
//! to it as the validation oracle it now is. The `100-job pass` column is
//! the emergent end-to-end latency of draining a 100-job backlog, where
//! each decision's dequeue transaction waits behind every earlier write.
//!
//! The closing table is the semester-scale DES sweep (§5.3): wall-clock
//! cost of driving 6 weeks of per-node 60 s heartbeats + weekly audits
//! through the typed-event wheel core, at the paper's 400-node campus
//! and at 10 000 nodes. Pass `--semester-10k` to include the 10k row
//! (≈605 M events — minutes of wall clock, off by default so the
//! default invocation stays CI-sized).
//!
//! Usage: `scalability [seed] [--semester-10k]`

use gpunion_bench::{contention_knee_run, loaded_coordinator, scale_pass_rows, semester_sweep_run};
use gpunion_des::SimTime;
use gpunion_scheduler::CoordAction;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = args.iter().find_map(|s| s.parse().ok()).unwrap_or(7u64);
    let semester_10k = args.iter().any(|a| a == "--semester-10k");
    println!("== Scalability: emergent DB write latency vs node count ==");
    println!(
        "{:<8} {:>9} {:>13} {:>13} {:>11} {:>7} {:>18}",
        "nodes",
        "db util",
        "measured tx",
        "M/M/1 oracle",
        "peak depth",
        "shed",
        "100-job pass (ms)"
    );
    for n in [10usize, 25, 50, 100, 150, 200, 250, 300, 400] {
        let row = contention_knee_run(n, seed);
        // Emergent end-to-end latency of one 100-job scheduling pass,
        // driven the only way the actor allows: its turn at t = 3700 s.
        let mut coord = loaded_coordinator(n, 100);
        let mut actions = Vec::new();
        coord.advance(SimTime::from_secs(3700), &mut actions);
        let last_delay = actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send { delay, .. } => Some(delay.as_secs_f64()),
                _ => None,
            })
            .fold(0.0, f64::max);
        println!(
            "{:<8} {:>8.0}% {:>10.1} ms {:>10.1} ms {:>11} {:>7} {:>18.1}",
            row.nodes,
            row.utilization * 100.0,
            row.measured_latency_ms,
            row.model_latency_ms,
            row.peak_queue_depth,
            row.shed_writes,
            last_delay * 1000.0
        );
    }
    println!();
    println!("paper: sub-second at ≤50 nodes; heartbeat + DB contention beyond ~200.");

    // Beyond the paper's sweep: wall-clock cost of one 20-job scheduling
    // turn on 10⁴–10⁵-node fleets, unsharded vs the sharded directory
    // (per-shard capacity indexes, k-way-merged views — DESIGN.md §3b).
    // The pending mix is trace-derived, regenerated per fleet size into
    // one warm buffer (`generate_into`).
    println!();
    println!("== Directory sharding: 20-job scheduling-turn cost at scale ==");
    println!(
        "{:<9} {:>7} {:>7} {:>14}",
        "nodes", "shards", "jobs", "turn (µs)"
    );
    let fleets = [
        (10_000, 1),
        (10_000, 16),
        (50_000, 1),
        (50_000, 16),
        (100_000, 1),
        (100_000, 16),
    ];
    for row in scale_pass_rows(&fleets, 20, 5) {
        println!(
            "{:<9} {:>7} {:>7} {:>14.1}",
            row.nodes,
            row.shards,
            row.jobs,
            row.pass_ns as f64 / 1e3
        );
    }

    // Semester-scale DES sweep (§5.3): the typed-event wheel core driving
    // 6 weeks of fleet heartbeats + weekly audits in one process.
    println!();
    println!("== Semester sweep: 6 weeks of fleet timers on the DES core ==");
    println!(
        "{:<9} {:>6} {:>14} {:>12} {:>12}",
        "nodes", "weeks", "events", "wall (s)", "ns/event"
    );
    let mut semester_fleets = vec![400u32];
    if semester_10k {
        semester_fleets.push(10_000);
    }
    for nodes in semester_fleets {
        let row = semester_sweep_run(nodes, 42);
        println!(
            "{:<9} {:>6} {:>14} {:>12.2} {:>12.0}",
            row.nodes,
            row.days / 7,
            row.events,
            row.wall_ms / 1e3,
            row.ns_per_event()
        );
    }
    if !semester_10k {
        println!("(10 000-node row ≈605 M events; rerun with --semester-10k to include it)");
    }
}
