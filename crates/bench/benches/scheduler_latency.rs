//! Criterion micro-bench: real wall-clock cost of one scheduling pass at
//! increasing node counts (complements the simulated §5.2 latency model).
//!
//! `scheduling_pass` times the indexed batched pass. `fullscan_reference`
//! reproduces the pre-index algorithm — per pending job, collect every
//! eligible node from a full directory scan, then sort — on identical
//! directory state, so the speedup is measured like-for-like. `db_queue`
//! times the write-queue actor itself: submit + drain of a heartbeat-scale
//! write burst, the per-write data-structure cost underneath the emergent
//! §5.2 latency. All use `iter_batched_ref`, which drops the (large)
//! state outside the timed region: the quantity under test is scheduling
//! latency, not allocator teardown.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpunion_bench::{bench_spec, loaded_coordinator, loaded_coordinator_sharded};
use gpunion_db::{DbActor, DbActorConfig, WriteIntent};
use gpunion_des::SimTime;
use gpunion_protocol::NodeUid;
use gpunion_scheduler::NodeLiveness;

const PENDING_JOBS: usize = 20;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling_pass");
    // 10–400 matches the paper's §5.2 sweep; 2 000 and 10 000 prove the
    // indexed path stays flat far beyond the paper's knee (a pass must
    // finish in well under 1 ms at 10 000 nodes).
    for n in [10usize, 50, 200, 400, 2_000, 10_000] {
        g.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, &n| {
            b.iter_batched_ref(
                || loaded_coordinator(n, PENDING_JOBS),
                // One actor turn: apply the pending-queue writes, then the
                // batched pass (the only mutation path the actor exposes).
                |coord| {
                    let mut actions = Vec::new();
                    coord.advance(SimTime::from_secs(3700), &mut actions);
                    actions
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // The 10⁵-node fleet variants: the same turn over the sharded
    // directory (per-shard capacity indexes, k-way-merged views). The
    // unsharded 100k row is the contrast — sub-linear growth must hold
    // with and without sharding, and the merge overhead at 16 shards
    // must stay small (both gated via bench_gate's in-run scale check).
    let mut g = c.benchmark_group("scheduling_pass_sharded");
    for (n, shards) in [
        (50_000usize, 1usize),
        (50_000, 16),
        (100_000, 1),
        (100_000, 16),
    ] {
        let id = BenchmarkId::new(format!("nodes_{n}"), format!("shards_{shards}"));
        g.bench_with_input(id, &(n, shards), |b, &(n, shards)| {
            b.iter_batched_ref(
                || loaded_coordinator_sharded(n, PENDING_JOBS, shards),
                |coord| {
                    let mut actions = Vec::new();
                    coord.advance(SimTime::from_secs(3700), &mut actions);
                    actions
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // The pre-refactor cost model: one full scan + sort per pending job.
    let mut g = c.benchmark_group("fullscan_reference");
    for n in [400usize, 2_000, 10_000] {
        g.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, &n| {
            b.iter_batched_ref(
                || loaded_coordinator(n, PENDING_JOBS),
                |coord| {
                    let dir = coord.directory();
                    let job = bench_spec();
                    let mut placed = Vec::with_capacity(PENDING_JOBS);
                    for _ in 0..PENDING_JOBS {
                        let mut eligible: Vec<NodeUid> = dir
                            .iter()
                            .filter(|e| e.liveness() == NodeLiveness::Active)
                            .filter(|e| e.eligible_for(&job))
                            .map(|e| e.uid)
                            .collect();
                        eligible.sort();
                        placed.push(eligible.first().copied());
                    }
                    placed
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // The write-queue actor's own data-structure cost: one heartbeat
    // burst (submit per node) plus the drain that applies it.
    let mut g = c.benchmark_group("db_queue");
    for n in [400usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("writes", n), &n, |b, &n| {
            b.iter_batched_ref(
                || DbActor::new(DbActorConfig::default(), 1),
                |actor| {
                    let now = SimTime::from_secs(1);
                    for i in 0..n as u64 {
                        actor.try_submit(now, WriteIntent::NodeSeen(NodeUid(i)));
                    }
                    actor.advance(SimTime::MAX);
                    actor.applied_writes()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
