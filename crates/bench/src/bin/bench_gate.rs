//! CI bench-regression gate.
//!
//! Measures the scheduler's headline performance numbers — wall-clock
//! latency of the actor turn that drains a 20-job scheduling pass at 400,
//! 10 000, and 100 000 nodes (the quantities EXPERIMENTS.md §5.2 quotes;
//! the 100k rows run the 16-way **sharded** directory, cold and warm)
//! plus the simulated database write-queue figures at 400 nodes, the
//! coordinator-inbox saturation figures at 500 nodes (ρ = 1.2), and the
//! semester-scale DES row (6 weeks of 60 s heartbeats + weekly audits at
//! 400 nodes on the typed-event wheel core, ≈24 M events) and the
//! codec hot-path rows (allocation-free `wire_size()` walk and pooled
//! framed encode of the dominant heartbeat message) and the parallel
//! agent-pump storm rows (the lockstep 400-node agent phase inline and
//! on 4 pump workers, plus its action checksum) — writes
//! them to `BENCH_scheduler.json` (schema 8), and fails (exit 1) on
//! regression over the checked-in baseline. The baseline's `schema` key
//! must match this binary's [`BENCH_SCHEMA`] exactly — a mismatched or
//! missing version is a hard failure, not a silent row-by-row gate
//! against renamed numbers. Wall-clock rows get
//! `BENCH_GATE_FACTOR`× headroom (default 2×, absorbing runner-to-runner
//! hardware variance); the simulated saturation and semester event-count
//! rows are deterministic, so they must match the baseline to a 1%
//! epsilon — any drift, in either direction, is a behavioural change
//! that must be re-recorded deliberately.
//!
//! Cross-row invariants are asserted in-run (same machine, same
//! build, so the ratios are hardware-independent; they compare sample
//! **minima** — the least-noisy estimator on a shared runner — so a
//! single cold-cache outlier cannot fail the gate):
//!
//! * **Sub-linear scale**: the cold sharded 100k-node turn must stay
//!   within `BENCH_GATE_SCALE_FACTOR`× (default 3×) of the 10k-node
//!   turn — a 10× fleet cannot cost 10× (the per-shard indexes stay
//!   logarithmic and the k-way merge is O(shards) per pop).
//! * **Warm actor turn beats the small fleet**: the steady-state 100k
//!   node turn over the actorized sharded directory — shard intents
//!   through the runtime, reads through the reusable round-robin
//!   scatter–gather — must cost at most `BENCH_GATE_ACTOR_FACTOR`×
//!   (default 1×) the **cold 10k single-shard** turn: a 10× fleet at
//!   steady state is no slower than a small fleet from scratch, because
//!   the per-pick shard-stream setup is amortized across the pass.
//! * **Critical-write backpressure**: at ρ > 1 every job submission is
//!   deferred behind the database bound — visible as inbox sojourn — and
//!   **none is shed**.
//! * **Typed core beats the boxed heap**: the semester fleet's per-event
//!   cost on the typed wheel core must stay at or below
//!   `BENCH_GATE_DES_FACTOR`× (default 1×) the per-event cost of the
//!   same fleet on the frozen boxed-closure `HeapSim` reference — the
//!   tentpole's reason to exist, measured like-for-like in-run.
//! * **Criticals never shed**: with token-bucket admission on and batch
//!   submissions at ρ > 1, some batch load is shed at the inbox and
//!   every interactive-priority (critical) submission is admitted.
//! * **Semester in single-digit seconds**: the 6-week 400-node row must
//!   finish within `BENCH_GATE_SEMESTER_SECS` (default 10) wall-clock
//!   seconds — the absolute bound EXPERIMENTS.md §5.3 quotes.
//! * **Counting walk beats encode-and-drop**: `wire_size()` — the pure
//!   arithmetic `CountingSink` walk both Platform delivery paths run per
//!   simulated message — must cost at most `BENCH_GATE_WIRE_SIZE_FACTOR`×
//!   (default 0.25×) the old encode-and-drop way of learning a frame's
//!   length (`to_bytes()` then discard), measured like-for-like in-run.
//! * **Parallel pump pays for itself**: the lockstep agent phase of the
//!   400-node storm on 4 pump workers must cost at most
//!   `BENCH_GATE_PUMP_FACTOR`× (default 0.6×) the inline phase —
//!   asserted only when ≥ 4 cores are available (a smaller runner
//!   cannot physically show the speedup, so the check is skipped with a
//!   note). The two runs' action checksums must match **unconditionally**
//!   — parallelism may move wall-clock, never behaviour.
//!
//! Usage:
//!
//! ```console
//! bench_gate                          # gate against the default baseline
//! bench_gate --write-baseline <path>  # re-record the baseline (no gate)
//! bench_gate --baseline <p> --out <p> # explicit paths
//! bench_gate --profile                # also print the per-event-kind
//!                                     # breakdown of the semester sweep
//! ```

use gpunion_bench::{
    admission_shed_run, check_baseline_schema, codec_cost_run, contention_knee_run,
    loaded_coordinator_sharded, market_grant_run, saturation_run, semester_sweep_heap,
    semester_sweep_profile, semester_sweep_run, warm_actor_pass_ns, PassStats, BENCH_SCHEMA,
    PASS_JOBS,
};
use gpunion_core::pump_storm_run;
use gpunion_des::SimTime;
use std::time::Instant;

const DEFAULT_BASELINE: &str = "crates/bench/baseline/BENCH_scheduler.json";
const DEFAULT_OUT: &str = "BENCH_scheduler.json";
/// Shard count of the gated 100k-node rows (the bench default; pick order
/// is bit-identical at any count, so this only moves cost).
const SCALE_SHARDS: usize = 16;
/// Lockstep agent-phase turns of the gated pump-storm rows: enough work
/// per configuration for the wall-clock ratio to dominate thread wakeup
/// jitter, short enough to keep the gate interactive.
const PUMP_TURNS: usize = 600;

/// Env-tunable factor with a default.
fn env_factor(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Wall-clock statistics of the **cold** actor turn that applies the
/// 20-job queue writes and drains one scheduling pass at `n` nodes over
/// `shards` directory shards: the coordinator is rebuilt per sample
/// (setup excluded, like the criterion harness).
fn pass_ns(n: usize, shards: usize, iters: usize) -> PassStats {
    let samples: Vec<u64> = (0..iters)
        .map(|_| {
            let mut coord = loaded_coordinator_sharded(n, PASS_JOBS, shards);
            let mut actions = Vec::new();
            let t0 = Instant::now();
            coord.advance(SimTime::from_secs(3700), &mut actions);
            let dt = t0.elapsed().as_nanos() as u64;
            assert!(!actions.is_empty(), "pass placed nothing at {n} nodes");
            dt
        })
        .collect();
    PassStats::from_samples(samples)
}

/// Minimal extractor for the flat JSON this binary writes.
fn json_f64(s: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = s.find(&pat)? + pat.len();
    let rest = s[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = flag("--baseline").unwrap_or_else(|| DEFAULT_BASELINE.into());
    let out_path = flag("--out").unwrap_or_else(|| DEFAULT_OUT.into());
    let write_baseline = flag("--write-baseline");
    let profile = args.iter().any(|a| a == "--profile");

    eprintln!("bench_gate: measuring scheduling pass (400 / 10k / 100k-sharded nodes)…");
    let p400 = pass_ns(400, 1, 31);
    let p10k = pass_ns(10_000, 1, 11);
    let p100k = pass_ns(100_000, SCALE_SHARDS, 7);
    eprintln!("bench_gate: measuring warm actor turn (100k nodes, {SCALE_SHARDS} shard lanes)…");
    let pactor = warm_actor_pass_ns(100_000, SCALE_SHARDS, 15);
    // Sub-linear scale invariant, measured in-run so it is independent of
    // runner hardware: a 10× fleet must cost nowhere near 10×.
    let scale_factor = env_factor("BENCH_GATE_SCALE_FACTOR", 3.0);
    let growth = p100k.min_ns as f64 / p10k.min_ns as f64;
    assert!(
        growth <= scale_factor,
        "100k-node sharded turn grew {growth:.2}× over the 10k turn \
         (bound {scale_factor}×): {} ns vs {} ns (minima)",
        p100k.min_ns,
        p10k.min_ns
    );
    eprintln!(
        "bench_gate: scale ok — 100k/{SCALE_SHARDS}-shard turn {} ns is {growth:.2}× \
         the 10k turn ({} ns), bound {scale_factor}× (minima)",
        p100k.min_ns, p10k.min_ns
    );
    // Warm actor invariant: the steady-state 100k sharded-actor turn is
    // at or below the cold 10k single-shard turn — the scatter–gather
    // buffer amortizes the per-pick shard-stream setup the cold 100k row
    // still pays per pass.
    let actor_factor = env_factor("BENCH_GATE_ACTOR_FACTOR", 1.0);
    let actor_ratio = pactor.min_ns as f64 / p10k.min_ns as f64;
    assert!(
        actor_ratio <= actor_factor,
        "warm 100k-node actor turn is {actor_ratio:.2}× the cold 10k single-shard turn \
         (bound {actor_factor}×): {} ns vs {} ns (minima)",
        pactor.min_ns,
        p10k.min_ns
    );
    eprintln!(
        "bench_gate: actor ok — warm 100k/{SCALE_SHARDS}-lane turn {} ns is {actor_ratio:.2}× \
         the cold 10k turn ({} ns), bound {actor_factor}× (minima)",
        pactor.min_ns, p10k.min_ns
    );
    eprintln!("bench_gate: running semester DES sweep (6 weeks, 400 nodes, typed wheel core)…");
    let sem = semester_sweep_run(400, 42);
    eprintln!(
        "bench_gate: semester row — {} events in {:.0} ms ({:.0} ns/event)",
        sem.events,
        sem.wall_ms,
        sem.ns_per_event()
    );
    // Absolute bound: a semester at campus scale stays single-digit
    // seconds (the EXPERIMENTS.md §5.3 claim).
    let semester_secs = env_factor("BENCH_GATE_SEMESTER_SECS", 10.0);
    assert!(
        sem.wall_ms <= semester_secs * 1e3,
        "semester sweep took {:.1} s (bound {semester_secs} s)",
        sem.wall_ms / 1e3
    );
    // Typed-vs-heap invariant, in-run so it is hardware-independent: the
    // per-event cost of the typed wheel core must not exceed the boxed
    // binary-heap reference on the same fleet (one week is enough signal
    // — per-event cost is horizon-independent for this workload).
    eprintln!("bench_gate: running heap-reference week (boxed closures, 400 nodes)…");
    let sem_heap = semester_sweep_heap(400, 7);
    let des_factor = env_factor("BENCH_GATE_DES_FACTOR", 1.0);
    let des_ratio = sem.ns_per_event() / sem_heap.ns_per_event();
    assert!(
        des_ratio <= des_factor,
        "typed core per-event cost is {des_ratio:.2}× the boxed-heap reference \
         (bound {des_factor}×): {:.0} ns vs {:.0} ns per event",
        sem.ns_per_event(),
        sem_heap.ns_per_event()
    );
    eprintln!(
        "bench_gate: des core ok — typed {:.0} ns/event is {des_ratio:.2}× the boxed-heap \
         reference ({:.0} ns/event), bound {des_factor}×",
        sem.ns_per_event(),
        sem_heap.ns_per_event()
    );
    if profile {
        eprintln!("bench_gate: profiling semester sweep by event kind…");
        let (prow, fired) = semester_sweep_profile(400, 42);
        println!(
            "semester profile ({} events, {:.0} ms):",
            prow.events, prow.wall_ms
        );
        for (kind, count) in &fired {
            let share = *count as f64 / prow.events as f64 * 100.0;
            println!("  {kind:>8}: {count:>12} fired ({share:5.1}%)");
        }
    }
    eprintln!(
        "bench_gate: driving the pump storm (400 nodes, {PUMP_TURNS} lockstep agent \
         phases, inline vs 4 workers)…"
    );
    let (pump_w0_ms, pump_w0_sum) = pump_storm_run(400, PUMP_TURNS, 0);
    let (pump_w4_ms, pump_w4_sum) = pump_storm_run(400, PUMP_TURNS, 4);
    // Behavioural identity is unconditional: the parallel pump applies
    // action batches in due order, so the fold over (addr, batch size)
    // must be bit-equal regardless of worker count or core count.
    assert_eq!(
        pump_w0_sum, pump_w4_sum,
        "parallel pump storm diverged from the inline run \
         ({pump_w0_sum:#x} vs {pump_w4_sum:#x})"
    );
    let pump_factor = env_factor("BENCH_GATE_PUMP_FACTOR", 0.6);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pump_ratio = pump_w4_ms / pump_w0_ms;
    if cores >= 4 {
        assert!(
            pump_ratio <= pump_factor,
            "4-worker pump storm is {pump_ratio:.2}× the inline agent phase \
             (bound {pump_factor}×): {pump_w4_ms:.1} ms vs {pump_w0_ms:.1} ms"
        );
        eprintln!(
            "bench_gate: pump ok — 4-worker storm {pump_w4_ms:.1} ms is {pump_ratio:.2}× \
             the inline phase ({pump_w0_ms:.1} ms), bound {pump_factor}×, checksum {pump_w0_sum:#x}"
        );
    } else {
        eprintln!(
            "bench_gate: pump speedup check SKIPPED — {cores} core(s) available, need ≥ 4 \
             (checksums still matched: {pump_w0_sum:#x}); \
             ratio was {pump_ratio:.2}× ({pump_w4_ms:.1} ms vs {pump_w0_ms:.1} ms)"
        );
    }
    eprintln!("bench_gate: measuring db write queue at 400 nodes…");
    let knee = contention_knee_run(400, 7);
    eprintln!("bench_gate: measuring inbox sojourn under saturation (500 nodes, rho = 1.2)…");
    let sat = saturation_run(500, 7);
    // Critical-write backpressure invariant: at rho > 1 submissions are
    // deferred (DES-visible as inbox sojourn), never shed.
    assert!(
        sat.deferred_turns > 0,
        "saturation produced no deferred turns: {sat:?}"
    );
    assert!(
        sat.inbox_sojourn_ms_max > 0.0,
        "backpressure left no inbox-sojourn trace: {sat:?}"
    );
    assert_eq!(
        sat.jobs_admitted, sat.submissions,
        "critical intents must be deferred, never shed: {sat:?}"
    );
    eprintln!(
        "bench_gate: saturation ok — {} submissions all admitted, {} deferred turns, \
         inbox sojourn mean {:.2} ms / max {:.2} ms, {} status writes shed",
        sat.submissions,
        sat.deferred_turns,
        sat.inbox_sojourn_ms_mean,
        sat.inbox_sojourn_ms_max,
        sat.db_shed_status_writes
    );
    eprintln!("bench_gate: filling the fair-share queue (10⁶ jobs, 10⁶ users)…");
    let market = market_grant_run(1_000_000, 1_000_000, 1_001);
    eprintln!(
        "bench_gate: marketplace row — admit {} ns/job amortized, grant {} ns at \
         {}-deep queue over {} users",
        market.admit_ns, market.grant_ns, market.queued_jobs, market.users
    );
    // Admission-shedding invariant (deterministic, ρ > 1): batch overload
    // is shed at the inbox; critical submissions NEVER are.
    eprintln!("bench_gate: driving token-bucket admission at rho > 1…");
    let adm = admission_shed_run(60);
    assert!(
        adm.batch_shed > 0,
        "rho > 1 shed no batch submissions: {adm:?}"
    );
    assert_eq!(
        adm.critical_admitted, adm.critical_offered,
        "critical submissions were shed: {adm:?}"
    );
    eprintln!(
        "bench_gate: admission ok — {}/{} batch admitted ({} shed), {}/{} criticals admitted",
        adm.batch_admitted,
        adm.batch_offered,
        adm.batch_shed,
        adm.critical_admitted,
        adm.critical_offered
    );
    eprintln!("bench_gate: measuring codec hot path (8-GPU heartbeat, counting walk vs encode)…");
    let codec = codec_cost_run(15, 10_000);
    // Counting-walk invariant, in-run so it is hardware-independent: sizing
    // a frame without materializing it must be far cheaper than the old
    // encode-and-drop — the tentpole's reason to exist.
    let wire_factor = env_factor("BENCH_GATE_WIRE_SIZE_FACTOR", 0.25);
    let wire_ratio = codec.wire_size.min_ns as f64 / codec.encode_drop.min_ns as f64;
    assert!(
        wire_ratio <= wire_factor,
        "wire_size counting walk is {wire_ratio:.2}× the encode-and-drop cost \
         (bound {wire_factor}×): {} ns vs {} ns (minima)",
        codec.wire_size.min_ns,
        codec.encode_drop.min_ns
    );
    eprintln!(
        "bench_gate: codec ok — wire_size {} ns is {wire_ratio:.2}× encode-and-drop \
         ({} ns), pooled framed encode {} ns, bound {wire_factor}× (minima)",
        codec.wire_size.min_ns, codec.encode_drop.min_ns, codec.encode_pooled.min_ns
    );

    // The checksum row folds the 64-bit action fold to 32 bits so the
    // flat-JSON f64 round-trip stays exact.
    let pump_checksum = (pump_w0_sum ^ (pump_w0_sum >> 32)) as u32;
    let json = format!(
        "{{\n  \"schema\": {BENCH_SCHEMA},\n  \"pass_ns_400\": {},\n  \"pass_ns_10k\": {},\n  \
         \"pass_ns_100k_sharded\": {},\n  \"pass_ns_100k_actor\": {},\n  \
         \"scale_shards\": {SCALE_SHARDS},\n  \
         \"grant_ns_1m_queue\": {},\n  \"admit_ns_1m_queue\": {},\n  \
         \"admission_batch_shed_60s\": {},\n  \
         \"wire_size_ns\": {},\n  \"encode_ns_pooled\": {},\n  \
         \"db_write_latency_ms_400\": {:.3},\n  \"db_queue_depth_peak_400\": {},\n  \
         \"inbox_sojourn_ms_sat500\": {:.6},\n  \"deferred_turns_sat500\": {},\n  \
         \"semester_events_400\": {},\n  \"semester_wall_ms_400\": {:.3},\n  \
         \"pump_storm_wall_ms_400_w0\": {:.3},\n  \"pump_storm_wall_ms_400_w4\": {:.3},\n  \
         \"pump_checksum_400\": {}\n}}\n",
        p400.median_ns,
        p10k.median_ns,
        p100k.median_ns,
        pactor.median_ns,
        market.grant_ns,
        market.admit_ns,
        adm.batch_shed,
        codec.wire_size.median_ns,
        codec.encode_pooled.median_ns,
        knee.measured_latency_ms,
        knee.peak_queue_depth,
        sat.inbox_sojourn_ms_mean,
        sat.deferred_turns,
        sem.events,
        sem.wall_ms,
        pump_w0_ms,
        pump_w4_ms,
        pump_checksum
    );
    let target = write_baseline.clone().unwrap_or_else(|| out_path.clone());
    std::fs::write(&target, &json).unwrap_or_else(|e| panic!("write {target}: {e}"));
    println!("{json}");

    if write_baseline.is_some() {
        eprintln!("bench_gate: baseline re-recorded at {target}; no gate applied");
        return;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: no baseline at {baseline_path} ({e}); failing");
            std::process::exit(1);
        }
    };
    // Hard schema gate: comparing rows across schema versions gates
    // renamed or re-scoped numbers against each other — refuse outright.
    if let Err(e) = check_baseline_schema(&baseline, BENCH_SCHEMA) {
        eprintln!("bench_gate: {baseline_path}: {e}");
        std::process::exit(1);
    }
    let factor = env_factor("BENCH_GATE_FACTOR", 2.0);
    let mut failed = false;
    for (key, measured) in [
        ("pass_ns_400", p400.median_ns as f64),
        ("pass_ns_10k", p10k.median_ns as f64),
        ("pass_ns_100k_sharded", p100k.median_ns as f64),
        ("pass_ns_100k_actor", pactor.median_ns as f64),
        ("grant_ns_1m_queue", market.grant_ns as f64),
        ("admit_ns_1m_queue", market.admit_ns as f64),
        ("wire_size_ns", codec.wire_size.median_ns as f64),
        ("encode_ns_pooled", codec.encode_pooled.median_ns as f64),
        ("semester_wall_ms_400", sem.wall_ms),
        ("pump_storm_wall_ms_400_w0", pump_w0_ms),
        ("pump_storm_wall_ms_400_w4", pump_w4_ms),
    ] {
        let Some(base) = json_f64(&baseline, key) else {
            eprintln!("bench_gate: baseline missing {key}; failing");
            failed = true;
            continue;
        };
        let ratio = measured / base;
        // Signed delta so a passing run still shows drift direction at a
        // glance (negative = faster than baseline).
        let delta = (ratio - 1.0) * 100.0;
        let verdict = if ratio > factor { "REGRESSED" } else { "ok" };
        eprintln!(
            "bench_gate: {key}: {measured:.0} vs baseline {base:.0} \
             ({ratio:.2}×, {delta:+.1}%) {verdict}"
        );
        if ratio > factor {
            failed = true;
        }
    }
    // Simulated and deterministic: any drift — up or down — is a
    // behavioural change in the backpressure path that must be
    // re-recorded deliberately, so these rows match the baseline to a 1%
    // epsilon (absorbing the baseline's decimal rounding), not the
    // wall-clock headroom factor.
    for (key, measured) in [
        ("inbox_sojourn_ms_sat500", sat.inbox_sojourn_ms_mean),
        ("deferred_turns_sat500", sat.deferred_turns as f64),
        ("admission_batch_shed_60s", adm.batch_shed as f64),
        ("semester_events_400", sem.events as f64),
        ("pump_checksum_400", f64::from(pump_checksum)),
    ] {
        let Some(base) = json_f64(&baseline, key) else {
            eprintln!("bench_gate: baseline missing {key}; failing");
            failed = true;
            continue;
        };
        let tol = (base.abs() * 0.01).max(1e-5);
        let delta = measured - base;
        let drifted = delta.abs() > tol;
        let verdict = if drifted { "DRIFTED" } else { "ok" };
        eprintln!(
            "bench_gate: {key}: {measured:.6} vs baseline {base:.6} \
             (deterministic, {delta:+.6}) {verdict}"
        );
        if drifted {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench_gate: FAIL — latency regressed more than {factor}× over {baseline_path}");
        std::process::exit(1);
    }
    eprintln!("bench_gate: PASS");
}
