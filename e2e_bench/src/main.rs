//! `gpunion-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the named workload at one seed for up to `--seconds` of host
//! time (at least [`MIN_REPS`] times), checks that every repetition
//! produced the same simulated outcomes, and prints a report followed, as
//! the last line of standard output, by one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a
//! separate stepped and timed run.

use gpunion_e2e_bench::driver::{run_baseline, run_traced, Run, Traced, LAYERS};
use gpunion_e2e_bench::hostspeed::{timed, Timing, PROBE_REF_NS};
use gpunion_e2e_bench::outcomes::{Outcomes, NET_CLASSES};
use gpunion_e2e_bench::workloads::{
    describe_config, Workload, DEFAULT_SEED, HELD_OUT_SEED, TAIL_QUANTILE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Fewest repetitions per run, whatever `--seconds` says: medians need
/// three samples, and the determinism check needs a second run.
const MIN_REPS: usize = 3;
/// Set-ups timed per repetition: one set-up takes 0.1–1 ms, so many per
/// repetition give `setup_s` a steady median.
const SETUP_SAMPLES: usize = 20;

const USAGE: &str =
    "usage: gpunion-e2e-bench --workload <campus_trace|provider_churn|fleet_scale> \
     [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = s as f64;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One untraced repetition: generate, set up, simulate, read outcomes.
struct Rep {
    gen_s: f64,
    /// One sample per set-up; the last set-up is the one simulated.
    setup: Vec<Timing>,
    /// Host time of each slice of the simulated horizon.
    slices: Vec<Timing>,
    baseline: Timing,
    /// Peak heap during the repetition (set-ups, run and read-out).
    peak_heap_mb: f64,
    out: Outcomes,
}

impl Rep {
    /// Raw host seconds of the whole simulated horizon.
    fn sim_s(&self) -> f64 {
        self.slices.iter().map(|t| t.raw_s).sum()
    }
}

/// Scaled host seconds to simulate the horizon: each slice's median over
/// the repetitions of its time scaled to the reference core (see
/// `hostspeed`), summed. The median drops a slice that an interrupt or a
/// host preemption hit, which the probe beside it does not see.
fn scaled_sim_s(reps: &[Rep]) -> f64 {
    (0..reps[0].slices.len())
        .map(|i| {
            median(
                &reps
                    .iter()
                    .map(|r| r.slices[i].scaled_s)
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Raw host seconds of the horizon with every slice at its fastest over
/// the repetitions: the unscaled figure, printed for comparison.
fn fastest_sim_s(reps: &[Rep]) -> f64 {
    (0..reps[0].slices.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.slices[i].raw_s)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn untraced_rep(workload: Workload, seed: u64) -> Rep {
    take_peak_heap_mb();
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut gen_s = 0.0;
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        // Drop the previous set-up outside the timed region.
        drop(last.take());
        let (set_up, t) = timed(|| {
            let t0 = Instant::now();
            let inputs = workload.inputs(seed);
            gen_s = t0.elapsed().as_secs_f64();
            let run = Run::setup(&inputs, false);
            (inputs, run)
        });
        setup.push(t);
        last = Some(set_up);
    }
    let (inputs, mut run) = last.expect("SETUP_SAMPLES > 0");
    let slices = run.run_sliced();
    let (baseline_out, baseline) = timed(|| run_baseline(&inputs));
    let out = Outcomes::measure(&inputs, &mut run, baseline_out.as_ref());
    Rep {
        gen_s,
        setup,
        slices,
        baseline,
        peak_heap_mb: take_peak_heap_mb(),
        out,
    }
}

/// One traced repetition: the same inputs, stepped under the tracer.
fn traced_rep(workload: Workload, seed: u64) -> (Traced, Outcomes) {
    let inputs = workload.inputs(seed);
    let mut run = Run::setup(&inputs, true);
    let traced = run_traced(&mut run);
    let out = Outcomes::measure(&inputs, &mut run, None);
    (traced, out)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The system allocator, counting live and peak heap bytes: the
/// benchmark's memory figure, independent of the allocator's retained
/// pages and of the parent process (whose resident high-water mark
/// `getrusage` carries across `exec`).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap bytes since the last call, in MB, and restart the peak.
fn take_peak_heap_mb() -> f64 {
    let peak = PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    peak as f64 / 1e6
}

/// A metric as printed in the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        // `+ 0.0` turns a negative zero into a plain `0`.
        value: value + 0.0,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"))
}

/// The modelled outcomes beside the paper's numbers.
fn print_model_report(out: &Outcomes) {
    println!("modelled outcomes (simulated time; exact at a seed):");
    println!(
        "  {:<22} {:>12} {:>14} {:>12}",
        "metric", "value", "paper", "difference"
    );
    let row = |name: &str, v: Option<f64>, paper: Option<f64>, paper_txt: &str| {
        let diff = match (v, paper) {
            (Some(v), Some(p)) => format!("{:+.1}", v - p),
            _ => "-".to_string(),
        };
        println!(
            "  {:<22} {:>12} {:>14} {:>12}",
            name,
            fmt_opt(v),
            paper_txt,
            diff
        );
    };
    row(
        "gpu_util_pct",
        Some(out.gpu_util_pct),
        Some(67.0),
        "67 (34 before)",
    );
    if let Some((u, _)) = out.baseline {
        row("  manual before (%)", Some(u), Some(34.0), "34");
    }
    row("sessions_served_pct", out.sessions_served_pct(), None, "-");
    if let Some((_, manual)) = out.baseline {
        let gain = (manual > 0).then(|| (out.sessions_served as f64 / manual as f64 - 1.0) * 100.0);
        row("  sessions vs manual (%)", gain, Some(40.0), "+40");
    }
    let q = TAIL_QUANTILE;
    row("job_wait_p50_s", out.job_wait_p50_s(), None, "-");
    let tail = out.job_wait_tail_s(q);
    row(
        &format!("job_wait_tail_s (p{})", q * 100.0),
        tail.map(|t| t.0),
        None,
        "-",
    );
    row(
        "sched_restore_pct",
        out.sched_restore_pct(),
        Some(94.0),
        "94",
    );
    row("migrate_back_pct", out.migrate_back_pct(), Some(67.0), "67");
    row("downtime_p50_s", out.downtime_p50_s(), None, "-");
    row("lost_work_s", out.lost_work_s(), None, "-");
    row(
        "backbone_ckpt_pct",
        Some(out.backbone_ckpt_pct),
        Some(2.0),
        "< 2",
    );
    row("failed_pct", Some(out.failed_pct()), None, "-");
    let tail_ok = tail.is_some_and(|t| t.1);
    println!(
        "  samples: {} job waits ({} ten beyond the tail), {} sessions checked, \
         {} displacements ({} downtimes)",
        out.job_waits_s.len(),
        if tail_ok { "at least" } else { "fewer than" },
        out.sessions_served + out.sessions_abandoned,
        out.counters.agent_displacements,
        out.downtimes_s.len(),
    );
    println!(
        "  The paper's numbers come from its real deployment; the repository holds no \
         real-hardware reference, so beyond these few figures the model is unvalidated."
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let config = w.inputs(args.seed).config;
    println!(
        "workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "config: {} available_parallelism={}",
        describe_config(&config),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Traced, Outcomes)> = Vec::new();
    // Start another repetition only while one of the mean length still
    // ends inside `--seconds`, so a run takes `--seconds` and not up to a
    // repetition more.
    let fits = |done: usize| {
        let t = start.elapsed().as_secs_f64();
        t + t / done as f64 <= args.seconds
    };
    while reps.len() < MIN_REPS || fits(reps.len()) {
        reps.push(untraced_rep(w, args.seed));
        if args.trace {
            traced.push(traced_rep(w, args.seed));
        }
    }

    // Correctness: every repetition (traced ones too) must pass the checks
    // in `Outcomes::measure` and reproduce the first one's simulated
    // outcomes. A repetition that does not counts all of its requests as
    // failed. Requests the model itself fails (abandoned sessions, `Failed`
    // jobs) are simulated outcomes, reported as `failed_pct`, not failures
    // of the program.
    let first = &reps[0].out;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let all_outs = reps
        .iter()
        .map(|r| &r.out)
        .chain(traced.iter().map(|t| &t.1));
    for (i, out) in all_outs.enumerate() {
        attempted += out.requests;
        for p in &out.problems {
            println!("CHECK FAILED: repetition {i}: {p}");
        }
        let same = out.fingerprint == first.fingerprint;
        if !same {
            println!(
                "CHECK FAILED: repetition {i} fingerprint {:016x} != {:016x}",
                out.fingerprint, first.fingerprint
            );
        }
        if !same || !out.problems.is_empty() {
            correct = false;
            failed += out.requests;
        }
    }
    println!(
        "repetitions: {} untraced, {} traced; fingerprint {:016x}; {} requests per repetition, \
         {} failed by the model",
        reps.len(),
        traced.len(),
        first.fingerprint,
        first.requests,
        first.failed
    );
    print_model_report(first);

    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let samples = |xs: Vec<f64>| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "whole-run raw host seconds (simulation + baseline): {}",
        samples(col(|r| r.sim_s() + r.baseline.raw_s))
    );
    let setups = |f: fn(&Timing) -> f64| {
        reps.iter()
            .flat_map(|r| r.setup.iter().map(f))
            .collect::<Vec<_>>()
    };
    println!("setup_s samples: {}", samples(setups(|t| t.scaled_s)));
    let probes: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.slices.iter().map(|t| t.probe_ns))
        .collect();
    println!(
        "host-speed probe: median {:.4} ns/add (reference {PROBE_REF_NS}), so the core ran at \
         about {:.0} % of the reference",
        median(&probes),
        PROBE_REF_NS / median(&probes) * 100.0
    );
    // The baseline model is one unsliced piece: its median scaled time.
    let run_s = scaled_sim_s(&reps) + median(&col(|r| r.baseline.scaled_s));
    println!(
        "run_s {run_s:.4} scaled (raw: fastest slices {:.4}, median whole run {:.4})",
        fastest_sim_s(&reps)
            + col(|r| r.baseline.raw_s)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
        median(&col(|r| r.sim_s() + r.baseline.raw_s))
    );
    let metrics = if args.trace {
        per_layer_metrics(first, &traced, &reps)
    } else {
        end_to_end_metrics(
            first,
            run_s,
            median(&setups(|t| t.scaled_s)),
            median(&col(|r| r.peak_heap_mb)),
        )
    };
    for m in &metrics {
        if !m.value.is_finite() {
            println!("CHECK FAILED: metric {} is {}", m.name, m.value);
            correct = false;
        }
    }
    println!("metrics:");
    for m in &metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn end_to_end_metrics(out: &Outcomes, run_s: f64, setup_s: f64, peak_heap_mb: f64) -> Vec<Metric> {
    vec![
        metric("run_s", "s", run_s),
        metric("setup_s", "s", setup_s),
        metric("peak_heap_mb", "MB", peak_heap_mb),
        metric("gpu_util_pct", "%", out.gpu_util_pct),
        metric("backbone_ckpt_pct", "%", out.backbone_ckpt_pct),
    ]
}

fn per_layer_metrics(out: &Outcomes, traced: &[(Traced, Outcomes)], reps: &[Rep]) -> Vec<Metric> {
    let col = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let sim_s = scaled_sim_s(reps);
    let c = &out.counters;
    let t = |f: fn(&Traced) -> f64| median(&traced.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let [pump, inject, boot] = traced[0].0.fired;
    let mut m = vec![
        metric("des.events", "count", c.des_events as f64),
        metric("des.events.pump", "count", pump as f64),
        metric("des.events.inject", "count", inject as f64),
        metric("des.ns_per_event", "ns", sim_s * 1e9 / c.des_events as f64),
        metric("core.pump_calls", "count", (pump + inject + boot) as f64),
        metric("core.pump_ns_p50", "ns", t(|t| t.step_ns_p50)),
        metric("core.pump_ns_p99", "ns", t(|t| t.step_ns_p99)),
        metric("net.messages", "count", c.net_messages as f64),
        metric("net.dropped", "count", c.net_dropped as f64),
    ];
    for ((_, label), bytes) in NET_CLASSES.iter().zip(c.net_bytes) {
        m.push(metric(format!("net.bytes.{label}"), "B", bytes));
    }
    m.extend([
        metric("net.next_event_ns", "ns", t(|t| t.net_next_event_ns)),
        metric("sched.envelopes", "count", c.sched_envelopes as f64),
        metric("sched.decisions", "count", c.sched_decisions as f64),
        metric("sched.decision_ms_mean", "sim_ms", c.sched_decision_ms_mean),
        metric(
            "sched.inbox_depth_peak",
            "count",
            c.sched_inbox_depth_peak as f64,
        ),
        metric(
            "sched.inbox_sojourn_ms_max",
            "sim_ms",
            c.sched_inbox_sojourn_ms_max,
        ),
        metric(
            "sched.shed_envelopes",
            "count",
            c.sched_shed_envelopes as f64,
        ),
        metric(
            "sched.deferred_turns",
            "count",
            c.sched_deferred_turns as f64,
        ),
        metric("sched.next_wake_ns", "ns", t(|t| t.sched_next_wake_ns)),
        metric("db.writes", "count", c.db_writes as f64),
        metric("db.depth_peak", "count", c.db_depth_peak as f64),
        metric("db.sojourn_ms_mean", "sim_ms", c.db_sojourn_ms_mean),
        metric("db.sojourn_ms_max", "sim_ms", c.db_sojourn_ms_max),
        metric("db.shed_writes", "count", c.db_shed_writes as f64),
        metric(
            "db.over_bound_writes",
            "count",
            c.db_over_bound_writes as f64,
        ),
        metric("agent.heartbeats", "count", c.agent_heartbeats as f64),
        metric("agent.displacements", "count", c.agent_displacements as f64),
        metric("workload.requests", "count", out.requests as f64),
        metric("workload.gen_s", "s", col(|r| r.gen_s)),
        metric(
            "baselines.model_s",
            "s",
            if out.baseline.is_some() {
                col(|r| r.baseline.raw_s)
            } else {
                0.0
            },
        ),
        metric("baselines.util_pct", "%", out.baseline.map_or(0.0, |b| b.0)),
        // Both sides are medians of whole runs, excluding the baseline model.
        metric(
            "trace.overhead_s",
            "s",
            t(|t| t.run.as_secs_f64()) - col(Rep::sim_s),
        ),
    ]);
    for (i, layer) in LAYERS.iter().enumerate() {
        let share = median(
            &traced
                .iter()
                .map(|(t, _)| t.layer_ns[i] / t.layer_ns.iter().sum::<f64>() * 100.0)
                .collect::<Vec<_>>(),
        );
        m.push(metric(format!("trace.host_pct.{layer}"), "host_%", share));
    }
    m.extend([
        metric(
            "outcome.job_wait_p50_s",
            "sim_s",
            out.job_wait_p50_s().unwrap_or(0.0),
        ),
        metric(
            "outcome.job_wait_tail_s",
            "sim_s",
            out.job_wait_tail_s(TAIL_QUANTILE).map_or(0.0, |t| t.0),
        ),
        metric(
            "outcome.sessions_served_pct",
            "%",
            out.sessions_served_pct().unwrap_or(0.0),
        ),
        metric(
            "outcome.sched_restore_pct",
            "%",
            out.sched_restore_pct().unwrap_or(0.0),
        ),
        metric(
            "outcome.migrate_back_pct",
            "%",
            out.migrate_back_pct().unwrap_or(0.0),
        ),
        metric(
            "outcome.downtime_p50_s",
            "sim_s",
            out.downtime_p50_s().unwrap_or(0.0),
        ),
        metric(
            "outcome.lost_work_s",
            "sim_s",
            out.lost_work_s().unwrap_or(0.0),
        ),
        metric("outcome.failed_pct", "%", out.failed_pct()),
    ]);
    m
}
