//! Drives one workload through the platform's public API: `Platform::deploy`,
//! `Platform::boot`, typed injections on the `PlatformSim`, then either
//! `Sim::run_until` (the measured run) or `Sim::step` under the tracer.

use crate::hostspeed::{timed, Timing};
use crate::workloads::Inputs;
use gpunion_baselines::{run_capacity_model, Outcome, PlatformPolicy};
use gpunion_core::{InjectedInterruption, Injection, Platform, PlatformEvent, PlatformSim};
use gpunion_des::{RngPool, SimDuration, SimTime};
use gpunion_simnet::NodeId;
use gpunion_workload::Request;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Equal slices of the horizon the measured run is timed in: one to a few
/// milliseconds of host time each, short beside the host's slow phases.
pub const SLICES: usize = 1024;

/// A deployed, booted platform with every injection scheduled.
pub struct Run {
    /// The simulator.
    pub sim: PlatformSim,
    /// The platform.
    pub world: Platform,
    /// GPU-host addresses in deploy order.
    pub hosts: Vec<NodeId>,
    /// The interruptions injected, for displacement attribution.
    pub injected: Vec<InjectedInterruption>,
    /// End of the simulated window.
    pub end: SimTime,
}

impl Run {
    /// Deploy, boot and schedule every injection of `inputs`, in the order
    /// `gpunion_core::Scenario` schedules them (boot, requests, then each
    /// interruption with its return), so same-instant ties break the same
    /// way as in the figure runners.
    ///
    /// With `horizon_marker`, a no-op event is scheduled first, one
    /// nanosecond past the horizon: `Sim` has no peek, so a caller stepping
    /// the simulation knows it has finished the window when a step returns
    /// a time past the end. Scheduled before everything else, the marker
    /// fires before any other event at its instant, and it shifts no
    /// relative event order.
    pub fn setup(inputs: &Inputs, horizon_marker: bool) -> Run {
        let end = inputs.end();
        let (mut world, hosts) = Platform::deploy(&inputs.config, &inputs.specs);
        let mut sim = PlatformSim::new();
        if horizon_marker {
            sim.schedule_at(end + SimDuration::from_nanos(1), |_, _| {});
        }
        Platform::boot(&mut world, &mut sim);
        for (i, ev) in inputs.trace.iter().enumerate() {
            let tag = i as u64;
            let injection = match &ev.request {
                Request::Training(spec) => Injection::Training {
                    tag,
                    spec: Box::new(spec.clone()),
                },
                Request::Interactive(spec) => Injection::InteractiveArrive {
                    tag,
                    spec: Box::new(spec.clone()),
                },
            };
            sim.schedule_typed_at(ev.at, PlatformEvent::Inject(injection));
        }
        let mut injected = Vec::with_capacity(inputs.interruptions.len());
        for ev in &inputs.interruptions {
            let Some(&host) = inputs.volunteers.get(ev.node_index).map(|&i| &hosts[i]) else {
                continue;
            };
            injected.push(InjectedInterruption {
                at: ev.at,
                host,
                kind: ev.kind,
                returns_at: ev.returns_at,
            });
            sim.schedule_typed_at(
                ev.at,
                PlatformEvent::Inject(Injection::Interrupt {
                    host,
                    kind: ev.kind,
                }),
            );
            sim.schedule_typed_at(
                ev.returns_at,
                PlatformEvent::Inject(Injection::ProviderReturn { host }),
            );
        }
        Run {
            sim,
            world,
            hosts,
            injected,
            end,
        }
    }

    /// Simulate the whole window (the measured, untraced path) as
    /// [`SLICES`] consecutive `run_until` calls, returning each slice's
    /// host time. Nothing is scheduled between the calls, so the slices
    /// fire exactly the events one `run_until(end)` would.
    pub fn run_sliced(&mut self) -> Vec<Timing> {
        let end = self.end.as_nanos();
        (1..=SLICES as u64)
            .map(|k| {
                let until = (u128::from(end) * u128::from(k) / SLICES as u128) as u64;
                timed(|| {
                    self.sim
                        .run_until(&mut self.world, SimTime::from_nanos(until))
                })
                .1
            })
            .collect()
    }

    /// Events fired inside the window (the horizon marker excluded).
    pub fn events_fired(&self) -> u64 {
        let marker = u64::from(self.sim.now() > self.end);
        self.sim.events_executed() - marker
    }
}

/// The manual-coordination "before" model on the workload's own trace, as
/// `run_fig2` runs it. `None` on workloads without a baseline.
pub fn run_baseline(inputs: &Inputs) -> Option<Outcome> {
    let shape = inputs.baseline.as_ref()?;
    Some(run_capacity_model(
        "manual",
        shape,
        &inputs.trace,
        &[],
        &[],
        &[],
        PlatformPolicy::manual(),
        inputs.horizon,
        &RngPool::new(inputs.config.seed),
    ))
}

/// Public counters that tell which layers did work during one step.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Moved {
    decisions: u64,
    db_writes: u64,
    envelopes: u64,
    messages: u64,
}

impl Moved {
    fn read(world: &Platform) -> Moved {
        let s = world.coordinator.stats();
        Moved {
            decisions: s.decision_latency.count(),
            db_writes: s.db_applied_writes,
            envelopes: s.inbox_sojourn.count(),
            messages: world.net.messages_sent(),
        }
    }
}

/// Layers a step's host time is attributed to, in report order.
pub const LAYERS: [&str; 5] = ["sched", "db", "coord", "net", "other"];

/// What a traced run measured.
pub struct Traced {
    /// Host time of the traced simulation (stepping plus probes).
    pub run: Duration,
    /// Steps taken inside the window (one typed event each).
    pub steps: u64,
    /// Median and 99th-percentile host time of one step, ns.
    pub step_ns_p50: f64,
    /// See `step_ns_p50`.
    pub step_ns_p99: f64,
    /// Host time attributed to each of [`LAYERS`], ns.
    pub layer_ns: [f64; 5],
    /// Median host time of a sampled `Network::next_event_at`, ns.
    pub net_next_event_ns: f64,
    /// Median host time of a sampled `Coordinator::next_wake`, ns.
    pub sched_next_wake_ns: f64,
    /// Pump, injection and boot events fired (exact, from
    /// `Sim::profile_events`).
    pub fired: [u64; 3],
}

/// Every how many steps the read-only probes are timed.
const PROBE_EVERY: u32 = 16;

/// Step the simulation through its window, timing each step and giving
/// its host time to the layers whose public counters moved during it
/// (split evenly when several moved; `other` when none did: agent timers,
/// flow progress, injections that changed nothing the counters see).
/// `run` must have been set up with the horizon marker.
pub fn run_traced(run: &mut Run) -> Traced {
    let start = Instant::now();
    run.sim.profile_events();
    let mut step_ns: Vec<u32> = Vec::new();
    let mut layer_ns = [0.0f64; 5];
    let mut net_probe: Vec<u32> = Vec::new();
    let mut sched_probe: Vec<u32> = Vec::new();
    let mut before = Moved::read(&run.world);
    let mut probe_in = PROBE_EVERY;
    loop {
        let t0 = Instant::now();
        let at = run.sim.step(&mut run.world);
        let dt = t0.elapsed();
        match at {
            Some(t) if t <= run.end => {}
            _ => break,
        }
        let ns = dt.as_nanos() as f64;
        step_ns.push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
        let after = Moved::read(&run.world);
        let moved = [
            after.decisions > before.decisions,
            after.db_writes > before.db_writes,
            after.envelopes > before.envelopes,
            after.messages > before.messages,
        ];
        let k = moved.iter().filter(|&&m| m).count();
        if k == 0 {
            layer_ns[4] += ns;
        } else {
            for (slot, _) in layer_ns.iter_mut().zip(moved).filter(|(_, m)| *m) {
                *slot += ns / k as f64;
            }
        }
        before = after;
        probe_in -= 1;
        if probe_in == 0 {
            probe_in = PROBE_EVERY;
            let t0 = Instant::now();
            black_box(run.world.net.next_event_at());
            net_probe.push(t0.elapsed().as_nanos() as u32);
            let t0 = Instant::now();
            black_box(run.world.coordinator.next_wake());
            sched_probe.push(t0.elapsed().as_nanos() as u32);
        }
    }
    let run_time = start.elapsed();
    let steps = step_ns.len() as u64;
    let mut fired = [0u64; 3];
    for (kind, n) in run.sim.fired_by_kind() {
        match kind {
            "pump" => fired[0] += n,
            "boot" => fired[2] += n,
            k if k.starts_with("inject") => fired[1] += n,
            _ => {}
        }
    }
    Traced {
        run: run_time,
        steps,
        step_ns_p50: quantile_u32(&mut step_ns, 0.5),
        step_ns_p99: quantile_u32(&mut step_ns, 0.99),
        layer_ns,
        net_next_event_ns: quantile_u32(&mut net_probe, 0.5),
        sched_next_wake_ns: quantile_u32(&mut sched_probe, 0.5),
        fired,
    }
}

/// Nearest-rank quantile of host-time samples (0 when there are none).
fn quantile_u32(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    *xs.select_nth_unstable(rank).1 as f64
}
