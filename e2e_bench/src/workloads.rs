//! The benchmark's workloads: seeded generators of the injections each run
//! feeds the platform, plus the pinned platform configuration.
//!
//! The platform receives only what these generators produce: a trace of
//! training jobs and interactive sessions, and (on `provider_churn`) a
//! stream of provider interruptions on the volunteer hosts.

use gpunion_baselines::CampusShape;
use gpunion_core::{campus_shape, PlatformConfig};
use gpunion_des::{RngPool, SimDuration, SimTime};
use gpunion_gpu::{paper_testbed, GpuModel, ServerSpec};
use gpunion_workload::{
    diurnal_multiplier, fig3_job_set, generate, paper_campus_labs, ChurnModel, InterruptionEvent,
    LabId, LabProfile, ModelClass, Request, TraceConfig, TraceEvent,
};

/// The job-wait tail percentile reported on every workload: the highest
/// of p90/p99/p99.9 with at least ten samples beyond it at every
/// workload's size (about 130 started jobs on `provider_churn`, 700 on
/// `fleet_scale`, 1000 on `campus_trace`).
pub const TAIL_QUANTILE: f64 = 0.90;

/// The workload seed used when none is given; figures quoted from the
/// benchmark are measured at this seed.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning: later changes use it only to confirm a claim
/// already shown at other seeds.
pub const HELD_OUT_SEED: u64 = 20_251_117;

/// `campus_trace` horizon: two weeks of the Fig. 2 campus. One week
/// leaves `backbone_ckpt_pct` spread 15 % of its median across seeds.
const CAMPUS_DAYS: u64 = 14;
/// `provider_churn` horizon and churn rate (the top of the paper's
/// 0.5–3.2 interruptions/day/volunteer sweep).
const CHURN_DAYS: u64 = 14;
const CHURN_EVENTS_PER_DAY: f64 = 3.2;
/// `fleet_scale` size: single-GPU workstations, simulated window, and the
/// target share of the fleet's GPUs the generated demand keeps busy.
/// Sized below the DB write-queue knee (~600 nodes), where sessions start
/// to be abandoned behind the coordinator's write backlog.
const FLEET_NODES: usize = 320;
const FLEET_HOURS: u64 = 4;
const FLEET_LOAD: f64 = 0.7;
/// Hosts per lab on the scaled fleet.
const FLEET_LAB_HOSTS: usize = 20;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 2 campus under its generated 4-lab trace, no churn.
    CampusTrace,
    /// The Fig. 3 volunteer setup at the top of the churn sweep.
    ProviderChurn,
    /// Hundreds of workstations sharing the campus backbone.
    FleetScale,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CampusTrace,
        Workload::ProviderChurn,
        Workload::FleetScale,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusTrace => "campus_trace",
            Workload::ProviderChurn => "provider_churn",
            Workload::FleetScale => "fleet_scale",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the workload's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::CampusTrace => campus_trace(seed, CAMPUS_DAYS),
            Workload::ProviderChurn => provider_churn(seed, CHURN_DAYS, CHURN_EVENTS_PER_DAY),
            Workload::FleetScale => fleet_scale(seed, FLEET_NODES, FLEET_HOURS),
        }
    }
}

/// Everything one run feeds the platform.
pub struct Inputs {
    /// Platform configuration, thread and shard settings pinned.
    pub config: PlatformConfig,
    /// The servers to deploy (CPU-only specs are skipped by deploy).
    pub specs: Vec<ServerSpec>,
    /// Requests, submitted with their index as the tag.
    pub trace: Vec<TraceEvent>,
    /// Provider interruptions; `node_index` indexes `volunteers`.
    pub interruptions: Vec<InterruptionEvent>,
    /// GPU-host index (in deploy order) of each churning volunteer.
    pub volunteers: Vec<usize>,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Campus shape for the manual-coordination baseline model, on the
    /// workloads that compare against it.
    pub baseline: Option<CampusShape>,
}

impl Inputs {
    /// End of the simulated window.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.horizon
    }
}

/// The measured configuration: the platform defaults with every thread and
/// shard knob pinned, so an exported `GPUNION_PUMP_THREADS` or
/// `GPUNION_WORKER_THREADS` cannot change what is measured.
pub fn pinned_config(seed: u64, heartbeat: Option<SimDuration>) -> PlatformConfig {
    let mut config = PlatformConfig {
        seed,
        pump_workers: 0,
        ..Default::default()
    };
    config.coordinator.worker_threads = 0;
    config.coordinator.shard_count = 1;
    if let Some(period) = heartbeat {
        config.coordinator.heartbeat_period = period;
    }
    config
}

/// One line naming the resolved thread, shard and heartbeat settings.
pub fn describe_config(config: &PlatformConfig) -> String {
    format!(
        "pump_workers={} worker_threads={} shard_count={} heartbeat_s={} threads_used=1",
        config.pump_workers,
        config.coordinator.worker_threads,
        config.coordinator.shard_count,
        config.coordinator.heartbeat_period.as_secs_f64(),
    )
}

/// The Fig. 2 campus: the 11-server testbed under `days` of the generated
/// campus trace, 30 s heartbeats, and the manual-coordination baseline on
/// the same trace. At `days = 7 × weeks` this is `run_fig2(weeks, seed)`.
pub fn campus_trace(seed: u64, days: u64) -> Inputs {
    let specs = paper_testbed();
    let horizon = SimDuration::from_days(days);
    let cfg = TraceConfig {
        horizon,
        ..Default::default()
    };
    let trace = generate(&paper_campus_labs(), &cfg, &RngPool::new(seed));
    Inputs {
        config: pinned_config(seed, Some(SimDuration::from_secs(30))),
        baseline: Some(campus_shape(&specs)),
        specs,
        trace,
        interruptions: Vec::new(),
        volunteers: Vec::new(),
        horizon,
    }
}

/// The Fig. 3 setup: 4 workstations, the Fig. 3 job mix cycled at ~90 %
/// occupancy, and 2 churning volunteers at `events_per_day`, default 5 s
/// heartbeats. At `(7, 1.5)` this is `run_fig3(7, 1.5, seed)`.
pub fn provider_churn(seed: u64, days: u64, events_per_day: f64) -> Inputs {
    let specs: Vec<ServerSpec> = (0..4)
        .map(|i| ServerSpec::workstation(format!("vol-{i}"), GpuModel::Rtx3090))
        .collect();
    let jobs = fig3_job_set();
    let jobs_total = (days * 9).max(1) as usize;
    let spacing = (days * 86_400).saturating_sub(40_000) / jobs_total as u64;
    let trace = (0..jobs_total)
        .map(|i| TraceEvent {
            at: SimTime::from_secs(60 + i as u64 * spacing),
            lab: LabId(0),
            request: Request::Training(jobs[i % jobs.len()].clone()),
        })
        .collect();
    let horizon = SimDuration::from_days(days);
    let churn = ChurnModel {
        events_per_day,
        ..Default::default()
    };
    Inputs {
        config: pinned_config(seed, None),
        specs,
        trace,
        interruptions: churn.generate(2, horizon, &RngPool::new(seed ^ 0xF16)),
        volunteers: vec![0, 1],
        horizon,
        baseline: None,
    }
}

/// `nodes` single-GPU workstations on the star campus, 30 s heartbeats,
/// over the first `hours` of a Monday. Demand is the generated campus
/// trace over labs of [`FLEET_LAB_HOSTS`] hosts each, scaled so the
/// arriving GPU-hours offer [`FLEET_LOAD`] of the fleet's capacity, with
/// one-hour median jobs so work both starts and finishes in the window.
pub fn fleet_scale(seed: u64, nodes: usize, hours: u64) -> Inputs {
    let specs: Vec<ServerSpec> = (0..nodes)
        .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
        .collect();
    let horizon = SimDuration::from_secs(hours * 3600);
    let cfg = TraceConfig {
        horizon,
        mean_job_hours: 1.0,
        ..Default::default()
    };
    // `generate` calibrates a lab's `mean_gpu_demand` against the week's
    // mean demand multiplier (0.824 diurnal × 0.857 weekly ≈ 0.706); the
    // window sees only its own hours, so rescale by the ratio of the two
    // to offer the target load.
    let window_mean = (0..hours * 60)
        .map(|m| diurnal_multiplier(m as f64 / 60.0))
        .sum::<f64>()
        / (hours * 60) as f64;
    let scale = 0.706 / window_mean;
    let labs_n = nodes.div_ceil(FLEET_LAB_HOSTS);
    let labs: Vec<LabProfile> = (0..labs_n)
        .map(|l| {
            let owned: Vec<usize> =
                (l * FLEET_LAB_HOSTS..((l + 1) * FLEET_LAB_HOSTS).min(nodes)).collect();
            let hosts = owned.len() as f64;
            LabProfile {
                name: format!("lab-{l}"),
                mean_gpu_demand: FLEET_LOAD * hosts * scale,
                // The paper campus's rate: ~1.5 sessions per GPU per day.
                interactive_per_day: 1.5 * hosts * scale,
                owned_hosts: owned,
                // Only classes that fit one 24 GB RTX 3090.
                model_mix: vec![
                    (ModelClass::CnnSmall, 0.4),
                    (ModelClass::CnnLarge, 0.3),
                    (ModelClass::TransformerSmall, 0.2),
                    (ModelClass::TransformerLarge, 0.1),
                ],
            }
        })
        .collect();
    let trace = generate(&labs, &cfg, &RngPool::new(seed));
    Inputs {
        config: pinned_config(seed, Some(SimDuration::from_secs(30))),
        specs,
        trace,
        interruptions: Vec::new(),
        volunteers: Vec::new(),
        horizon,
        baseline: None,
    }
}
