//! Simulated-time outcomes of one run: the modelled end-to-end metrics,
//! the exact per-layer counters, the run's fingerprint and its
//! correctness checks. All of it repeats exactly at a given seed.

use crate::driver::Run;
use crate::workloads::Inputs;
use gpunion_baselines::Outcome;
use gpunion_core::{attribute_displacements, MigrationClassStats};
use gpunion_des::{SimDuration, SimTime};
use gpunion_scheduler::JobEvent;
use gpunion_simnet::TrafficClass;
use gpunion_telemetry::labels;
use gpunion_workload::Request;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Fig. 3's attribution window: a displacement within 10 min of an
/// interruption on that node belongs to it.
const ATTRIBUTION_WINDOW: SimDuration = SimDuration::from_mins(10);
/// Fig. 3's restart window: displacements this close to the horizon are
/// censored, neither restored nor failed.
const RESTART_WINDOW: SimDuration = SimDuration::from_mins(30);

/// Traffic classes reported per layer, with their metric suffixes.
pub const NET_CLASSES: [(TrafficClass, &str); 4] = [
    (TrafficClass::Control, "control"),
    (TrafficClass::Checkpoint, "checkpoint"),
    (TrafficClass::Migration, "migration"),
    (TrafficClass::ImagePull, "image_pull"),
];

/// Everything a run produced, in simulated terms.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// GPU-weighted mean utilization over the window, %.
    pub gpu_util_pct: f64,
    /// Sessions served and abandoned at their patience check.
    pub sessions_served: u64,
    /// See `sessions_served`.
    pub sessions_abandoned: u64,
    /// Queued→Started waits of training jobs that started, seconds, sorted.
    pub job_waits_s: Vec<f64>,
    /// Fig. 3 attribution: scheduled, emergency, temporary.
    pub classes: [MigrationClassStats; 3],
    /// Displacement→restart times of uncensored displacements, seconds.
    pub downtimes_s: Vec<f64>,
    /// Sustained checkpoint rate on the backbone, % of its capacity.
    pub backbone_ckpt_pct: f64,
    /// Requests submitted.
    pub requests: u64,
    /// Requests that failed: abandoned sessions, `Failed` jobs, and jobs
    /// displaced outside the restart window that never resumed.
    pub failed: u64,
    /// Exact per-layer counters.
    pub counters: Counters,
    /// Manual-coordination baseline: utilization %, sessions served.
    pub baseline: Option<(f64, u64)>,
    /// Correctness problems found in the outputs (empty when correct).
    pub problems: Vec<String>,
    /// FNV-1a fingerprint of the simulated outcomes.
    pub fingerprint: u64,
}

/// Exact counters read from the platform's public getters after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    /// Events fired in the window.
    pub des_events: u64,
    /// Control messages sent and dropped.
    pub net_messages: u64,
    /// See `net_messages`.
    pub net_dropped: u64,
    /// Bytes moved per class of [`NET_CLASSES`], campus-wide.
    pub net_bytes: [f64; 4],
    /// Coordinator envelopes taken from the inbox.
    pub sched_envelopes: u64,
    /// Scheduling decisions and their mean modelled latency, ms.
    pub sched_decisions: u64,
    /// See `sched_decisions`.
    pub sched_decision_ms_mean: f64,
    /// Inbox depth peak and the longest inbox sojourn, ms.
    pub sched_inbox_depth_peak: u64,
    /// See `sched_inbox_depth_peak`.
    pub sched_inbox_sojourn_ms_max: f64,
    /// Heartbeat envelopes shed at the inbox bound.
    pub sched_shed_envelopes: u64,
    /// Turns deferred on DB write-queue backpressure.
    pub sched_deferred_turns: u64,
    /// DB write queue: writes applied, depth peak, sojourn mean/max (ms),
    /// shed and over-bound writes.
    pub db_writes: u64,
    /// See `db_writes`.
    pub db_depth_peak: u64,
    /// See `db_writes`.
    pub db_sojourn_ms_mean: f64,
    /// See `db_writes`.
    pub db_sojourn_ms_max: f64,
    /// See `db_writes`.
    pub db_shed_writes: u64,
    /// See `db_writes`.
    pub db_over_bound_writes: u64,
    /// Heartbeats sent by all agents.
    pub agent_heartbeats: u64,
    /// Displacements (every requeue).
    pub agent_displacements: u64,
}

impl Outcomes {
    /// Read the outcomes of a finished run.
    pub fn measure(inputs: &Inputs, run: &mut Run, baseline: Option<&Outcome>) -> Outcomes {
        let end = run.end;
        let des_events = run.events_fired();
        let world = &mut run.world;
        let gpu_util_pct = world.mean_utilization(end) * 100.0;
        let stats = &world.stats;
        let mut problems = Vec::new();

        let mut job_waits_s = Vec::new();
        let mut failed_jobs: BTreeSet<u64> = BTreeSet::new();
        for (i, ev) in inputs.trace.iter().enumerate() {
            let Some(&job) = stats.tag_to_job.get(&(i as u64)) else {
                problems.push(format!("request {i} was never assigned a job"));
                continue;
            };
            let log = stats.job_log.get(&job).map(Vec::as_slice).unwrap_or(&[]);
            if let Err(p) = check_job_log(log) {
                problems.push(format!("job {job:?}: {p}"));
            }
            if log.iter().any(|(_, e)| *e == JobEvent::Failed) {
                failed_jobs.insert(i as u64);
            }
            if let Request::Training(_) = ev.request {
                let queued = log.iter().find(|(_, e)| *e == JobEvent::Queued);
                let started = log
                    .iter()
                    .find(|(_, e)| matches!(e, JobEvent::Started { .. }));
                if let (Some((q, _)), Some((s, _))) = (queued, started) {
                    job_waits_s.push(s.since(*q).as_secs_f64());
                }
            }
        }
        job_waits_s.sort_by(f64::total_cmp);

        let mut downtimes_s = Vec::new();
        for d in &stats.displacements {
            if end.since(d.at) <= RESTART_WINDOW {
                continue;
            }
            match d.restarted_at {
                Some(r) => downtimes_s.push(r.since(d.at).as_secs_f64()),
                None => {
                    if let Some(&tag) = stats.job_to_tag.get(&d.job) {
                        failed_jobs.insert(tag);
                    }
                }
            }
        }
        downtimes_s.sort_by(f64::total_cmp);
        let classes = attribute_displacements(
            &run.injected,
            stats,
            end,
            ATTRIBUTION_WINDOW,
            RESTART_WINDOW,
        );

        let sessions = inputs
            .trace
            .iter()
            .filter(|e| matches!(e.request, Request::Interactive(_)))
            .count() as u64;
        if stats.sessions_served + stats.sessions_abandoned > sessions {
            problems.push(format!(
                "{} sessions served + {} abandoned exceeds {sessions} submitted",
                stats.sessions_served, stats.sessions_abandoned
            ));
        }
        let completed = stats
            .job_log
            .values()
            .filter(|log| log.iter().any(|(_, e)| *e == JobEvent::Completed))
            .count() as u64;
        if completed != stats.jobs_completed {
            problems.push(format!(
                "jobs_completed {} but {completed} jobs logged Completed",
                stats.jobs_completed
            ));
        }
        // Abandoned sessions are cancelled, never `Failed`: no double count.
        let failed = stats.sessions_abandoned + failed_jobs.len() as u64;

        let backbone = world
            .backbone_link()
            .expect("the star campus has a backbone");
        let acct = world.net.accounting();
        let backbone_ckpt_pct = acct.link_class_mean_rate(backbone, TrafficClass::Checkpoint, end)
            / inputs.config.backbone.bytes_per_sec()
            * 100.0;

        let coord = world.coordinator.stats();
        let mut agent_heartbeats = 0u64;
        for &host in &run.hosts {
            let agent = world.agent(host).expect("deployed host has an agent");
            let hostname = agent.config().hostname.as_str();
            let beats = agent
                .metrics()
                .counter(
                    "agent_heartbeats_total",
                    "heartbeats sent",
                    labels([("node", hostname)]),
                )
                .map(|c| c.get())
                .unwrap_or(0.0);
            agent_heartbeats += beats as u64;
        }
        let counters = Counters {
            des_events,
            net_messages: world.net.messages_sent(),
            net_dropped: world.net.messages_dropped(),
            net_bytes: NET_CLASSES.map(|(c, _)| acct.class_total(c)),
            sched_envelopes: coord.inbox_sojourn.count(),
            sched_decisions: coord.decision_latency.count(),
            sched_decision_ms_mean: coord.decision_latency.mean().unwrap_or(0.0) * 1e3,
            sched_inbox_depth_peak: coord.inbox_depth_peak as u64,
            sched_inbox_sojourn_ms_max: coord.inbox_sojourn.max().unwrap_or(0.0) * 1e3,
            sched_shed_envelopes: coord.shed_envelopes,
            sched_deferred_turns: coord.deferred_turns,
            db_writes: coord.db_applied_writes,
            db_depth_peak: coord.db_depth_peak as u64,
            db_sojourn_ms_mean: coord.db_sojourn.mean().unwrap_or(0.0) * 1e3,
            db_sojourn_ms_max: coord.db_sojourn.max().unwrap_or(0.0) * 1e3,
            db_shed_writes: coord.db_shed_writes,
            db_over_bound_writes: coord.db_over_bound_writes,
            agent_heartbeats,
            agent_displacements: stats.displacements.len() as u64,
        };

        let mut fp = Fnv::default();
        // Infallible: `Fnv` never returns an error.
        let _ = write!(
            fp,
            "{:?}|{:?}|{}|{}|{}|{}",
            stats.job_log,
            stats.displacements,
            stats.sessions_served,
            stats.sessions_abandoned,
            counters.des_events,
            counters.net_messages,
        );
        Outcomes {
            gpu_util_pct,
            sessions_served: stats.sessions_served,
            sessions_abandoned: stats.sessions_abandoned,
            job_waits_s,
            classes,
            downtimes_s,
            backbone_ckpt_pct,
            requests: inputs.trace.len() as u64,
            failed,
            counters,
            baseline: baseline.map(|b| (b.mean_utilization * 100.0, b.sessions_served)),
            problems,
            fingerprint: fp.0,
        }
    }

    /// Served sessions over sessions whose patience check fell inside the
    /// window, %. `None` when the workload has no such session.
    pub fn sessions_served_pct(&self) -> Option<f64> {
        ratio_pct(
            self.sessions_served,
            self.sessions_served + self.sessions_abandoned,
        )
    }

    /// Median Queued→Started wait, seconds.
    pub fn job_wait_p50_s(&self) -> Option<f64> {
        quantile(&self.job_waits_s, 0.5)
    }

    /// The wait at quantile `q`, and whether at least ten samples lie
    /// beyond it.
    pub fn job_wait_tail_s(&self, q: f64) -> Option<(f64, bool)> {
        let n = self.job_waits_s.len();
        let beyond = n as f64 * (1.0 - q);
        quantile(&self.job_waits_s, q).map(|v| (v, beyond >= 10.0))
    }

    /// Scheduled-departure displacements restored from a checkpoint, %.
    pub fn sched_restore_pct(&self) -> Option<f64> {
        let c = &self.classes[0];
        ratio_pct(c.restored as u64, c.displacements as u64)
    }

    /// Temporary-unavailability displacements that went back home, %.
    pub fn migrate_back_pct(&self) -> Option<f64> {
        let c = &self.classes[2];
        ratio_pct(c.migrated_back as u64, c.displacements as u64)
    }

    /// Median displacement→restart time, seconds.
    pub fn downtime_p50_s(&self) -> Option<f64> {
        quantile(&self.downtimes_s, 0.5)
    }

    /// Mean last-checkpoint→displacement time over attributed
    /// displacements, seconds, as Fig. 3's scoring computes it.
    pub fn lost_work_s(&self) -> Option<f64> {
        let n: usize = self.classes.iter().map(|c| c.displacements).sum();
        let total: f64 = self
            .classes
            .iter()
            .map(|c| c.mean_lost_secs * c.displacements as f64)
            .sum();
        (n > 0).then(|| total / n as f64)
    }

    /// Failed over submitted requests, %.
    pub fn failed_pct(&self) -> f64 {
        ratio_pct(self.failed, self.requests).unwrap_or(0.0)
    }
}

/// A job's log must be well formed: queued first, started only after a
/// dispatch, nothing after a terminal event.
fn check_job_log(log: &[(SimTime, JobEvent)]) -> Result<(), String> {
    match log.first() {
        Some((_, JobEvent::Queued)) => {}
        other => return Err(format!("log starts with {other:?}, not Queued")),
    }
    let mut dispatched = false;
    let mut last = SimTime::ZERO;
    for (i, (t, e)) in log.iter().enumerate() {
        if *t < last {
            return Err(format!("event {i} at {t} goes back in time"));
        }
        last = *t;
        match e {
            JobEvent::Dispatched { .. } => dispatched = true,
            JobEvent::Started { .. } if !dispatched => {
                return Err(format!("event {i}: started without a dispatch"));
            }
            JobEvent::Completed | JobEvent::Failed if i + 1 != log.len() => {
                return Err(format!("event {i}: {e:?} is not the last event"));
            }
            _ => {}
        }
    }
    Ok(())
}

fn ratio_pct(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64 * 100.0)
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    Some(sorted[rank])
}

/// 64-bit FNV-1a over formatted text.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
