//! # gpunion-scheduler — the central coordinator
//!
//! The coordination hub of §3.2 as a single-owner actor: node
//! [`directory::Directory`] fed by registrations and heartbeats, allocation
//! [`strategy::Strategy`]s over the database-resident pending queue,
//! heartbeat-loss failure detection (three missed beats), displacement +
//! checkpoint-restore migration, and migrate-back when providers return.
//! All mutating traffic enters through the coordinator's bounded inbox of
//! typed [`coordinator::CoordEnvelope`]s and is processed one actor turn at
//! a time inside [`coordinator::Coordinator::advance`] — with every
//! decision paying the emergent sojourn time of its own write through the
//! database actor's bounded queue, the contention that bounds scalability
//! (§5.2). When that queue is at bound, the coordinator defers its own
//! turns instead of over-filling it: critical writes are delayed, never
//! dropped.

pub mod coordinator;
pub mod directory;
pub mod strategy;

pub use coordinator::{
    AdmissionConfig, CoordAction, CoordEnvelope, Coordinator, CoordinatorConfig, CoordinatorStats,
    JobEvent, PlacementMode, SendOutcome,
};
pub use directory::{Directory, NodeEntry, NodeLiveness, Reliability, ShardedDirectory};
pub use strategy::{Selector, Strategy};

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_des::{SimDuration, SimTime};
    use gpunion_gpu::GpuModel;
    use gpunion_protocol::{
        Control, DispatchSpec, ExecMode, GpuStat, JobId, Message, NodeUid, UserId, Work,
        WorkloadState, WorkloadStatus,
    };

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn spec() -> DispatchSpec {
        DispatchSpec {
            job: JobId(0),
            image_repo: "pytorch/pytorch".into(),
            image_tag: "2.3".into(),
            image_digest: [1; 32],
            gpus: 1,
            gpu_mem_bytes: 8 << 30,
            min_cc: None,
            mode: ExecMode::Batch {
                entrypoint: vec!["python".into()],
            },
            checkpoint_interval_secs: 600,
            storage_nodes: vec![],
            state_bytes_hint: 1 << 30,
            restore_from_seq: None,
            priority: 1,
            user: UserId::SYSTEM,
        }
    }

    /// Enqueue a pre-authenticated message and run the actor's turn at
    /// `now`. Due timers at or before `now` fire in the same call — the
    /// actor merges envelopes and timer wakes in time order.
    fn msg(coord: &mut Coordinator, now: SimTime, m: Message) -> Vec<CoordAction> {
        coord.send(now, CoordEnvelope::Msg(Box::new(m)));
        advance(coord, now)
    }

    /// Run the actor's turns at `now` and collect their actions.
    fn advance(coord: &mut Coordinator, now: SimTime) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        coord.advance(now, &mut actions);
        actions
    }

    /// Enqueue a job submission and run its turn; returns the assigned id
    /// (handed out at admission) and the turn's actions.
    fn submit(
        coord: &mut Coordinator,
        now: SimTime,
        spec: DispatchSpec,
    ) -> (JobId, Vec<CoordAction>) {
        let outcome = coord.send(now, CoordEnvelope::SubmitJob(Box::new(spec)));
        let SendOutcome::Enqueued { job: Some(job) } = outcome else {
            panic!("job submissions are never shed: {outcome:?}");
        };
        (job, advance(coord, now))
    }

    fn register(coord: &mut Coordinator, now: SimTime, machine: &str) -> NodeUid {
        let actions = msg(
            coord,
            now,
            Control::Register {
                machine_id: machine.into(),
                hostname: machine.into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        actions
            .iter()
            .find_map(|a| match a {
                CoordAction::Send {
                    msg: Message::Control(Control::RegisterAck { node, .. }),
                    ..
                } => Some(*node),
                _ => None,
            })
            .expect("ack")
    }

    fn heartbeat(
        coord: &mut Coordinator,
        now: SimTime,
        node: NodeUid,
        seq: u64,
    ) -> Vec<CoordAction> {
        let stats = vec![GpuStat {
            memory_used: 0,
            memory_total: 24 << 30,
            utilization: 0.0,
            temperature_c: 30.0,
            power_w: 25.0,
        }];
        msg(
            coord,
            now,
            Control::Heartbeat {
                node,
                seq,
                accepting: true,
                gpu_stats: stats,
                workloads: vec![],
            }
            .into(),
        )
    }

    /// Drain all coordinator wakes up to `until`.
    fn drive(coord: &mut Coordinator, until: SimTime) -> Vec<CoordAction> {
        let mut out = Vec::new();
        while let Some(at) = coord.next_wake() {
            if at > until {
                break;
            }
            coord.advance(at, &mut out);
        }
        out
    }

    fn find_dispatch(actions: &[CoordAction]) -> Option<(NodeUid, JobId)> {
        actions.iter().find_map(|a| match a {
            CoordAction::Send {
                to,
                msg: Message::Work(Work::Dispatch { spec }),
                ..
            } => Some((*to, spec.job)),
            _ => None,
        })
    }

    fn all_dispatches(actions: &[CoordAction]) -> Vec<(NodeUid, JobId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::Dispatch { spec }),
                    ..
                } => Some((*to, spec.job)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn submit_dispatch_accept_cycle() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        let (job, actions) = submit(&mut coord, t(3), spec());
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Queued,
                ..
            }
        )));
        // The pass fires shortly after.
        let actions = drive(&mut coord, t(4));
        let (to, j) = find_dispatch(&actions).expect("dispatch");
        assert_eq!(to, node);
        assert_eq!(j, job);
        // Accept.
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        assert_eq!(coord.job_node(job), Some(node));
        // The allocation row lands once its write's service completes.
        drive(&mut coord, t(6));
        assert!(coord.db().allocation(job).is_some());
    }

    #[test]
    fn rejection_retries_on_other_node() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (first, _) = find_dispatch(&actions).expect("dispatch");
        let actions = msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: false,
                reason: "busy".into(),
            }
            .into(),
        );
        assert!(
            find_dispatch(&actions).is_none(),
            "pass is re-armed, not inline"
        );
        let actions = drive(&mut coord, t(6));
        let (second, _) = find_dispatch(&actions).expect("second dispatch");
        assert_ne!(first, second, "rejected node excluded");
        let _ = (n1, n2);
    }

    #[test]
    fn heartbeat_loss_displaces_jobs() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Stay alive until t=400 (the actor fires sweeps in time order, so
        // the checkpoint must land before the node goes stale).
        for (i, s) in (7..=400).step_by(5).enumerate() {
            heartbeat(&mut coord, t(s), node, 2 + i as u64);
        }
        // Record a checkpoint so the requeue can restore.
        msg(
            &mut coord,
            t(400),
            Work::CheckpointDone {
                job,
                seq: 3,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        // No heartbeats after t=397 ⇒ sweep marks it lost (timeout = 3 × 5 s).
        let actions = drive(&mut coord, t(430));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                CoordAction::JobEvent {
                    event: JobEvent::Requeued {
                        restore_seq: Some(3)
                    },
                    ..
                }
            )),
            "job requeued with checkpoint restore"
        );
        assert_eq!(coord.job_node(job), None);
    }

    #[test]
    fn graceful_departure_then_offline_migrates() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (target, _) = find_dispatch(&actions).expect("dispatch");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Provider announces graceful departure; checkpoint lands; node
        // goes silent.
        msg(
            &mut coord,
            t(10),
            Control::DepartureNotice {
                node: target,
                mode: gpunion_protocol::DepartureMode::Graceful { grace_secs: 120 },
            }
            .into(),
        );
        msg(
            &mut coord,
            t(15),
            Work::CheckpointDone {
                job,
                seq: 1,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        // Keep the survivor alive while the departed node goes stale; the
        // sweeps (and the re-dispatch they trigger) fire during these
        // turns, so collect everything.
        let other = if target == n1 { n2 } else { n1 };
        let mut actions = Vec::new();
        for (i, s) in (20..60).step_by(5).enumerate() {
            actions.extend(heartbeat(&mut coord, t(s), other, 2 + i as u64));
        }
        actions.extend(drive(&mut coord, t(60)));
        // The job must have been requeued with restore and re-dispatched to
        // the other node.
        let dispatches = all_dispatches(&actions);
        assert!(
            dispatches.iter().any(|(to, j)| *to == other && *j == job),
            "dispatches: {dispatches:?}"
        );
    }

    #[test]
    fn kill_switch_update_requeues() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let actions = msg(
            &mut coord,
            t(50),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Killed,
                    progress: 0.2,
                    checkpoint_seq: 0,
                },
                exit_code: Some(137),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Requeued { restore_seq: None },
                ..
            }
        )));
    }

    #[test]
    fn completion_cleans_up() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        drive(&mut coord, t(4));
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let actions = msg(
            &mut coord,
            t(100),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Completed,
                    progress: 1.0,
                    checkpoint_seq: 2,
                },
                exit_code: Some(0),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::Completed,
                ..
            }
        )));
        assert_eq!(coord.stats().live_jobs, 0);
        // The completion write is fire-and-forget; let it apply.
        drive(&mut coord, t(101));
        assert_eq!(
            coord.db().job(job).unwrap().state,
            gpunion_db::JobState::Completed
        );
    }

    #[test]
    fn migrate_back_on_provider_return() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (home, _) = find_dispatch(&actions).expect("dispatch");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Home node dies; job migrates to the other node.
        coord.send(t(10), CoordEnvelope::NodeDeparture(home));
        let mut actions = advance(&mut coord, t(10));
        let other = if home == n1 { n2 } else { n1 };
        actions.extend(heartbeat(&mut coord, t(11), other, 2));
        actions.extend(drive(&mut coord, t(12)));
        let (second, _) = find_dispatch(&actions).expect("re-dispatch");
        assert_eq!(second, other);
        msg(
            &mut coord,
            t(13),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Keep the surviving node heartbeating while time passes (sweep
        // timers fire inside these turns, as in a real event loop).
        let mut hb_seq = 3u64;
        for s in (15..300).step_by(5) {
            heartbeat(&mut coord, t(s), other, hb_seq);
            hb_seq += 1;
        }
        // Home provider returns within the window.
        let actions = msg(
            &mut coord,
            t(300),
            Control::Register {
                machine_id: if home == n1 {
                    "m-1".into()
                } else {
                    "m-2".into()
                },
                hostname: "back".into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        // Coordinator orders a checkpoint on the current host.
        assert!(
            actions.iter().any(|a| matches!(
                a,
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::CheckpointRequest { job: j }),
                    ..
                } if *to == other && *j == job
            )),
            "checkpoint request for migrate-back"
        );
        // Let the registration's scheduling pass fire (nothing pending yet).
        drive(&mut coord, t(305));
        // Checkpoint lands → preempt on current node.
        let actions = msg(
            &mut coord,
            t(310),
            Work::CheckpointDone {
                job,
                seq: 5,
                transfer_bytes: 1 << 20,
                stored_on: vec![],
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Work(Work::Kill { .. }),
                ..
            }
        )));
        // Kill lands → requeue → dispatched home with restore.
        msg(
            &mut coord,
            t(311),
            Work::WorkloadUpdate {
                status: WorkloadStatus {
                    job,
                    state: WorkloadState::Killed,
                    progress: 0.4,
                    checkpoint_seq: 5,
                },
                exit_code: Some(137),
            }
            .into(),
        );
        let mut actions = heartbeat(&mut coord, t(312), home, 1);
        actions.extend(heartbeat(&mut coord, t(312), other, hb_seq));
        actions.extend(drive(&mut coord, t(315)));
        let dispatch_spec = actions.iter().find_map(|a| match a {
            CoordAction::Send {
                to,
                msg: Message::Work(Work::Dispatch { spec }),
                ..
            } if *to == home => Some(spec.clone()),
            _ => None,
        });
        let s = dispatch_spec.expect("dispatched back home");
        assert_eq!(s.restore_from_seq, Some(5));
        // Accepting yields the MigratedBack event.
        let actions = msg(
            &mut coord,
            t(316),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::JobEvent {
                event: JobEvent::MigratedBack { .. },
                ..
            }
        )));
    }

    #[test]
    fn invalid_token_rejected() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let node = register(&mut coord, t(1), "m-1");
        let env = gpunion_protocol::Envelope::new(
            gpunion_protocol::AuthToken([0xBB; 16]),
            Control::Heartbeat {
                node,
                seq: 1,
                accepting: true,
                gpu_stats: vec![],
                workloads: vec![],
            }
            .into(),
        );
        coord.send(t(2), CoordEnvelope::Net(Box::new(env)));
        let actions = advance(&mut coord, t(2));
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Control(Control::Error { code: 401, .. }),
                ..
            }
        )));
    }

    #[test]
    fn offer_timeout_excludes_silent_node() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        // Both heartbeat continuously so neither is marked lost.
        let (job, _) = submit(&mut coord, t(3), spec());
        let mut first = None;
        let mut second = None;
        for s in 2..40u64 {
            let hb = s - 1;
            let mut actions = heartbeat(&mut coord, t(s), n1, hb);
            actions.extend(heartbeat(&mut coord, t(s), n2, hb));
            for a in actions {
                if let CoordAction::Send {
                    to,
                    msg: Message::Work(Work::Dispatch { .. }),
                    ..
                } = a
                {
                    if first.is_none() {
                        first = Some(to);
                    } else if second.is_none() {
                        second = Some(to);
                    }
                }
            }
        }
        // First offer never answered → timeout (10 s) → second offer to the
        // other node.
        let (f, s) = (first.expect("first"), second.expect("second after timeout"));
        assert_ne!(f, s);
        let _ = job;
    }

    /// Write latency is emergent from queue depth: a registration storm
    /// of 400 nodes leaves a far deeper write backlog than 10 nodes, so
    /// the next transaction waits proportionally longer.
    #[test]
    fn decision_latency_grows_with_node_count() {
        let mut small = Coordinator::new(CoordinatorConfig::default(), 1);
        for i in 0..10 {
            register(&mut small, t(1), &format!("s-{i}"));
        }
        let mut big = Coordinator::new(CoordinatorConfig::default(), 1);
        for i in 0..400 {
            register(&mut big, t(1), &format!("b-{i}"));
        }
        assert!(big.db_write_latency(t(1)) > small.db_write_latency(t(1)) * 4);
        assert!(big.db_actor().depth() > small.db_actor().depth());
    }

    #[test]
    fn cancel_pending_and_running_jobs() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), n1, 1);
        // Pending cancel (same instant: the pass a submission arms fires a
        // write-latency later, so the job is still queued).
        let (j1, _) = submit(&mut coord, t(3), spec());
        coord.send(t(3), CoordEnvelope::CancelJob(j1));
        let actions = advance(&mut coord, t(3));
        assert!(actions.is_empty(), "pending job cancels without messages");
        // Running cancel.
        let (j2, _) = submit(&mut coord, t(5), spec());
        drive(&mut coord, t(6));
        msg(
            &mut coord,
            t(7),
            Work::DispatchReply {
                job: j2,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        coord.send(t(8), CoordEnvelope::CancelJob(j2));
        let actions = advance(&mut coord, t(8));
        assert!(actions.iter().any(|a| matches!(
            a,
            CoordAction::Send {
                msg: Message::Work(Work::Kill {
                    reason: gpunion_protocol::KillReason::UserCancel,
                    ..
                }),
                ..
            }
        )));
    }

    /// The migrate-back fast path must claim the returning node before the
    /// general drain hands its slot to an earlier queue position.
    #[test]
    fn migrate_back_fast_path_beats_queue_order() {
        // 16 GB jobs: one per 24 GB node, so the home slot is contended.
        let big_spec = || DispatchSpec {
            gpu_mem_bytes: 16 << 30,
            ..spec()
        };
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        // Fill both nodes.
        let (job_a, _) = submit(&mut coord, t(3), big_spec());
        drive(&mut coord, t(4));
        let home = coord
            .directory()
            .iter()
            .find(|e| e.has_reservation(job_a))
            .map(|e| e.uid)
            .expect("offered somewhere");
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job: job_a,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        let other = if home == n1 { n2 } else { n1 };
        let (job_b, _) = submit(&mut coord, t(6), big_spec());
        drive(&mut coord, t(7));
        msg(
            &mut coord,
            t(8),
            Work::DispatchReply {
                job: job_b,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Heartbeats report both nodes fully used; a backlog job queues
        // ahead of everything.
        let full = GpuStat {
            memory_used: 24 << 30,
            memory_total: 24 << 30,
            utilization: 1.0,
            temperature_c: 70.0,
            power_w: 300.0,
        };
        msg(
            &mut coord,
            t(9),
            Control::Heartbeat {
                node: home,
                seq: 2,
                accepting: true,
                gpu_stats: vec![full],
                workloads: vec![],
            }
            .into(),
        );
        msg(
            &mut coord,
            t(9),
            Control::Heartbeat {
                node: other,
                seq: 2,
                accepting: true,
                gpu_stats: vec![full],
                workloads: vec![],
            }
            .into(),
        );
        let (backlog, _) = submit(&mut coord, t(10), big_spec());
        drive(&mut coord, t(11));
        // Home dies: job_a displaced, queued BEHIND the backlog job.
        coord.send(t(12), CoordEnvelope::NodeDeparture(home));
        advance(&mut coord, t(12));
        // Let the requeue write apply (both nodes are full, so the armed
        // pass places nothing).
        drive(&mut coord, t(13));
        assert_eq!(
            coord.db().pending_in_order(),
            vec![backlog, job_a],
            "displaced job re-queues behind the backlog"
        );
        // Home returns fresh: the fast path must place job_a there even
        // though the backlog job is first in dispatch order.
        let machine = if home == n1 { "m-1" } else { "m-2" };
        let mut actions = msg(
            &mut coord,
            t(20),
            Control::Register {
                machine_id: machine.into(),
                hostname: "back".into(),
                gpus: vec![GpuModel::Rtx3090.into()],
                agent_version: 1,
            }
            .into(),
        );
        actions.extend(heartbeat(&mut coord, t(21), home, 1));
        actions.extend(drive(&mut coord, t(22)));
        let dispatches = all_dispatches(&actions);
        assert_eq!(
            dispatches,
            vec![(home, job_a)],
            "displaced job goes home; backlog job must not steal the slot"
        );
    }

    /// Rejections accumulated before a displacement are a stale epoch: the
    /// node that once refused the job (e.g. while full) must be offerable
    /// again after the job is displaced.
    #[test]
    fn displacement_resets_rejection_exclusions() {
        let mut coord = Coordinator::new(CoordinatorConfig::default(), 1);
        let n1 = register(&mut coord, t(1), "m-1");
        let n2 = register(&mut coord, t(1), "m-2");
        heartbeat(&mut coord, t(2), n1, 1);
        heartbeat(&mut coord, t(2), n2, 1);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        let (first, _) = find_dispatch(&actions).expect("dispatch");
        // First target rejects; retry lands on the second node.
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job,
                accepted: false,
                reason: "busy".into(),
            }
            .into(),
        );
        let actions = drive(&mut coord, t(6));
        let (second, _) = find_dispatch(&actions).expect("second dispatch");
        assert_ne!(first, second);
        msg(
            &mut coord,
            t(7),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // The hosting node dies; the once-rejecting node is the only one
        // left and must be offered the displaced job.
        coord.send(t(10), CoordEnvelope::NodeDeparture(second));
        let mut actions = advance(&mut coord, t(10));
        actions.extend(heartbeat(&mut coord, t(11), first, 2));
        actions.extend(drive(&mut coord, t(12)));
        let (target, j) = find_dispatch(&actions).expect("re-dispatch after displacement");
        assert_eq!((target, j), (first, job), "stale exclusion was cleared");
    }

    // ---- actor-turn invariants ------------------------------------------

    /// Heartbeats are shed at the coordinator inbox bound; critical
    /// envelopes are always admitted (and counted when over the bound).
    #[test]
    fn inbox_sheds_heartbeats_but_never_critical_envelopes() {
        let mut coord = Coordinator::new(
            CoordinatorConfig {
                inbox_capacity: 2,
                ..Default::default()
            },
            1,
        );
        let hb = |n: u64, s: u64| {
            Box::new(
                Control::Heartbeat {
                    node: NodeUid(n),
                    seq: s,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )
        };
        assert!(matches!(
            coord.send(t(1), CoordEnvelope::Msg(hb(1, 1))),
            SendOutcome::Enqueued { .. }
        ));
        assert!(matches!(
            coord.send(t(1), CoordEnvelope::Msg(hb(2, 1))),
            SendOutcome::Enqueued { .. }
        ));
        assert_eq!(
            coord.send(t(1), CoordEnvelope::Msg(hb(3, 1))),
            SendOutcome::Shed,
            "heartbeat past the bound is shed"
        );
        assert_eq!(coord.stats().shed_envelopes, 1);
        // A job submission is critical: admitted past the bound, counted.
        let outcome = coord.send(t(1), CoordEnvelope::SubmitJob(Box::new(spec())));
        assert!(matches!(outcome, SendOutcome::Enqueued { job: Some(_) }));
        assert_eq!(coord.stats().over_bound_envelopes, 1);
        assert_eq!(coord.stats().inbox_depth, 3);
        // Draining empties the inbox; the submission survived.
        advance(&mut coord, t(1));
        assert_eq!(coord.stats().inbox_depth, 0);
        assert_eq!(coord.stats().live_jobs, 1);
    }

    /// With the database write queue at bound, the coordinator defers its
    /// turns instead of over-filling: every critical write is delayed,
    /// never dropped, and the stall is visible as inbox sojourn.
    #[test]
    fn deferred_turns_never_drop_critical_writes() {
        let mut config = CoordinatorConfig::default();
        config.db.inbox_capacity = 4; // tiny bound: stalls are immediate
        let mut coord = Coordinator::new(config, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        // A burst of submissions: 4 writes fill the queue; the rest of the
        // envelopes must wait for completions.
        let mut jobs = Vec::new();
        for _ in 0..16 {
            let SendOutcome::Enqueued { job: Some(j) } =
                coord.send(t(3), CoordEnvelope::SubmitJob(Box::new(spec())))
            else {
                panic!("critical envelopes are never shed");
            };
            jobs.push(j);
        }
        advance(&mut coord, t(3));
        assert!(
            coord.stats().inbox_depth > 0,
            "the burst cannot be admitted in one turn against a 4-deep queue"
        );
        assert!(coord.stats().deferred_turns > 0, "stalls were recorded");
        // Let the world run: completions free slots, deferred turns retry.
        drive(&mut coord, t(3600));
        assert_eq!(
            coord.stats().inbox_depth,
            0,
            "every envelope eventually ran"
        );
        // No submission was lost: every job is tracked (pending, offered,
        // or placed) and every SubmitJob write applied.
        assert_eq!(coord.stats().live_jobs, 16);
        for j in &jobs {
            assert!(coord.db().job(*j).is_some(), "job {j:?} row exists");
        }
        // The write queue never ran away past its bound by more than the
        // handful of writes one turn commits.
        assert!(
            coord.db_actor().depth_peak() <= 4 + 2,
            "depth peak {} breaches the bound + one turn's writes",
            coord.db_actor().depth_peak()
        );
        assert!(
            coord.stats().inbox_sojourn.max().unwrap_or(0.0) > 0.0,
            "backpressure must be visible as inbox sojourn"
        );
    }

    /// A heartbeat that would revive an Offline node is critical, not
    /// status traffic: at the coordinator inbox bound it must be admitted
    /// (ordinary heartbeats shed), or an overloaded coordinator could
    /// keep a returned provider dead indefinitely.
    #[test]
    fn reviving_heartbeats_are_not_shed_at_the_inbox_bound() {
        let mut coord = Coordinator::new(
            CoordinatorConfig {
                inbox_capacity: 1,
                ..Default::default()
            },
            1,
        );
        let node = register(&mut coord, t(1), "m-1");
        coord.send(t(2), CoordEnvelope::NodeDeparture(node));
        advance(&mut coord, t(2));
        // Fill the inbox to its bound with a critical envelope.
        coord.send(t(3), CoordEnvelope::SubmitJob(Box::new(spec())));
        assert_eq!(coord.stats().inbox_depth, 1);
        let hb = |n: NodeUid, s: u64| {
            Box::new(
                Control::Heartbeat {
                    node: n,
                    seq: s,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )
        };
        // An ordinary heartbeat (node is fine... here: unknown uid 99)
        // sheds at the bound.
        assert_eq!(
            coord.send(t(3), CoordEnvelope::Msg(hb(NodeUid(99), 1))),
            SendOutcome::Shed
        );
        // The Offline node's reviving heartbeat is admitted past it.
        assert!(matches!(
            coord.send(t(3), CoordEnvelope::Msg(hb(node, 2))),
            SendOutcome::Enqueued { .. }
        ));
        drive(&mut coord, t(4));
        assert_eq!(
            coord.directory().get(node).map(|e| e.liveness()),
            Some(NodeLiveness::Active),
            "the revival landed despite the saturated inbox"
        );
    }

    /// A heartbeat that revives an Offline node submits a critical state
    /// flip, so unlike ordinary (sheddable-status) heartbeats it must
    /// defer at the database bound rather than bypass the backpressure.
    #[test]
    fn reviving_heartbeats_defer_like_critical_envelopes() {
        let mut config = CoordinatorConfig::default();
        config.db.inbox_capacity = 1;
        let mut coord = Coordinator::new(config, 1);
        let node = register(&mut coord, t(1), "m-1");
        drive(&mut coord, t(2)); // settle the registration write
                                 // Node loss marks it Offline; the SetNodeState(Unavailable) write
                                 // fills the 1-deep queue.
        coord.send(t(3), CoordEnvelope::NodeDeparture(node));
        advance(&mut coord, t(3));
        assert!(coord.db_actor().would_block());
        let over_before = coord.db_actor().over_bound_writes();
        coord.send(
            t(3),
            CoordEnvelope::Msg(Box::new(
                Control::Heartbeat {
                    node,
                    seq: 9,
                    accepting: true,
                    gpu_stats: vec![],
                    workloads: vec![],
                }
                .into(),
            )),
        );
        let actions = advance(&mut coord, t(3));
        assert!(actions.is_empty(), "reviving turn deferred, no ack yet");
        assert_eq!(coord.stats().inbox_depth, 1, "heartbeat waits at the head");
        assert!(coord.stats().deferred_turns > 0);
        // Once the queue drains, the turn runs and the node revives. The
        // turn was admitted against a free slot; its own status write may
        // fill that slot before the critical flip (the documented
        // one-turn slack on a 1-deep queue), but the turn itself never
        // started against a full queue.
        drive(&mut coord, t(4));
        assert_eq!(coord.stats().inbox_depth, 0);
        assert!(coord.db_actor().over_bound_writes() <= over_before + 1);
        assert_eq!(
            coord.directory().get(node).map(|e| e.liveness()),
            Some(NodeLiveness::Active)
        );
    }

    /// Placements (push `Dispatch` or pull `WorkGrant`) in an action
    /// stream, normalized to `(node, job)` so the two modes compare.
    fn all_placements(actions: &[CoordAction]) -> Vec<(NodeUid, JobId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::Dispatch { spec } | Work::WorkGrant { spec, .. }),
                    ..
                } => Some((*to, spec.job)),
                _ => None,
            })
            .collect()
    }

    /// Put a standing, generously-shaped offer on the book for `node`.
    fn offer_all(coord: &mut Coordinator, now: SimTime, node: NodeUid) {
        msg(
            coord,
            now,
            Work::WorkRequest {
                node,
                free_slices: vec![gpunion_protocol::FreeSlice {
                    count: 8,
                    mem_bytes: 24 << 30,
                    cc_major: 8,
                    cc_minor: 6,
                }],
                deadline_ms: 1_000_000_000,
            }
            .into(),
        );
    }

    #[test]
    fn pull_mode_grants_offered_capacity_and_falls_back() {
        let cfg = CoordinatorConfig {
            placement_mode: PlacementMode::Pull,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(cfg, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        // No offer on the book: pull mode falls back to the capacity
        // index and sends a plain push-style Dispatch.
        let (job_a, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                CoordAction::Send {
                    msg: Message::Work(Work::Dispatch { .. }),
                    ..
                }
            )),
            "no live offer: fallback is a plain Dispatch"
        );
        msg(
            &mut coord,
            t(5),
            Work::DispatchReply {
                job: job_a,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // With a live offer, the next placement is a WorkGrant lease.
        offer_all(&mut coord, t(6), node);
        let (job_b, _) = submit(&mut coord, t(7), spec());
        let actions = drive(&mut coord, t(8));
        let grant = actions.iter().find_map(|a| match a {
            CoordAction::Send {
                to,
                msg: Message::Work(Work::WorkGrant { spec, lease_ms }),
                ..
            } => Some((*to, spec.job, *lease_ms)),
            _ => None,
        });
        let (to, granted, lease_ms) = grant.expect("offer answered with a grant");
        assert_eq!(to, node);
        assert_eq!(granted, job_b);
        assert!(lease_ms > 0, "lease carries a validity window");
        assert_eq!(coord.stats().grants_sent, 1);
        assert_eq!(coord.stats().live_offers, 1, "offers are standing");
    }

    #[test]
    fn stale_offer_expires_with_a_nack() {
        let cfg = CoordinatorConfig {
            placement_mode: PlacementMode::Pull,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(cfg, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        // A short-deadline offer, then silence past its validity window.
        let actions = msg(
            &mut coord,
            t(3),
            Work::WorkRequest {
                node,
                free_slices: vec![gpunion_protocol::FreeSlice {
                    count: 1,
                    mem_bytes: 24 << 30,
                    cc_major: 8,
                    cc_minor: 6,
                }],
                deadline_ms: 500,
            }
            .into(),
        );
        assert!(all_placements(&actions).is_empty());
        assert_eq!(coord.stats().live_offers, 1);
        let mut actions = heartbeat(&mut coord, t(6), node, 2); // keep the node alive
        actions.extend(drive(&mut coord, t(12)));
        let nack = actions.iter().find_map(|a| match a {
            CoordAction::Send {
                msg:
                    Message::Work(Work::GrantNack {
                        node,
                        retry_after_ms,
                    }),
                ..
            } => Some((*node, *retry_after_ms)),
            _ => None,
        });
        let (nacked, retry_after_ms) = nack.expect("expired offer is nacked");
        assert_eq!(nacked, node);
        assert!(retry_after_ms > 0, "nack carries a retry hint");
        assert_eq!(coord.stats().live_offers, 0);
        assert_eq!(coord.stats().nacks_sent, 1);
    }

    /// A heartbeat whose workload report includes `job` running on `node`
    /// — the renewal signal for a pull-mode grant lease.
    fn heartbeat_with_workload(
        coord: &mut Coordinator,
        now: SimTime,
        node: NodeUid,
        seq: u64,
        job: JobId,
    ) -> Vec<CoordAction> {
        let stats = vec![GpuStat {
            memory_used: 8 << 30,
            memory_total: 24 << 30,
            utilization: 0.9,
            temperature_c: 60.0,
            power_w: 250.0,
        }];
        msg(
            coord,
            now,
            Control::Heartbeat {
                node,
                seq,
                accepting: true,
                gpu_stats: stats,
                workloads: vec![WorkloadStatus {
                    job,
                    state: WorkloadState::Running,
                    progress: 0.1,
                    checkpoint_seq: 0,
                }],
            }
            .into(),
        )
    }

    #[test]
    fn grant_lease_expires_when_heartbeats_omit_the_workload() {
        let cfg = CoordinatorConfig {
            placement_mode: PlacementMode::Pull,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(cfg, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        offer_all(&mut coord, t(2), node);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        assert_eq!(all_placements(&actions), vec![(node, job)]);
        msg(
            &mut coord,
            t(4),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // The node stays alive but its heartbeats never report the
        // workload (the run died silently): the lease lapses unrenewed
        // and the first sweep past expiry revokes the grant.
        let mut actions = heartbeat(&mut coord, t(6), node, 2);
        actions.extend(heartbeat(&mut coord, t(11), node, 3));
        actions.extend(drive(&mut coord, t(16)));
        assert_eq!(coord.stats().lease_revocations, 1);
        assert!(
            actions.iter().any(|a| matches!(a,
                CoordAction::Send {
                    to,
                    msg: Message::Work(Work::Kill {
                        job: j,
                        reason: gpunion_protocol::KillReason::SchedulerPreempt,
                    }),
                    ..
                } if *to == node && *j == job)),
            "revocation tells the node to kill the zombie run"
        );
        assert!(
            actions.iter().any(|a| matches!(a,
                CoordAction::JobEvent {
                    job: j,
                    event: JobEvent::Requeued { .. },
                } if *j == job)),
            "the revoked job requeues for another placement"
        );
    }

    #[test]
    fn workload_heartbeats_renew_the_grant_lease() {
        let cfg = CoordinatorConfig {
            placement_mode: PlacementMode::Pull,
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(cfg, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        offer_all(&mut coord, t(2), node);
        let (job, _) = submit(&mut coord, t(3), spec());
        let actions = drive(&mut coord, t(4));
        assert_eq!(all_placements(&actions), vec![(node, job)]);
        msg(
            &mut coord,
            t(4),
            Work::DispatchReply {
                job,
                accepted: true,
                reason: String::new(),
            }
            .into(),
        );
        // Heartbeats keep reporting the workload: every beat pushes the
        // lease out past the next sweep, so the grant is never revoked.
        heartbeat_with_workload(&mut coord, t(6), node, 2, job);
        heartbeat_with_workload(&mut coord, t(11), node, 3, job);
        heartbeat_with_workload(&mut coord, t(16), node, 4, job);
        drive(&mut coord, t(18));
        assert_eq!(coord.stats().lease_revocations, 0);
        assert_eq!(coord.stats().live_jobs, 1, "the run is still placed");
    }

    #[test]
    fn admission_sheds_non_critical_but_never_critical() {
        let cfg = CoordinatorConfig {
            admission: Some(AdmissionConfig {
                burst: 2,
                rate_per_sec: 1,
                critical_priority: 3,
            }),
            ..CoordinatorConfig::default()
        };
        let mut coord = Coordinator::new(cfg, 1);
        let node = register(&mut coord, t(1), "m-1");
        heartbeat(&mut coord, t(2), node, 1);
        // ρ > 1: five batch submissions in one instant against a bucket
        // that holds two.
        let mut admitted = 0;
        let mut shed = 0;
        for _ in 0..5 {
            match coord.send(t(3), CoordEnvelope::SubmitJob(Box::new(spec()))) {
                SendOutcome::Enqueued { job: Some(_) } => admitted += 1,
                SendOutcome::Shed => shed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(admitted, 2, "burst capacity admits exactly two");
        assert_eq!(shed, 3, "the overload past the burst is shed");
        // Critical (interactive-priority) submissions bypass the bucket
        // even though it is empty: criticals are never dropped.
        for _ in 0..4 {
            let outcome = coord.send(
                t(3),
                CoordEnvelope::SubmitJob(Box::new(DispatchSpec {
                    priority: 3,
                    ..spec()
                })),
            );
            assert!(
                matches!(outcome, SendOutcome::Enqueued { job: Some(_) }),
                "critical submissions are never shed: {outcome:?}"
            );
        }
        assert_eq!(coord.stats().admission_shed_jobs, 3);
        // A second later one token has refilled: one more batch job fits.
        assert!(matches!(
            coord.send(t(4), CoordEnvelope::SubmitJob(Box::new(spec()))),
            SendOutcome::Enqueued { job: Some(_) }
        ));
        assert!(matches!(
            coord.send(t(4), CoordEnvelope::SubmitJob(Box::new(spec()))),
            SendOutcome::Shed
        ));
    }

    /// Build the op stream for the drive-equivalence proptest: a mixed
    /// sequence of registrations, heartbeats, submissions, replies, kills,
    /// cancels, and departures at non-decreasing integer times — including
    /// same-instant batches, and including instants where a (drifted)
    /// sweep timer is due, so the timer-first tie rule is exercised.
    fn turn_events(ops: &[(u8, u64, u64)]) -> Vec<(SimTime, CoordEnvelope)> {
        let mut now = 1u64;
        let mut out = Vec::new();
        for &(op, a, b) in ops {
            // 0–3 s steps; same-instant batches when the step is 0.
            now += b % 4;
            if now % 5 == 0 {
                now += 1;
            }
            let at = t(now);
            let env = match op % 7 {
                0 => CoordEnvelope::Msg(Box::new(
                    Control::Register {
                        machine_id: format!("m-{}", a % 8),
                        hostname: format!("h-{}", a % 8),
                        gpus: vec![GpuModel::Rtx3090.into()],
                        agent_version: 1,
                    }
                    .into(),
                )),
                1 => CoordEnvelope::Msg(Box::new(
                    Control::Heartbeat {
                        node: NodeUid(a % 10),
                        seq: b,
                        accepting: b % 5 != 0,
                        gpu_stats: vec![GpuStat {
                            memory_used: (b % 24) << 30,
                            memory_total: 24 << 30,
                            utilization: 0.5,
                            temperature_c: 50.0,
                            power_w: 200.0,
                        }],
                        workloads: vec![],
                    }
                    .into(),
                )),
                2 => CoordEnvelope::SubmitJob(Box::new(DispatchSpec {
                    gpu_mem_bytes: (1 + b % 20) << 30,
                    ..spec()
                })),
                3 => CoordEnvelope::Msg(Box::new(
                    Work::DispatchReply {
                        job: JobId(1 + b % 24),
                        accepted: a % 2 == 0,
                        reason: String::new(),
                    }
                    .into(),
                )),
                4 => CoordEnvelope::Msg(Box::new(
                    Work::WorkloadUpdate {
                        status: WorkloadStatus {
                            job: JobId(1 + b % 24),
                            state: if a % 3 == 0 {
                                WorkloadState::Killed
                            } else {
                                WorkloadState::Completed
                            },
                            progress: 0.5,
                            checkpoint_seq: b % 3,
                        },
                        exit_code: None,
                    }
                    .into(),
                )),
                5 => CoordEnvelope::CancelJob(JobId(1 + b % 24)),
                _ => CoordEnvelope::NodeDeparture(NodeUid(a % 10)),
            };
            out.push((at, env));
        }
        out
    }

    proptest::proptest! {
        /// Driving the actor one envelope per `advance` (the pre-refactor
        /// call-sequence cadence: handle a message, then run due wakes)
        /// and batching all same-instant envelopes into a single `advance`
        /// must produce IDENTICAL decisions — the action stream, job
        /// bookkeeping, and database state cannot depend on how senders
        /// group their sends. This is the actor-turn invariant the §3b
        /// refactor relies on.
        #[test]
        fn prop_envelope_batching_is_turn_equivalent(
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0u64..32), 1..60),
        ) {
            let mut one_by_one = Coordinator::new(CoordinatorConfig::default(), 9);
            let mut batched = Coordinator::new(CoordinatorConfig::default(), 9);
            let mut log_a = Vec::new();
            let mut log_b = Vec::new();

            // Style A: send + advance per envelope.
            let mut horizon = SimTime::ZERO;
            for (at, env) in turn_events(&ops) {
                one_by_one.send(at, env);
                one_by_one.advance(at, &mut log_a);
                horizon = at;
            }
            // Style B: batch every same-instant group, one advance each.
            let mut it = turn_events(&ops).into_iter().peekable();
            while let Some((at, env)) = it.next() {
                batched.send(at, env);
                while it.peek().map(|(bt, _)| *bt == at).unwrap_or(false) {
                    let (bt, env) = it.next().expect("just peeked");
                    batched.send(bt, env);
                }
                batched.advance(at, &mut log_b);
            }
            // Settle both worlds identically (in-flight writes, passes,
            // offer timeouts) before comparing.
            let end = horizon + SimDuration::from_secs(60);
            log_a.extend(drive(&mut one_by_one, end));
            log_b.extend(drive(&mut batched, end));

            proptest::prop_assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
            proptest::prop_assert_eq!(
                one_by_one.db().pending_in_order(),
                batched.db().pending_in_order()
            );
            proptest::prop_assert_eq!(one_by_one.stats().live_jobs, batched.stats().live_jobs);
        }

        /// Directory sharding is pure mechanism: a coordinator with a
        /// sharded directory must make IDENTICAL decisions to the
        /// single-shard one on any envelope stream — action log, pending
        /// queue, and job bookkeeping all bit-equal. (The directory-level
        /// proptest proves the merged views match; this proves nothing at
        /// the coordinator layer — timers, passes, migrate-back affinity
        /// routing — leaks the shard count either.)
        #[test]
        fn prop_shard_count_never_changes_decisions(
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0u64..32), 1..60),
            shards in 2usize..9,
        ) {
            let unsharded = CoordinatorConfig::default();
            let sharded_cfg = CoordinatorConfig {
                shard_count: shards,
                ..CoordinatorConfig::default()
            };
            let mut reference = Coordinator::new(unsharded, 9);
            let mut sharded = Coordinator::new(sharded_cfg, 9);
            let mut log_a = Vec::new();
            let mut log_b = Vec::new();
            let mut horizon = SimTime::ZERO;
            for (at, env) in turn_events(&ops) {
                reference.send(at, env);
                reference.advance(at, &mut log_a);
                horizon = at;
            }
            for (at, env) in turn_events(&ops) {
                sharded.send(at, env);
                sharded.advance(at, &mut log_b);
            }
            let end = horizon + SimDuration::from_secs(60);
            log_a.extend(drive(&mut reference, end));
            log_b.extend(drive(&mut sharded, end));

            proptest::prop_assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
            proptest::prop_assert_eq!(
                reference.db().pending_in_order(),
                sharded.db().pending_in_order()
            );
            proptest::prop_assert_eq!(reference.stats().live_jobs, sharded.stats().live_jobs);
            let uids = |c: &Coordinator| -> Vec<NodeUid> {
                c.directory().iter().map(|e| e.uid).collect()
            };
            proptest::prop_assert_eq!(uids(&reference), uids(&sharded));
        }

        /// Worker threads are pure mechanism too: running the directory's
        /// shard actors inline (`worker_threads = 0`), on one worker, or
        /// on four must produce bit-equal action logs, pending queues,
        /// job bookkeeping, and directory membership on any envelope
        /// stream. Every read quiesces at the join point before merging,
        /// so thread scheduling can change *when* a shard applies its
        /// inbox, never *what* the coordinator observes.
        #[test]
        fn prop_worker_threads_never_change_decisions(
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0u64..32), 1..60),
        ) {
            let worlds = [0usize, 1, 4].map(|workers| {
                let cfg = CoordinatorConfig {
                    shard_count: 5,
                    worker_threads: workers,
                    ..CoordinatorConfig::default()
                };
                let mut coord = Coordinator::new(cfg, 9);
                let mut log = Vec::new();
                let mut horizon = SimTime::ZERO;
                for (at, env) in turn_events(&ops) {
                    coord.send(at, env);
                    coord.advance(at, &mut log);
                    horizon = at;
                }
                log.extend(drive(&mut coord, horizon + SimDuration::from_secs(60)));
                (coord, log)
            });
            let [(inline, log_0), (one, log_1), (four, log_4)] = worlds;
            proptest::prop_assert_eq!(format!("{log_0:?}"), format!("{log_1:?}"));
            proptest::prop_assert_eq!(format!("{log_0:?}"), format!("{log_4:?}"));
            proptest::prop_assert_eq!(
                inline.db().pending_in_order(),
                one.db().pending_in_order()
            );
            proptest::prop_assert_eq!(
                inline.db().pending_in_order(),
                four.db().pending_in_order()
            );
            proptest::prop_assert_eq!(inline.stats().live_jobs, one.stats().live_jobs);
            proptest::prop_assert_eq!(inline.stats().live_jobs, four.stats().live_jobs);
            let uids = |c: &Coordinator| -> Vec<NodeUid> {
                c.directory().iter().map(|e| e.uid).collect()
            };
            proptest::prop_assert_eq!(uids(&inline), uids(&one));
            proptest::prop_assert_eq!(uids(&inline), uids(&four));
        }

        /// On a quiescent trace where EVERY live node holds a standing,
        /// generously-shaped offer, pull mode must reach the exact push
        /// fixpoint: the same `(node, job)` placement stream (grants in
        /// place of dispatches), the same job→node map, and the same
        /// pending queue. This is the marketplace's safety argument
        /// (DESIGN.md §3c): offers only mask nodes out of the selector,
        /// so a fully-offered fleet degenerates to push.
        #[test]
        fn prop_pull_reaches_push_fixpoint_when_all_nodes_offer(
            nodes in 1usize..6,
            jobs in proptest::collection::vec(1u64..20, 1..25),
        ) {
            let mk = |mode: PlacementMode| {
                let cfg = CoordinatorConfig {
                    placement_mode: mode,
                    // Long heartbeat period: nothing dies mid-trace.
                    heartbeat_period: SimDuration::from_secs(10_000),
                    ..CoordinatorConfig::default()
                };
                Coordinator::new(cfg, 1)
            };
            let mut push = mk(PlacementMode::Push);
            let mut pull = mk(PlacementMode::Pull);
            let mut uids = Vec::new();
            for i in 0..nodes {
                let a = register(&mut push, t(1), &format!("m-{i}"));
                let b = register(&mut pull, t(1), &format!("m-{i}"));
                proptest::prop_assert_eq!(a, b);
                uids.push(a);
            }
            for &n in &uids {
                heartbeat(&mut push, t(2), n, 1);
                heartbeat(&mut pull, t(2), n, 1);
                offer_all(&mut pull, t(2), n);
            }
            let mut ids = Vec::new();
            for (i, &mem_gb) in jobs.iter().enumerate() {
                let d = DispatchSpec { gpu_mem_bytes: mem_gb << 30, ..spec() };
                let at = t(3 + i as u64 % 2);
                let (ja, _) = submit(&mut push, at, d.clone());
                let (jb, _) = submit(&mut pull, at, d);
                proptest::prop_assert_eq!(ja, jb);
                ids.push(ja);
            }
            // Settle both worlds in lockstep rounds: drain wakes, compare
            // the normalized placement streams, accept every offer.
            let mut now = 6u64;
            for _round in 0..200 {
                let pa = all_placements(&drive(&mut push, t(now)));
                let pb = all_placements(&drive(&mut pull, t(now)));
                proptest::prop_assert_eq!(&pa, &pb, "placement streams diverged");
                if pa.is_empty() {
                    break;
                }
                now += 1;
                for &(_, job) in &pa {
                    let reply = || Work::DispatchReply {
                        job,
                        accepted: true,
                        reason: String::new(),
                    };
                    msg(&mut push, t(now), reply().into());
                    msg(&mut pull, t(now), reply().into());
                }
                now += 1;
            }
            proptest::prop_assert_eq!(push.stats().live_jobs, pull.stats().live_jobs);
            for &job in &ids {
                proptest::prop_assert_eq!(push.job_node(job), pull.job_node(job));
            }
            proptest::prop_assert_eq!(
                push.db().pending_in_order(),
                pull.db().pending_in_order()
            );
        }
    }
}
