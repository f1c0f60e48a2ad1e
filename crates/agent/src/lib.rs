//! # gpunion-agent — the provider agent
//!
//! "Each participating node runs a lightweight agent that implements the
//! provider supremacy model through local control mechanisms and real-time
//! monitoring" (§3.2). The agent here is a passive, event-driven state
//! machine:
//!
//! * [`Agent`] — registration, heartbeats with NVML-style telemetry,
//!   workload lifecycle (pull → verify → start → run → checkpoint →
//!   complete), application-level checkpointing, and the three provider
//!   powers: kill-switch, pause, and graceful/emergency departure.
//! * [`rest`] — the local HTTP control panel (`/kill-switch`, `/pause`,
//!   `/depart`, `/status`, `/metrics`).
//!
//! The agent returns [`Action`]s instead of touching the network, so the
//! identical logic drives both the simulated campus and real TCP sockets.

pub mod agent;
pub mod config;
pub mod rest;

pub use agent::{Action, Agent, AgentPhase, FlowPeer, FlowPurpose};
pub use config::{generate_machine_id, AgentConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use gpunion_container::standard_catalogue;
    use gpunion_des::SimTime;
    use gpunion_gpu::{GpuModel, GpuServer, ServerSpec};
    use gpunion_protocol::{
        AuthToken, Control, DepartureMode, DispatchSpec, ExecMode, HttpRequest, JobId, KillReason,
        Message, Method, NodeUid, UserId, Work, WorkloadState,
    };
    use gpunion_workload::{ModelClass, TrainingJobSpec, TrainingRun};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn new_agent() -> Agent {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = AgentConfig::new("ws-1", &mut rng);
        let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
        Agent::new(config, server)
    }

    fn registered_agent() -> (
        Agent,
        gpunion_container::ImageRegistry,
        Vec<gpunion_container::ImageRef>,
    ) {
        let (registry, refs) = standard_catalogue();
        let mut agent = new_agent();
        let actions = agent.start_registration(t(0));
        assert_eq!(actions.len(), 1);
        let ack = Control::RegisterAck {
            node: NodeUid(7),
            token: AuthToken([9; 16]),
            heartbeat_period_ms: 5_000,
        }
        .into();
        let actions = agent.handle_message(t(1), ack, &registry);
        assert!(matches!(
            actions[0],
            Action::Send(Message::Control(Control::Heartbeat { .. }))
        ));
        assert_eq!(agent.phase(), AgentPhase::Active);
        (agent, registry, refs)
    }

    fn dispatch_spec(refs: &[gpunion_container::ImageRef], job: u64) -> DispatchSpec {
        DispatchSpec {
            job: JobId(job),
            image_repo: refs[0].repository.clone(),
            image_tag: refs[0].tag.clone(),
            image_digest: refs[0].digest.0,
            gpus: 1,
            gpu_mem_bytes: 6 << 30,
            min_cc: None,
            mode: ExecMode::Batch {
                entrypoint: vec!["python".into(), "train.py".into()],
            },
            checkpoint_interval_secs: 600,
            storage_nodes: vec![],
            state_bytes_hint: 100 << 20,
            restore_from_seq: None,
            priority: 1,
            user: UserId::SYSTEM,
        }
    }

    /// Run an agent forward through its timers until `until`, collecting
    /// actions; completes pending verifications after each wake.
    fn drive(
        agent: &mut Agent,
        registry: &gpunion_container::ImageRegistry,
        until: SimTime,
    ) -> Vec<Action> {
        let mut all = Vec::new();
        while let Some(at) = agent.next_wake() {
            if at > until {
                break;
            }
            agent.on_wake(at, &mut all);
            all.extend(agent.complete_verifications(at, registry));
        }
        all
    }

    #[test]
    fn registration_handshake() {
        let (agent, _, _) = registered_agent();
        assert_eq!(agent.uid(), Some(NodeUid(7)));
        assert_eq!(agent.token(), AuthToken([9; 16]));
    }

    #[test]
    fn heartbeats_fire_periodically() {
        let (mut agent, registry, _) = registered_agent();
        let actions = drive(&mut agent, &registry, t(26));
        let beats = actions
            .iter()
            .filter(|a| matches!(a, Action::Send(Message::Control(Control::Heartbeat { .. }))))
            .count();
        // Heartbeats at 6, 11, 16, 21, 26 (first was at ack time).
        assert_eq!(beats, 5);
    }

    #[test]
    fn dispatch_pipeline_reaches_running() {
        let (mut agent, registry, refs) = registered_agent();
        let spec = dispatch_spec(&refs, 42);
        let actions = agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        // Accepted + image pull flow.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
        )));
        let flow = actions.iter().find_map(|a| match a {
            Action::StartFlow {
                bytes,
                purpose,
                inbound,
                ..
            } => Some((*bytes, *purpose, *inbound)),
            _ => None,
        });
        let (bytes, purpose, inbound) = flow.expect("image pull flow");
        assert!(inbound);
        assert!(bytes > 1_000_000_000, "pull is GBs: {bytes}");
        assert!(matches!(purpose, FlowPurpose::ImagePull { job: JobId(42) }));

        // Attach the canonical run, then finish the pull.
        agent.attach_run(
            JobId(42),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let actions = agent.on_flow_done(t(60), purpose, true, &registry);
        assert!(actions.is_empty(), "verify timer armed instead");
        // Verification + container start.
        let actions = drive(&mut agent, &registry, t(90));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Running,
                    ..
                },
                ..
            }))
        )));
        assert_eq!(agent.workload_count(), 1);
        // The GPU is now allocated and busy.
        assert!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes()
                > 0
        );
    }

    #[test]
    fn dispatch_rejected_when_paused() {
        let (mut agent, registry, refs) = registered_agent();
        agent.set_paused(true);
        let actions = agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 1),
            }
            .into(),
            &registry,
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply {
                accepted: false,
                ..
            }))
        )));
    }

    #[test]
    fn dispatch_rejected_without_vram() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 1);
        spec.gpu_mem_bytes = 100 << 30; // > 24 GB
        let actions = agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::DispatchReply {
                accepted: false,
                ..
            }))
        )));
        assert_eq!(agent.workload_count(), 0);
    }

    #[test]
    fn kill_switch_frees_everything() {
        let (mut agent, registry, refs) = registered_agent();
        let spec = dispatch_spec(&refs, 5);
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(5),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 50_000)),
        );
        let purpose = FlowPurpose::ImagePull { job: JobId(5) };
        agent.on_flow_done(t(60), purpose, true, &registry);
        drive(&mut agent, &registry, t(90));

        let req = HttpRequest::new(Method::Post, "/kill-switch");
        let (resp, actions) = rest::handle(&mut agent, t(100), &req);
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Killed,
                    ..
                },
                ..
            }))
        )));
        // GPU memory released.
        assert_eq!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes(),
            0
        );
    }

    #[test]
    fn graceful_departure_checkpoints_then_leaves() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 9),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(9),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 500_000)),
        );
        agent.on_flow_done(
            t(60),
            FlowPurpose::ImagePull { job: JobId(9) },
            true,
            &registry,
        );
        drive(&mut agent, &registry, t(90));

        let req = HttpRequest::new(Method::Post, "/depart?mode=graceful");
        let (resp, actions) = rest::handle(&mut agent, t(100), &req);
        assert_eq!(resp.status, 202);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::DepartureNotice {
                mode: DepartureMode::Graceful { .. },
                ..
            }))
        )));
        assert_eq!(agent.phase(), AgentPhase::Departing);

        // Capture completes (CNN-small: ~1.5 s overhead + serialize).
        let actions = drive(&mut agent, &registry, t(110));
        let upload = actions.iter().find_map(|a| match a {
            Action::StartFlow {
                purpose: FlowPurpose::CheckpointUpload { job, seq },
                bytes,
                ..
            } => Some((*job, *seq, *bytes)),
            _ => None,
        });
        let (job, seq, bytes) = upload.expect("departure checkpoint upload");
        assert_eq!(job, JobId(9));
        assert!(bytes > 0);

        // Upload completes → CheckpointDone + departure finishes.
        let actions = agent.on_flow_done(
            t(120),
            FlowPurpose::CheckpointUpload { job, seq },
            true,
            &registry,
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send(Message::Work(Work::CheckpointDone { .. })))));
        assert!(actions.iter().any(|a| matches!(a, Action::GoOffline)));
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    #[test]
    fn emergency_departure_is_immediate() {
        let (mut agent, _registry, _) = registered_agent();
        let req = HttpRequest::new(Method::Post, "/depart?mode=emergency");
        let (resp, actions) = rest::handle(&mut agent, t(50), &req);
        assert_eq!(resp.status, 202);
        assert!(actions.iter().any(|a| matches!(a, Action::GoOffline)));
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    #[test]
    fn departure_deadline_kills_stragglers() {
        let (mut agent, registry, refs) = registered_agent();
        // A memory-intensive job would need a long capture.
        let mut spec = dispatch_spec(&refs, 3);
        spec.state_bytes_hint = 14 << 30;
        spec.gpu_mem_bytes = 20 << 30;
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(3),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::MemoryIntensive, 500_000)),
        );
        agent.on_flow_done(
            t(60),
            FlowPurpose::ImagePull { job: JobId(3) },
            true,
            &registry,
        );
        drive(&mut agent, &registry, t(120));

        // Depart with a 1-second grace — far too short for a 14 GB capture.
        let actions = agent.depart(t(130), DepartureMode::Graceful { grace_secs: 1 });
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::DepartureNotice { .. }))
        )));
        let actions = drive(&mut agent, &registry, t(140));
        assert!(
            actions.iter().any(|a| matches!(a, Action::GoOffline)),
            "deadline forces departure"
        );
        assert_eq!(agent.phase(), AgentPhase::Departed);
    }

    #[test]
    fn rest_status_and_metrics() {
        let (mut agent, registry, _) = registered_agent();
        let (resp, _) = rest::handle(&mut agent, t(10), &HttpRequest::new(Method::Get, "/status"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"phase\":\"Active\""), "{body}");
        // The ack's immediate beat plus the periodic ones at 6, 11, …, 51:
        // the exported counter must count every beat, not merely exist.
        let actions = drive(&mut agent, &registry, t(51));
        let sent = 1 + actions
            .iter()
            .filter(|a| matches!(a, Action::Send(Message::Control(Control::Heartbeat { .. }))))
            .count();
        assert_eq!(sent, 11);
        let (resp, _) = rest::handle(
            &mut agent,
            t(52),
            &HttpRequest::new(Method::Get, "/metrics"),
        );
        let body = String::from_utf8(resp.body).unwrap();
        let samples = gpunion_telemetry::parse(&body).expect("exposition parses");
        let beats: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "agent_heartbeats_total")
            .map(|s| s.value)
            .collect();
        assert_eq!(beats, vec![sent as f64], "{body}");
    }

    #[test]
    fn rest_pause_resume_cycle() {
        let (mut agent, _, _) = registered_agent();
        let (resp, actions) =
            rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Post, "/pause"));
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Control(Control::PauseScheduling {
                paused: true,
                ..
            }))
        )));
        assert_eq!(agent.phase(), AgentPhase::Paused);
        let (resp, _) = rest::handle(&mut agent, t(6), &HttpRequest::new(Method::Post, "/resume"));
        assert_eq!(resp.status, 200);
        assert_eq!(agent.phase(), AgentPhase::Active);
    }

    #[test]
    fn rest_rate_limit_429_with_retry_hint() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut config = AgentConfig::new("ws-1", &mut rng);
        config.rest_burst = 2;
        config.rest_rate_per_sec = 1;
        let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
        let mut agent = Agent::new(config, server);
        let status = HttpRequest::new(Method::Get, "/status");
        // Burst of 2 admitted; the third in the same instant is shed.
        assert_eq!(rest::handle(&mut agent, t(10), &status).0.status, 200);
        assert_eq!(rest::handle(&mut agent, t(10), &status).0.status, 200);
        let (resp, actions) = rest::handle(&mut agent, t(10), &status);
        assert_eq!(resp.status, 429);
        assert!(actions.is_empty(), "a shed request triggers nothing");
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"retry_after_ms\":1000"), "{body}");
        // One second later the bucket has refilled one token.
        assert_eq!(rest::handle(&mut agent, t(11), &status).0.status, 200);
        assert_eq!(rest::handle(&mut agent, t(11), &status).0.status, 429);
    }

    #[test]
    fn rest_unknown_route_404() {
        let (mut agent, _, _) = registered_agent();
        let (resp, _) = rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Get, "/nope"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn rest_depart_requires_mode() {
        let (mut agent, _, _) = registered_agent();
        let (resp, _) = rest::handle(&mut agent, t(5), &HttpRequest::new(Method::Post, "/depart"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn periodic_checkpoint_cycle_produces_uploads() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 11);
        spec.checkpoint_interval_secs = 60;
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        agent.attach_run(
            JobId(11),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnLarge, 2_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(11) },
            true,
            &registry,
        );
        drive(&mut agent, &registry, t(40));
        // Two checkpoint intervals later there should be ≥ 2 uploads.
        let actions = drive(&mut agent, &registry, t(40 + 150));
        let uploads: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                Action::StartFlow {
                    purpose: FlowPurpose::CheckpointUpload { seq, .. },
                    ..
                } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(uploads.len() >= 2, "uploads: {uploads:?}");
        assert_eq!(uploads[0], 1);
    }

    #[test]
    fn job_completion_reports_and_cleans_up() {
        let (mut agent, registry, refs) = registered_agent();
        let mut spec = dispatch_spec(&refs, 21);
        spec.checkpoint_interval_secs = 0; // keep timers simple
        agent.handle_message(t(2), Work::Dispatch { spec }.into(), &registry);
        // Tiny job: finishes in seconds.
        agent.attach_run(
            JobId(21),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 10)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(21) },
            true,
            &registry,
        );
        let actions = drive(&mut agent, &registry, t(600));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate {
                status: gpunion_protocol::WorkloadStatus {
                    state: WorkloadState::Completed,
                    ..
                },
                exit_code: Some(0),
            }))
        )));
        assert_eq!(agent.workload_count(), 0);
        assert_eq!(
            agent
                .server()
                .device(gpunion_gpu::GpuIndex(0))
                .unwrap()
                .used_bytes(),
            0
        );
    }

    #[test]
    fn kill_single_workload_via_rest() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 30),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(30),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 1_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(30) },
            true,
            &registry,
        );
        drive(&mut agent, &registry, t(60));
        let (resp, actions) = rest::handle(
            &mut agent,
            t(70),
            &HttpRequest::new(Method::Delete, "/workloads/30"),
        );
        assert_eq!(resp.status, 200);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send(Message::Work(Work::WorkloadUpdate { status, .. }))
                if status.state == WorkloadState::Killed
        )));
        let _ = KillReason::ProviderKillSwitch;
    }

    fn pull_agent(nack_backoff: bool) -> (Agent, gpunion_container::ImageRegistry) {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut config = AgentConfig::new("ws-1", &mut rng);
        config.pull_mode = true;
        config.nack_backoff = nack_backoff;
        let server = GpuServer::new(ServerSpec::workstation("ws-1", GpuModel::Rtx3090));
        let mut agent = Agent::new(config, server);
        let (registry, _) = standard_catalogue();
        agent.start_registration(t(0));
        let ack = Control::RegisterAck {
            node: NodeUid(7),
            token: AuthToken([9; 16]),
            heartbeat_period_ms: 5_000,
        }
        .into();
        let actions = agent.handle_message(t(1), ack, &registry);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Send(Message::Work(Work::WorkRequest { .. })))),
            "pull-mode boot offers capacity"
        );
        (agent, registry)
    }

    fn count_offers(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Send(Message::Work(Work::WorkRequest { .. }))))
            .count()
    }

    #[test]
    fn grant_nack_backoff_schedules_single_reoffer() {
        let (mut agent, registry) = pull_agent(true);
        // Two nacks in quick succession coalesce into one pending re-offer.
        for at in [10, 11] {
            let actions = agent.handle_message(
                t(at),
                Work::GrantNack {
                    node: NodeUid(7),
                    retry_after_ms: 2_500,
                }
                .into(),
                &registry,
            );
            assert_eq!(count_offers(&actions), 0, "the nack itself emits nothing");
        }
        // Nothing re-offers before the hint elapses (heartbeats still fire).
        let actions = drive(&mut agent, &registry, t(12));
        assert_eq!(count_offers(&actions), 0);
        // At t = 10 + 2.5 s the scheduled re-offer fires, exactly once.
        let actions = drive(&mut agent, &registry, t(13));
        assert_eq!(count_offers(&actions), 1);
    }

    #[test]
    fn grant_nack_ignored_when_backoff_disabled() {
        let (mut agent, registry) = pull_agent(false);
        agent.handle_message(
            t(10),
            Work::GrantNack {
                node: NodeUid(7),
                retry_after_ms: 2_500,
            }
            .into(),
            &registry,
        );
        let actions = drive(&mut agent, &registry, t(30));
        assert_eq!(count_offers(&actions), 0, "no re-offer without backoff");
    }

    #[test]
    fn reconnect_resets_identity() {
        let (mut agent, _, _) = registered_agent();
        let actions = agent.reconnect(t(500));
        assert_eq!(agent.phase(), AgentPhase::Registering);
        assert_eq!(agent.uid(), None);
        assert!(matches!(
            actions[0],
            Action::Send(Message::Control(Control::Register { .. }))
        ));
    }

    #[test]
    fn rolled_back_run_extractable_after_kill() {
        let (mut agent, registry, refs) = registered_agent();
        agent.handle_message(
            t(2),
            Work::Dispatch {
                spec: dispatch_spec(&refs, 40),
            }
            .into(),
            &registry,
        );
        agent.attach_run(
            JobId(40),
            TrainingRun::new(TrainingJobSpec::new(ModelClass::CnnSmall, 1_000_000)),
        );
        agent.on_flow_done(
            t(30),
            FlowPurpose::ImagePull { job: JobId(40) },
            true,
            &registry,
        );
        drive(&mut agent, &registry, t(60));
        // Run for a while, checkpoint once.
        let _ = drive(&mut agent, &registry, t(60 + 700));
        let mut kill_actions = Vec::new();
        agent.kill_workload(
            t(800),
            JobId(40),
            KillReason::ProviderKillSwitch,
            &mut kill_actions,
        );
        let run = agent.take_run(JobId(40)).expect("rolled-back run");
        assert_eq!(run.done_iters(), run.checkpointed_iters());
        agent.forget_workload(t(800), JobId(40));
        assert_eq!(agent.workload_count(), 0);
    }
}
