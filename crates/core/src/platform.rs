//! The assembled GPUnion platform: coordinator + agents + campus network.
//!
//! `Platform` is the world type of the top-level discrete-event simulation.
//! It owns the simulated LAN, the coordinator, and one agent per GPU server,
//! and routes everything between them: control envelopes ride
//! [`gpunion_simnet::Network::send`], checkpoints/image pulls/restores ride
//! flows, provider interruptions drive agents' REST endpoints or yank nodes
//! off the network. A single self-rearming "pump" event advances all
//! passive components.

use gpunion_agent::{Action, Agent, AgentConfig, FlowPeer, FlowPurpose};
use gpunion_container::ImageRegistry;
use gpunion_des::{JoinPoint, RngPool, Sim, SimDuration, SimTime, TypedEvent, WorkerPool};
use gpunion_gpu::{GpuServer, ServerSpec};
use gpunion_protocol::{
    Control, DispatchSpec, Envelope, ExecMode, JobId, Message, NodeUid, UserId, Work, WorkloadState,
};
use gpunion_scheduler::{
    CoordAction, CoordEnvelope, Coordinator, CoordinatorConfig, JobEvent, SendOutcome,
};
use gpunion_simnet::{
    star_campus, Bandwidth, FlowOutcome, NetEvent, Network, NodeId, TrafficClass,
};
use gpunion_workload::{InteractiveSpec, InterruptionKind, TrainingJobSpec, TrainingRun};
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The platform simulator: a [`Sim`] whose hot recurring events — pump
/// wakes, boot registrations, harness injections — are typed
/// [`PlatformEvent`] values (allocation-free on the warm path), with boxed
/// closures still available for ad-hoc scenario actions.
pub type PlatformSim = Sim<Platform, PlatformEvent>;

/// Typed top-level simulation events.
///
/// These replace the boxed closures the platform used to schedule for its
/// recurring work: the values live in the simulator's event slab, so the
/// steady-state schedule→fire cycle touches no allocator and `cancel`
/// (pump re-arming) is an O(1) generation bump.
#[derive(Debug)]
pub enum PlatformEvent {
    /// Wake the pump: advance all passive components to `now`.
    Pump,
    /// Boot-time registration of the agent at this address.
    Boot(NodeId),
    /// A staged harness injection (arrivals, lifecycle steps, provider
    /// interruptions).
    Inject(Injection),
}

/// A harness injection: what `Scenario` used to encode as (triple-)nested
/// boxed closures, now plain data dispatched by [`Platform::run_injection`].
///
/// Arrival variants box their specs so the recurring variants stay small in
/// the event slab; the boxing happens once at scenario construction (the
/// cold path), exactly where the old closure capture allocated.
#[derive(Debug)]
pub enum Injection {
    /// Submit a training job.
    Training {
        /// Harness trace index.
        tag: u64,
        /// The job.
        spec: Box<TrainingJobSpec>,
    },
    /// An interactive session arrives (starts its lifecycle chain).
    InteractiveArrive {
        /// Harness trace index.
        tag: u64,
        /// The session.
        spec: Box<InteractiveSpec>,
    },
    /// Patience check: abandon the session if it never started.
    InteractivePatience {
        /// The session's job id.
        job: JobId,
        /// How long it runs once started.
        duration: SimDuration,
    },
    /// A served session ends (user logs out).
    InteractiveEnd {
        /// The session's job id.
        job: JobId,
    },
    /// A provider interruption hits a host.
    Interrupt {
        /// The host.
        host: NodeId,
        /// Interruption class.
        kind: InterruptionKind,
    },
    /// The provider returns after an outage.
    ProviderReturn {
        /// The host.
        host: NodeId,
    },
}

impl TypedEvent<Platform> for PlatformEvent {
    fn kind(&self) -> &'static str {
        match self {
            PlatformEvent::Pump => "pump",
            PlatformEvent::Boot(_) => "boot",
            PlatformEvent::Inject(Injection::Training { .. }) => "inject-training",
            PlatformEvent::Inject(Injection::InteractiveArrive { .. }) => "inject-arrive",
            PlatformEvent::Inject(Injection::InteractivePatience { .. }) => "inject-patience",
            PlatformEvent::Inject(Injection::InteractiveEnd { .. }) => "inject-end",
            PlatformEvent::Inject(Injection::Interrupt { .. }) => "inject-interrupt",
            PlatformEvent::Inject(Injection::ProviderReturn { .. }) => "inject-return",
        }
    }

    fn fire(self, w: &mut Platform, sim: &mut PlatformSim) {
        match self {
            PlatformEvent::Pump => {
                w.pump_armed = None;
                w.pump(sim);
            }
            PlatformEvent::Boot(addr) => {
                let actions = w
                    .agents
                    .get_mut(&addr)
                    .expect("agent exists")
                    .get_mut()
                    .start_registration(sim.now());
                w.apply_agent_actions(sim.now(), addr, actions);
                w.pump(sim);
            }
            PlatformEvent::Inject(inj) => w.run_injection(sim, inj),
        }
    }
}

/// What travels on the simulated network.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A control-plane envelope.
    Ctrl(Box<Envelope>),
    /// Completion context of a bulk flow.
    FlowTag {
        /// The agent that initiated the transfer.
        agent_addr: NodeId,
        /// Why it was transferring.
        purpose: FlowPurpose,
    },
}

/// Per-displacement record for the Fig. 3 analysis.
#[derive(Debug, Clone)]
pub struct Displacement {
    /// The job.
    pub job: JobId,
    /// When it was displaced.
    pub at: SimTime,
    /// Checkpoint sequence it restores from (None = lost all work).
    pub restore_seq: Option<u64>,
    /// When its latest durable checkpoint before the displacement landed
    /// (None = no checkpoint yet). Stamped at requeue time, so checkpoints
    /// the job takes after it resumes cannot move it.
    pub last_checkpoint_at: Option<SimTime>,
    /// When it started running again (None = never within horizon).
    pub restarted_at: Option<SimTime>,
    /// Whether it restarted on its original (returning) node.
    pub migrated_back: bool,
}

/// Platform-level statistics collected during a run.
#[derive(Debug, Default)]
pub struct PlatformStats {
    /// Job lifecycle log (ordered so post-run sweeps are deterministic).
    pub job_log: BTreeMap<JobId, Vec<(SimTime, JobEvent)>>,
    /// Map from the caller's submission tag to the assigned job id.
    pub tag_to_job: HashMap<u64, JobId>,
    /// Reverse map.
    pub job_to_tag: HashMap<JobId, u64>,
    /// Interactive sessions that got a GPU within the user's patience.
    pub sessions_served: u64,
    /// Sessions whose users gave up.
    pub sessions_abandoned: u64,
    /// Completed training jobs.
    pub jobs_completed: u64,
    /// All displacements (kill-switch, departures, heartbeat loss).
    pub displacements: Vec<Displacement>,
    /// Latest durable checkpoint time per job; each displacement stamps
    /// its value at requeue time for lost-work accounting.
    pub last_checkpoint: HashMap<JobId, SimTime>,
}

impl PlatformStats {
    pub(crate) fn log(&mut self, now: SimTime, job: JobId, event: JobEvent) {
        self.job_log.entry(job).or_default().push((now, event));
        match event {
            JobEvent::Completed => self.jobs_completed += 1,
            JobEvent::Requeued { restore_seq } => self.displacements.push(Displacement {
                job,
                at: now,
                restore_seq,
                last_checkpoint_at: self.last_checkpoint.get(&job).copied(),
                restarted_at: None,
                migrated_back: false,
            }),
            JobEvent::Started { .. } => {
                if let Some(d) = self
                    .displacements
                    .iter_mut()
                    .rev()
                    .find(|d| d.job == job && d.restarted_at.is_none())
                {
                    d.restarted_at = Some(now);
                }
            }
            JobEvent::MigratedBack { .. } => {
                if let Some(d) = self.displacements.iter_mut().rev().find(|d| d.job == job) {
                    d.migrated_back = true;
                }
            }
            _ => {}
        }
    }

    /// First time a given event kind appears for a job.
    pub fn first_event(&self, job: JobId, pred: impl Fn(&JobEvent) -> bool) -> Option<SimTime> {
        self.job_log
            .get(&job)?
            .iter()
            .find(|(_, e)| pred(e))
            .map(|(t, _)| *t)
    }
}

/// Platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Master seed for every stochastic stream.
    pub seed: u64,
    /// Coordinator settings (heartbeat period, strategy, …).
    pub coordinator: CoordinatorConfig,
    /// Access link speed.
    pub access: Bandwidth,
    /// Backbone speed.
    pub backbone: Bandwidth,
    /// One-way link latency.
    pub link_latency: SimDuration,
    /// Local disk rate for same-node copies.
    pub local_disk: Bandwidth,
    /// Worker threads for the pump's agent phase. `0` (inline, the
    /// degenerate actor: the exact serial code path, byte-stable
    /// goldens); `W ≥ 1` partitions each due list across `W` pinned
    /// workers (agent `addr % W` → worker) whose action batches are
    /// applied serially in ascending-address order after the join point —
    /// exactly the inline order, so decisions are bit-identical at any
    /// value (property-tested). Defaults to `GPUNION_PUMP_THREADS` when
    /// set, so CI can run the whole suite threaded.
    pub pump_workers: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            seed: 42,
            coordinator: CoordinatorConfig::default(),
            access: Bandwidth::gbps(1.0),
            backbone: Bandwidth::gbps(10.0),
            link_latency: SimDuration::from_micros(50),
            local_disk: Bandwidth::gbps(16.0),
            pump_workers: std::env::var("GPUNION_PUMP_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }
}

/// One agent behind an [`UnsafeCell`] so pump workers can step their
/// pinned partition of the due list through a shared `&BTreeMap`.
///
/// The aliasing discipline is the single-owner handoff from the
/// directory's shard actors: during a pump turn, worker `w` dereferences
/// only agents with `addr % W == w` (disjoint partitions, so no two
/// threads ever touch the same cell), and the producer thread touches no
/// cell between scattering the turn and the join point. Everywhere else
/// — including the whole inline path — the lanes are quiescent and the
/// producer owns every cell.
struct AgentCell(UnsafeCell<Agent>);

// SAFETY: aliasing is excluded by the partition + join protocol above —
// workers write disjoint cells mid-turn, the producer only at quiescence,
// and `JoinPoint`'s release/acquire pair orders the handoff.
unsafe impl Sync for AgentCell {}

impl AgentCell {
    fn new(agent: Agent) -> Self {
        AgentCell(UnsafeCell::new(agent))
    }

    /// Shared read. Sound because every caller runs on the producer
    /// thread while the pump lanes are quiescent (no turn in flight).
    fn get(&self) -> &Agent {
        unsafe { &*self.0.get() }
    }

    fn get_mut(&mut self) -> &mut Agent {
        self.0.get_mut()
    }
}

// Compile-time audit backing the `unsafe impl`s around the parallel
// pump: agents migrate between threads by reference, and the registry is
// read concurrently by every worker.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Agent>();
    assert_send::<Action>();
    assert_sync::<ImageRegistry>();
};

/// One pump worker's lane: the `(addr, actions)` batches it produced
/// this turn, and the join point it marks after each turn.
struct PumpLane {
    batches: UnsafeCell<Vec<(NodeId, Vec<Action>)>>,
    join: JoinPoint,
}

// SAFETY: same handoff as `AgentCell` — the owning worker appends only
// mid-turn, the producer drains only after `JoinPoint::wait`.
unsafe impl Sync for PumpLane {}

/// One scattered pump turn: everything a worker needs to step its
/// partition of the due list. Plain pointers because the producer blocks
/// at the join point before any of the borrows behind them expire.
#[derive(Clone, Copy)]
struct PumpTurn {
    now: SimTime,
    due: *const NodeId,
    due_len: usize,
    agents: *const BTreeMap<NodeId, AgentCell>,
    registry: *const ImageRegistry,
}

// SAFETY: the pointers reference producer-owned state that outlives the
// turn (the producer waits at the join point inside the same call), and
// `Agent`/`ImageRegistry` are Send/Sync (asserted above).
unsafe impl Send for PumpTurn {}

/// The pump's parallel agent phase: a [`WorkerPool`] over per-worker
/// [`PumpLane`]s. Exists only at `pump_workers ≥ 1`; the inline path
/// never constructs one.
///
/// Per turn, every worker receives the same [`PumpTurn`] and scans the
/// full (sorted) due slice, stepping only agents pinned to it
/// (`addr % W == index`) and appending each agent's `(addr, actions)` to
/// its lane in scan order. Because the scan order is ascending and the
/// partitions are disjoint, draining lanes by `due` order afterwards
/// replays the batches in exactly the serial (ascending-address) apply
/// order — determinism is scheduling-independent by construction.
struct AgentPump {
    lanes: Arc<Vec<PumpLane>>,
    pool: WorkerPool<PumpTurn>,
    /// Producer-side cumulative turns sent per lane.
    sent: Vec<u64>,
    /// Per-lane drain cursor for the current turn.
    cursors: Vec<usize>,
}

impl AgentPump {
    /// A pump over `workers` threads; `None` at 0 (inline mode).
    fn new(workers: usize) -> Option<AgentPump> {
        if workers == 0 {
            return None;
        }
        let lanes: Arc<Vec<PumpLane>> = Arc::new(
            (0..workers)
                .map(|_| PumpLane {
                    batches: UnsafeCell::new(Vec::new()),
                    join: JoinPoint::new(),
                })
                .collect(),
        );
        let pool = WorkerPool::new(workers, "agent-pump-worker", |index| {
            let lanes = Arc::clone(&lanes);
            let mut applied = 0u64;
            move |turn: PumpTurn| {
                // SAFETY: the producer keeps `due`, the agents map, and
                // the registry alive (and untouched) until it has joined
                // this turn; this worker's partition of the agent cells
                // is disjoint from every other worker's.
                let due = unsafe { std::slice::from_raw_parts(turn.due, turn.due_len) };
                let agents = unsafe { &*turn.agents };
                let registry = unsafe { &*turn.registry };
                let batches = unsafe { &mut *lanes[index].batches.get() };
                for &addr in due {
                    if addr.0 as usize % lanes.len() != index {
                        continue;
                    }
                    let cell = agents.get(&addr).expect("due agents exist");
                    // SAFETY: `addr % W == index` — this worker owns the
                    // cell for the duration of the turn.
                    let agent = unsafe { &mut *cell.0.get() };
                    let mut actions = Vec::new();
                    agent.on_wake(turn.now, &mut actions);
                    if agent.has_pending_verifications() {
                        actions.extend(agent.complete_verifications(turn.now, registry));
                    }
                    batches.push((addr, actions));
                }
                applied += 1;
                lanes[index].join.mark(applied);
            }
        });
        Some(AgentPump {
            sent: vec![0; workers],
            cursors: vec![0; workers],
            lanes,
            pool,
        })
    }

    /// Scatter one due list across the workers and block at the join
    /// point until every lane holds its batches. Lane buffers, cursors,
    /// and inbox queues are all reused — the warm turn is allocation-free
    /// on the calling thread.
    fn run_turn(
        &mut self,
        now: SimTime,
        due: &[NodeId],
        agents: &BTreeMap<NodeId, AgentCell>,
        registry: &ImageRegistry,
    ) {
        for (w, lane) in self.lanes.iter().enumerate() {
            // SAFETY: lanes are quiescent (previous turn fully joined).
            unsafe { (*lane.batches.get()).clear() };
            self.cursors[w] = 0;
        }
        let turn = PumpTurn {
            now,
            due: due.as_ptr(),
            due_len: due.len(),
            agents,
            registry,
        };
        for w in 0..self.lanes.len() {
            self.sent[w] += 1;
            self.pool.send(w, turn);
        }
        for (w, lane) in self.lanes.iter().enumerate() {
            lane.join.wait(self.sent[w]);
        }
    }

    /// Pull the next batch off `addr`'s lane. Calling this in ascending
    /// `due` order yields every batch exactly once, in inline order.
    fn take_batch(&mut self, addr: NodeId) -> Vec<Action> {
        let w = addr.0 as usize % self.lanes.len();
        let i = self.cursors[w];
        self.cursors[w] = i + 1;
        // SAFETY: the turn is joined; the producer owns every lane.
        let batches = unsafe { &mut *self.lanes[w].batches.get() };
        let (got, actions) = std::mem::replace(&mut batches[i], (addr, Vec::new()));
        debug_assert_eq!(got, addr, "lane batches must mirror due order");
        actions
    }
}

/// The assembled platform (the simulation world).
pub struct Platform {
    /// The campus network.
    pub net: Network<Payload>,
    /// The central coordinator.
    pub coordinator: Coordinator,
    coordinator_addr: NodeId,
    /// Ordered by address: boot staggering and the pump visit agents in a
    /// deterministic order (uid assignment depends on it). Cells so the
    /// parallel pump can step disjoint partitions through a shared map.
    agents: BTreeMap<NodeId, AgentCell>,
    /// The pump's worker-pool agent phase (`None` = inline).
    pump: Option<AgentPump>,
    addr_of_uid: HashMap<NodeUid, NodeId>,
    /// Machine id → simnet address, fixed at deploy time. Used to learn
    /// uid → address mappings when the coordinator acks a registration
    /// (the ack is the first action naming the new uid).
    addr_of_machine: HashMap<String, NodeId>,
    /// The shared campus image registry (hosted on the coordinator).
    pub registry: ImageRegistry,
    /// Image references published at boot.
    pub image_refs: Vec<gpunion_container::ImageRef>,
    /// Canonical runs for jobs between placements (displaced state).
    displaced_runs: HashMap<JobId, TrainingRun>,
    /// Fresh-job specs, attached at first dispatch acceptance.
    fresh_runs: HashMap<JobId, TrainingJobSpec>,
    /// Collected statistics.
    pub stats: PlatformStats,
    /// The coordinator–switch backbone link (traffic-share reporting).
    backbone_link: Option<gpunion_simnet::LinkId>,
    pump_armed: Option<(SimTime, gpunion_des::EventId)>,
    /// Wake-ordered index over agents with a pending timer: the pump pops
    /// only the due prefix — O(due), not O(agents).
    wake_index: BTreeSet<(SimTime, NodeId)>,
    /// The wake time currently recorded in the index per agent (so a
    /// refresh is a cheap compare + at most one remove/insert).
    wake_cache: HashMap<NodeId, SimTime>,
    /// Set when `agent_mut` hands out raw access (timers may have changed
    /// behind the index's back); the next pump resyncs from scratch.
    wake_dirty: bool,
    /// Reusable buffer for the due agents of one pump pass.
    due_scratch: Vec<NodeId>,
    /// Reusable buffers the pump's passes fill and drain: network events
    /// from `Network::poll`, coordinator actions from
    /// `Coordinator::advance`, and one agent's actions from
    /// `Agent::on_wake`. Each is taken out for the duration of its drain,
    /// so a nested route (a departure's lost flows) never sees it.
    net_scratch: Vec<NetEvent<Payload>>,
    coord_scratch: Vec<CoordAction>,
    agent_scratch: Vec<Action>,
    /// `pump` calls, and fixed-point passes made by them.
    pump_calls: u64,
    pump_passes: u64,
}

impl Platform {
    /// Deploy the platform on a star campus: one agent per server spec
    /// (CPU-only specs are skipped — the coordinator is separate).
    /// Returns the platform and the simnet addresses of the GPU hosts, in
    /// spec order.
    pub fn deploy(config: &PlatformConfig, specs: &[ServerSpec]) -> (Platform, Vec<NodeId>) {
        let gpu_specs: Vec<&ServerSpec> = specs.iter().filter(|s| !s.gpus.is_empty()).collect();
        let (topo, hosts, coord_addr, switch) = star_campus(
            gpu_specs.len(),
            config.access,
            config.backbone,
            config.link_latency,
        );
        let pool = RngPool::new(config.seed);
        let net = Network::new(topo, config.local_disk, config.seed ^ 0x5151);
        let backbone_link = net.topology().link_between(coord_addr, switch);
        let coordinator = Coordinator::new(config.coordinator.clone(), config.seed ^ 0xC0);
        let (registry, image_refs) = gpunion_container::standard_catalogue();
        let mut agents = BTreeMap::new();
        let mut addr_of_machine = HashMap::new();
        for (i, spec) in gpu_specs.iter().enumerate() {
            let mut rng = pool.stream_n("agent-id", i as u64);
            let agent_config = AgentConfig::new(spec.hostname.clone(), &mut rng);
            addr_of_machine.insert(agent_config.machine_id.clone(), hosts[i]);
            let agent = Agent::new(agent_config, GpuServer::new((*spec).clone()));
            agents.insert(hosts[i], AgentCell::new(agent));
        }
        let platform = Platform {
            net,
            coordinator,
            coordinator_addr: coord_addr,
            agents,
            pump: AgentPump::new(config.pump_workers),
            addr_of_uid: HashMap::new(),
            addr_of_machine,
            registry,
            image_refs,
            displaced_runs: HashMap::new(),
            fresh_runs: HashMap::new(),
            stats: PlatformStats::default(),
            backbone_link,
            pump_armed: None,
            wake_index: BTreeSet::new(),
            wake_cache: HashMap::new(),
            // Resync on the first pump: agents may carry deploy-time timers.
            wake_dirty: true,
            due_scratch: Vec::new(),
            net_scratch: Vec::new(),
            coord_scratch: Vec::new(),
            agent_scratch: Vec::new(),
            pump_calls: 0,
            pump_passes: 0,
        };
        (platform, hosts)
    }

    /// The campus backbone link (coordinator uplink), for traffic-share
    /// reporting against the backbone's capacity.
    pub fn backbone_link(&self) -> Option<gpunion_simnet::LinkId> {
        self.backbone_link
    }

    /// Agent access by address (tests/harnesses).
    pub fn agent(&self, addr: NodeId) -> Option<&Agent> {
        self.agents.get(&addr).map(AgentCell::get)
    }

    /// Mutable agent access. Marks the wake index dirty: the caller may
    /// arm or clear agent timers directly, so the next pump resyncs.
    pub fn agent_mut(&mut self, addr: NodeId) -> Option<&mut Agent> {
        self.wake_dirty = true;
        self.agents.get_mut(&addr).map(AgentCell::get_mut)
    }

    /// The coordinator's simnet address.
    pub fn coordinator_addr(&self) -> NodeId {
        self.coordinator_addr
    }

    /// How many times [`Platform::pump`] has run: once per pump, boot
    /// and injection event, and once per `Scenario::schedule` action.
    pub fn pump_calls(&self) -> u64 {
        self.pump_calls
    }

    /// Fixed-point passes those pump calls made. A call makes one pass
    /// plus one more for each pass that left work due at the same
    /// instant, so this stays close to [`Platform::pump_calls`].
    pub fn pump_passes(&self) -> u64 {
        self.pump_passes
    }

    /// Mean GPU utilization per host address since boot.
    pub fn utilization_by_host(&mut self, now: SimTime) -> Vec<(NodeId, String, f64)> {
        let mut out: Vec<(NodeId, String, f64)> = self
            .agents
            .iter_mut()
            .map(|(addr, cell)| {
                let a = cell.get_mut();
                let name = a.config().hostname.clone();
                (*addr, name, a.server_mut().mean_utilization(now))
            })
            .collect();
        out.sort_by_key(|(a, _, _)| *a);
        out
    }

    /// Campus-wide GPU-weighted mean utilization.
    pub fn mean_utilization(&mut self, now: SimTime) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0usize;
        for cell in self.agents.values_mut() {
            let a = cell.get_mut();
            let n = a.server().gpu_count();
            weighted += a.server_mut().mean_utilization(now) * n as f64;
            total += n;
        }
        if total == 0 {
            0.0
        } else {
            weighted / total as f64
        }
    }

    // ---- boot ----------------------------------------------------------

    /// Kick everything off: agents register at slightly staggered times.
    pub fn boot(world: &mut Platform, sim: &mut PlatformSim) {
        for (i, addr) in world.agents.keys().copied().enumerate() {
            sim.schedule_typed_at(
                SimTime::from_millis(10 + i as u64 * 3),
                PlatformEvent::Boot(addr),
            );
        }
    }

    // ---- submissions -----------------------------------------------------

    /// Submit a training job right now. `tag` links the submission to the
    /// harness's trace index.
    pub fn submit_training(
        &mut self,
        now: SimTime,
        tag: u64,
        spec: &TrainingJobSpec,
        storage_nodes: Vec<NodeUid>,
    ) -> JobId {
        let profile = spec.model.profile();
        let image = &self.image_refs[0];
        let dispatch = DispatchSpec {
            job: JobId(0),
            image_repo: image.repository.clone(),
            image_tag: image.tag.clone(),
            image_digest: image.digest.0,
            gpus: spec.gpus,
            gpu_mem_bytes: profile.gpu_mem_bytes,
            min_cc: profile.min_cc.map(|cc| (cc.major, cc.minor)),
            mode: ExecMode::Batch {
                entrypoint: vec!["python".into(), "train.py".into()],
            },
            checkpoint_interval_secs: spec.checkpoint_interval.as_secs() as u32,
            storage_nodes,
            state_bytes_hint: profile.state_bytes,
            restore_from_seq: None,
            priority: spec.priority,
            user: UserId::SYSTEM,
        };
        let job = self.submit_envelope(now, dispatch);
        self.fresh_runs.insert(job, spec.clone());
        self.stats.tag_to_job.insert(tag, job);
        self.stats.job_to_tag.insert(job, tag);
        job
    }

    /// Enqueue a job submission on the coordinator's inbox. The id is
    /// assigned at admission; the turn itself (queue write, pass arming,
    /// the Queued event) runs on the next pump.
    fn submit_envelope(&mut self, now: SimTime, dispatch: DispatchSpec) -> JobId {
        let outcome = self
            .coordinator
            .send(now, CoordEnvelope::SubmitJob(Box::new(dispatch)));
        let SendOutcome::Enqueued { job: Some(job) } = outcome else {
            unreachable!("job submissions are critical envelopes, never shed");
        };
        job
    }

    /// Submit an interactive session; returns the job id. The caller is
    /// responsible for ending it (see `Scenario::submit_interactive_at`).
    pub fn submit_interactive(&mut self, now: SimTime, tag: u64, spec: &InteractiveSpec) -> JobId {
        let image = &self.image_refs[1];
        let dispatch = DispatchSpec {
            job: JobId(0),
            image_repo: image.repository.clone(),
            image_tag: image.tag.clone(),
            image_digest: image.digest.0,
            gpus: 1,
            gpu_mem_bytes: spec.gpu_mem_bytes,
            min_cc: None,
            mode: ExecMode::Interactive { port: 8888 },
            checkpoint_interval_secs: 0,
            storage_nodes: vec![],
            state_bytes_hint: 0,
            restore_from_seq: None,
            priority: 3, // humans waiting rank above batch
            user: UserId::SYSTEM,
        };
        let job = self.submit_envelope(now, dispatch);
        self.stats.tag_to_job.insert(tag, job);
        self.stats.job_to_tag.insert(job, tag);
        job
    }

    /// Cancel a job (user action / session end). Enqueued on the
    /// coordinator inbox; the turn runs on the next pump.
    pub fn cancel(&mut self, now: SimTime, job: JobId) {
        self.coordinator.send(now, CoordEnvelope::CancelJob(job));
    }

    // ---- provider interruptions ---------------------------------------

    /// Graceful (scheduled) departure of the host at `addr`.
    pub fn scheduled_departure(&mut self, now: SimTime, addr: NodeId) {
        let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut) else {
            return;
        };
        let grace = agent.config().departure_grace;
        let actions = agent.depart(
            now,
            gpunion_protocol::DepartureMode::Graceful {
                grace_secs: grace.as_secs() as u32,
            },
        );
        self.apply_agent_actions(now, addr, actions);
    }

    /// Emergency departure: the node vanishes without warning.
    pub fn emergency_departure(&mut self, now: SimTime, addr: NodeId) {
        // Harvest rolled-back runs for every workload on the node before the
        // lights go out (the durable checkpoints they restore from).
        self.harvest_runs(now, addr);
        let events = self.net.set_node_up(now, addr, false);
        self.route_net_events(now, events);
    }

    /// The provider returns after an outage; the agent re-registers.
    pub fn provider_return(&mut self, now: SimTime, addr: NodeId) {
        let _ = self.net.set_node_up(now, addr, true);
        if let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut) {
            let actions = agent.reconnect(now);
            self.apply_agent_actions(now, addr, actions);
        }
    }

    fn harvest_runs(&mut self, now: SimTime, addr: NodeId) {
        // Jobs currently hosted by this agent whose state we must preserve
        // (rolled back to the last captured checkpoint).
        let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut) else {
            return;
        };
        let jobs: Vec<JobId> = self.stats.job_log.keys().copied().collect();
        for job in jobs {
            if let Some(mut run) = agent.take_run(job) {
                run.rollback_to_checkpoint();
                agent.forget_workload(now, job);
                self.displaced_runs.insert(job, run);
            }
        }
        self.refresh_wake(addr);
    }

    // ---- action routing -------------------------------------------------

    /// Apply coordinator actions: sends become network messages at `now`;
    /// job events are logged.
    ///
    /// `CoordAction::Send::delay` is not modelled here: a message leaves
    /// the coordinator at `now` whatever database latency it carries.
    pub fn apply_coord_actions(
        &mut self,
        now: SimTime,
        actions: impl IntoIterator<Item = CoordAction>,
    ) {
        for action in actions {
            match action {
                CoordAction::Send { to, msg, .. } => {
                    // A RegisterAck is the first action naming a (possibly
                    // fresh) uid: learn its address from the directory's
                    // machine id before routing.
                    if let Message::Control(Control::RegisterAck { node, .. }) = &msg {
                        if let Some(addr) = self
                            .coordinator
                            .directory()
                            .get(*node)
                            .and_then(|e| self.addr_of_machine.get(&e.machine_id))
                        {
                            self.addr_of_uid.insert(*node, *addr);
                        }
                    }
                    let Some(&addr) = self.addr_of_uid.get(&to) else {
                        // Destination not yet mapped (registration in
                        // flight); RegisterAck handles its own mapping below.
                        continue;
                    };
                    let env = Envelope::new(gpunion_protocol::AuthToken::UNAUTHENTICATED, msg);
                    let size = env.wire_size();
                    let _ = self.net.send(
                        now,
                        self.coordinator_addr,
                        addr,
                        size,
                        TrafficClass::Control,
                        Payload::Ctrl(Box::new(env)),
                    );
                }
                CoordAction::JobEvent { job, event } => {
                    self.stats.log(now, job, event);
                }
            }
        }
    }

    /// Apply agent actions.
    pub fn apply_agent_actions(
        &mut self,
        now: SimTime,
        addr: NodeId,
        actions: impl IntoIterator<Item = Action>,
    ) {
        for action in actions {
            match action {
                Action::Send(msg) => {
                    // Harvest displaced runs on kill notifications before the
                    // message leaves (the coordinator may immediately
                    // redispatch).
                    if let Message::Work(Work::WorkloadUpdate { status, .. }) = &msg {
                        if status.state == WorkloadState::Killed {
                            if let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut)
                            {
                                if let Some(run) = agent.take_run(status.job) {
                                    agent.forget_workload(now, status.job);
                                    self.displaced_runs.insert(status.job, run);
                                }
                            }
                        }
                    }
                    let (token, uid) = self
                        .agents
                        .get(&addr)
                        .map(|c| {
                            let a = c.get();
                            (a.token(), a.uid())
                        })
                        .unwrap_or((gpunion_protocol::AuthToken::UNAUTHENTICATED, None));
                    let env = match uid {
                        Some(uid) => Envelope::from_node(uid, token, msg),
                        None => Envelope::new(token, msg),
                    };
                    let size = env.wire_size();
                    let _ = self.net.send(
                        now,
                        addr,
                        self.coordinator_addr,
                        size,
                        TrafficClass::Control,
                        Payload::Ctrl(Box::new(env)),
                    );
                }
                Action::StartFlow {
                    peer,
                    inbound,
                    bytes,
                    purpose,
                } => {
                    let peer_addr = match peer {
                        FlowPeer::Coordinator => self.coordinator_addr,
                        FlowPeer::Node(uid) => self
                            .addr_of_uid
                            .get(&uid)
                            .copied()
                            .unwrap_or(self.coordinator_addr),
                    };
                    let (from, to) = if inbound {
                        (peer_addr, addr)
                    } else {
                        (addr, peer_addr)
                    };
                    let class = match purpose {
                        FlowPurpose::ImagePull { .. } => TrafficClass::ImagePull,
                        FlowPurpose::CheckpointUpload { .. } => TrafficClass::Checkpoint,
                        FlowPurpose::RestoreFetch { .. } => TrafficClass::Migration,
                    };
                    let tag = Payload::FlowTag {
                        agent_addr: addr,
                        purpose,
                    };
                    if self
                        .net
                        .start_flow(now, from, to, bytes.max(1), class, tag)
                        .is_err()
                    {
                        // Unreachable peer: fail the transfer immediately.
                        let actions = self
                            .agents
                            .get_mut(&addr)
                            .map(|c| {
                                c.get_mut()
                                    .on_flow_done(now, purpose, false, &self.registry)
                            })
                            .unwrap_or_default();
                        self.apply_agent_actions(now, addr, actions);
                    }
                }
                Action::GoOffline => {
                    let events = self.net.set_node_up(now, addr, false);
                    self.route_net_events(now, events);
                }
            }
        }
        // Every path that mutates an agent's timers ends here (wakes,
        // deliveries, flow completions, departures), so re-indexing once per
        // call keeps the wake index exact.
        self.refresh_wake(addr);
    }

    fn route_net_events(
        &mut self,
        now: SimTime,
        events: impl IntoIterator<Item = NetEvent<Payload>>,
    ) {
        for ev in events {
            match ev {
                NetEvent::Delivered { to, payload, .. } => match payload {
                    Payload::Ctrl(env) => {
                        if to == self.coordinator_addr {
                            // The box rides through to the coordinator's
                            // inbox untouched — no realloc per delivery.
                            self.deliver_to_coordinator(now, env);
                        } else {
                            self.deliver_to_agent(now, to, *env);
                        }
                    }
                    Payload::FlowTag { .. } => {
                        unreachable!("flow tags never ride messages")
                    }
                },
                NetEvent::FlowEnded { outcome, tag, .. } => {
                    if let Payload::FlowTag {
                        agent_addr,
                        purpose,
                    } = tag
                    {
                        let ok = outcome == FlowOutcome::Completed;
                        let actions = self
                            .agents
                            .get_mut(&agent_addr)
                            .map(|c| c.get_mut().on_flow_done(now, purpose, ok, &self.registry))
                            .unwrap_or_default();
                        self.apply_agent_actions(now, agent_addr, actions);
                    }
                }
            }
        }
    }

    fn deliver_to_coordinator(&mut self, now: SimTime, env: Box<Envelope>) {
        if let Message::Work(Work::CheckpointDone { job, .. }) = &env.msg {
            self.stats.last_checkpoint.insert(*job, now);
        }
        // Enqueue only: the coordinator is an actor — its turn runs inside
        // the pump's `advance` call, which returns the actions to route.
        self.coordinator.send(now, CoordEnvelope::Net(env));
    }

    fn deliver_to_agent(&mut self, now: SimTime, addr: NodeId, env: Envelope) {
        // Fresh-run attachment: if this is a dispatch the agent accepts, the
        // canonical run must be attached immediately after.
        let dispatch_job = match &env.msg {
            Message::Work(Work::Dispatch { spec }) => Some((spec.job, spec.restore_from_seq)),
            _ => None,
        };
        let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut) else {
            return;
        };
        let actions = agent.handle_message(now, env.msg, &self.registry);
        // Attach run on acceptance.
        if let Some((job, restore)) = dispatch_job {
            let accepted = actions.iter().any(|a| {
                matches!(
                    a,
                    Action::Send(Message::Work(Work::DispatchReply { accepted: true, .. }))
                )
            });
            if accepted {
                let run = if restore.is_some() {
                    self.displaced_runs.remove(&job)
                } else {
                    None
                };
                let run = run.or_else(|| {
                    self.fresh_runs
                        .get(&job)
                        .map(|spec| TrainingRun::new(spec.clone()))
                });
                if let Some(run) = run {
                    if let Some(agent) = self.agents.get_mut(&addr).map(AgentCell::get_mut) {
                        agent.attach_run(job, run);
                    }
                }
            }
        }
        self.apply_agent_actions(now, addr, actions);
    }

    // ---- harness injections -------------------------------------------

    /// Run one staged injection: the bodies of the old scenario closures,
    /// verbatim — including the trailing pump and the order in which
    /// follow-up lifecycle events are scheduled, so event sequencing (and
    /// with it every golden) is unchanged.
    pub fn run_injection(&mut self, sim: &mut PlatformSim, inj: Injection) {
        let now = sim.now();
        match inj {
            Injection::Training { tag, spec } => {
                self.submit_training(now, tag, &spec, vec![]);
                self.pump(sim);
            }
            Injection::InteractiveArrive { tag, spec } => {
                let job = self.submit_interactive(now, tag, &spec);
                sim.schedule_typed_in(
                    spec.patience,
                    PlatformEvent::Inject(Injection::InteractivePatience {
                        job,
                        duration: spec.duration,
                    }),
                );
                self.pump(sim);
            }
            Injection::InteractivePatience { job, duration } => {
                let started = self
                    .stats
                    .first_event(job, |e| matches!(e, JobEvent::Started { .. }));
                match started {
                    Some(start) => {
                        self.stats.sessions_served += 1;
                        let end = start + duration;
                        sim.schedule_typed_at(
                            end.max(now),
                            PlatformEvent::Inject(Injection::InteractiveEnd { job }),
                        );
                    }
                    None => {
                        self.stats.sessions_abandoned += 1;
                        self.cancel(now, job);
                    }
                }
                self.pump(sim);
            }
            Injection::InteractiveEnd { job } => {
                self.cancel(now, job);
                self.pump(sim);
            }
            Injection::Interrupt { host, kind } => {
                match kind {
                    InterruptionKind::ScheduledDeparture => self.scheduled_departure(now, host),
                    InterruptionKind::EmergencyDeparture
                    | InterruptionKind::TemporaryUnavailability => {
                        self.emergency_departure(now, host)
                    }
                }
                self.pump(sim);
            }
            Injection::ProviderReturn { host } => {
                self.provider_return(now, host);
                self.pump(sim);
            }
        }
    }

    // ---- the pump ---------------------------------------------------------

    /// Re-index one agent's next wake after its timers may have changed.
    fn refresh_wake(&mut self, addr: NodeId) {
        let wake = self.agents.get(&addr).and_then(|c| c.get().next_wake());
        let cached = self.wake_cache.get(&addr).copied();
        if wake == cached {
            return;
        }
        if let Some(t) = cached {
            self.wake_index.remove(&(t, addr));
        }
        match wake {
            Some(t) => {
                self.wake_index.insert((t, addr));
                self.wake_cache.insert(addr, t);
            }
            None => {
                self.wake_cache.remove(&addr);
            }
        }
    }

    /// Rebuild the wake index from every agent (after raw `agent_mut`
    /// access invalidated it).
    fn resync_wakes(&mut self) {
        self.wake_index.clear();
        self.wake_cache.clear();
        for (addr, cell) in &self.agents {
            if let Some(t) = cell.get().next_wake() {
                self.wake_index.insert((t, *addr));
                self.wake_cache.insert(*addr, t);
            }
        }
        self.wake_dirty = false;
    }

    /// Advance every passive component to `sim.now()` and re-arm the wake.
    ///
    /// Each pass polls the network, runs the coordinator if it is due, and
    /// wakes the due agents. A pass can make more work due at `now` (a
    /// turn that leaves a timer due, a delivery that arms an agent timer
    /// at `now`), so the loop runs another pass only while the earliest
    /// wake of the three sources is at or before `now`. That test is
    /// exact: after the first poll at `now` the flow table has advanced
    /// to `now`, so its next completion is strictly later, and every
    /// message sent since is in flight for at least the loopback latency.
    /// A pass run with every wake in the future would change nothing. The
    /// same earliest wake re-arms the pump.
    ///
    /// Agent wakes come off the wake index: each pass pops only the due
    /// prefix — O(due · log n) instead of a full O(n) scan — and visits
    /// the due agents in ascending address order.
    ///
    /// Network events, coordinator actions and agent actions go through
    /// reusable scratch buffers, so a warm pass allocates only where a
    /// component builds a message.
    ///
    /// At `pump_workers ≥ 1` the due agents are stepped on the agent
    /// pump's worker pool instead (partitioned by `addr % W`),
    /// and their action batches applied serially after the join point in
    /// the same ascending-address order — bit-identical decisions at any
    /// worker count.
    pub fn pump(&mut self, sim: &mut PlatformSim) {
        if self.wake_dirty {
            self.resync_wakes();
        }
        let now = sim.now();
        self.pump_calls += 1;
        let next = loop {
            self.pump_passes += 1;
            let mut events = std::mem::take(&mut self.net_scratch);
            self.net.poll(now, &mut events);
            self.route_net_events(now, events.drain(..));
            self.net_scratch = events;
            if self.coordinator.next_wake().is_some_and(|t| t <= now) {
                let mut actions = std::mem::take(&mut self.coord_scratch);
                self.coordinator.advance(now, &mut actions);
                self.apply_coord_actions(now, actions.drain(..));
                self.coord_scratch = actions;
            }
            let mut due = std::mem::take(&mut self.due_scratch);
            due.clear();
            while let Some(&(t, addr)) = self.wake_index.first() {
                if t > now {
                    break;
                }
                self.wake_index.pop_first();
                self.wake_cache.remove(&addr);
                due.push(addr);
            }
            // The index orders by (time, addr); agents wake in pure
            // address order.
            due.sort_unstable();
            if !due.is_empty() {
                match self.pump.take() {
                    // Parallel phase: scatter the due list, join, then
                    // apply the batches serially in ascending-address
                    // order — exactly the inline order below.
                    Some(mut pump) => {
                        pump.run_turn(now, &due, &self.agents, &self.registry);
                        for &addr in &due {
                            let actions = pump.take_batch(addr);
                            self.apply_agent_actions(now, addr, actions);
                        }
                        self.pump = Some(pump);
                    }
                    // Inline degenerate path (`pump_workers = 0`): the
                    // exact serial code, byte-stable goldens.
                    None => {
                        let mut actions = std::mem::take(&mut self.agent_scratch);
                        for &addr in &due {
                            let agent = self
                                .agents
                                .get_mut(&addr)
                                .expect("indexed agents exist")
                                .get_mut();
                            agent.on_wake(now, &mut actions);
                            if agent.has_pending_verifications() {
                                actions.extend(agent.complete_verifications(now, &self.registry));
                            }
                            self.apply_agent_actions(now, addr, actions.drain(..));
                        }
                        self.agent_scratch = actions;
                    }
                }
            }
            self.due_scratch = due;
            let next = self.next_wake();
            if next.is_none_or(|t| t > now) {
                break next;
            }
        };
        self.arm_pump(sim, next);
    }

    /// The earliest wake of the network, the coordinator and the agents
    /// (the wake index head — no per-agent scan).
    fn next_wake(&self) -> Option<SimTime> {
        [
            self.net.next_event_at(),
            self.coordinator.next_wake(),
            self.wake_index.first().map(|&(t, _)| t),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Schedule the pump at `next` unless an earlier or equal wake is
    /// already pending.
    fn arm_pump(&mut self, sim: &mut PlatformSim, next: Option<SimTime>) {
        let Some(at) = next else {
            return;
        };
        if let Some((armed_at, id)) = self.pump_armed {
            if armed_at <= at {
                return; // an earlier or equal wake is already pending
            }
            sim.cancel(id);
        }
        let id = sim.schedule_typed_at(at, PlatformEvent::Pump);
        self.pump_armed = Some((at, id));
    }
}

/// Bench hook for the parallel agent pump: deploy and boot a
/// `nodes`-agent campus, then drive `turns` lockstep agent phases in
/// which **every** agent is due at once — the reclaim-storm worst case
/// the pump parallelizes. Only the agent phase runs (partition scatter,
/// `on_wake` + verification on the pool, join, batch drain in due order);
/// the coordinator/network apply phase is deliberately excluded so the
/// row isolates what `pump_workers` actually moves.
///
/// Returns `(wall_ms, checksum)`: wall-clock milliseconds of the turn
/// loop and an order-sensitive fold of every drained `(addr, batch len)`
/// pair. The checksum is a pure function of agent decisions, so runs at
/// different worker counts must return bit-equal checksums — the gate's
/// in-run determinism assert.
pub fn pump_storm_run(nodes: usize, turns: usize, pump_workers: usize) -> (f64, u64) {
    let specs: Vec<ServerSpec> = (0..nodes)
        .map(|i| ServerSpec::workstation(format!("storm-{i}"), gpunion_gpu::GpuModel::Rtx3090))
        .collect();
    let config = PlatformConfig {
        pump_workers,
        ..PlatformConfig::default()
    };
    let (mut world, hosts) = Platform::deploy(&config, &specs);
    let mut sim = PlatformSim::new();
    Platform::boot(&mut world, &mut sim);
    // Reach the registered, heartbeating steady state before measuring.
    sim.run_until(&mut world, SimTime::from_secs(120));
    let due = hosts;
    let mut pump = world.pump.take();
    let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut now = SimTime::from_secs(125);
    let mut actions = Vec::new();
    let t0 = std::time::Instant::now();
    for _ in 0..turns {
        match pump.as_mut() {
            Some(pump) => {
                pump.run_turn(now, &due, &world.agents, &world.registry);
                for &addr in &due {
                    let actions = pump.take_batch(addr);
                    checksum = fold(checksum, u64::from(addr.0));
                    checksum = fold(checksum, actions.len() as u64);
                }
            }
            None => {
                for &addr in &due {
                    let agent = world
                        .agents
                        .get_mut(&addr)
                        .expect("deployed agents exist")
                        .get_mut();
                    actions.clear();
                    agent.on_wake(now, &mut actions);
                    if agent.has_pending_verifications() {
                        actions.extend(agent.complete_verifications(now, &world.registry));
                    }
                    checksum = fold(checksum, u64::from(addr.0));
                    checksum = fold(checksum, actions.len() as u64);
                }
            }
        }
        now += SimDuration::from_secs(5);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (wall_ms, checksum)
}

#[cfg(test)]
mod tests {
    //! Allocation discipline of the warm pump, measured on the calling
    //! thread with the per-thread counting allocator idiom from
    //! `des/tests/alloc.rs`. Inline, a heartbeat period may allocate only
    //! for the messages it builds. In parallel, worker threads allocate
    //! their own action buffers; the machinery the coordinator runs —
    //! lane clears, inbox sends, the join spin, the batch drain — must be
    //! allocation-free once warm.

    use super::*;
    use gpunion_gpu::GpuModel;
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

    /// The exact allocation count of a warm, heartbeating 8-workstation
    /// fleet over `K` heartbeat periods on the inline pump. Every beat
    /// crosses the network twice (heartbeat in, ack out) and writes the
    /// database once; what is left is the messages and rows themselves.
    /// Scratch buffers for network events, coordinator actions and agent
    /// actions, and the cached heartbeat counter, keep the pump's own
    /// plumbing off the allocator, so a change that allocates per event
    /// again moves this count.
    #[test]
    fn warm_heartbeat_periods_allocation_budget() {
        const K: u64 = 6;
        let specs: Vec<ServerSpec> = (0..8)
            .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
            .collect();
        // Everything on this thread: directory shard actors on worker
        // threads would move allocations off the counted thread.
        let mut config = PlatformConfig {
            pump_workers: 0,
            ..PlatformConfig::default()
        };
        config.coordinator.worker_threads = 0;
        let (mut world, _) = Platform::deploy(&config, &specs);
        let mut sim = PlatformSim::new();
        Platform::boot(&mut world, &mut sim);
        let warm = SimTime::from_secs(120);
        sim.run_until(&mut world, warm);
        let calls = world.pump_calls();
        let before = allocations();
        sim.run_until(&mut world, warm + config.coordinator.heartbeat_period * K);
        let allocated = allocations() - before;
        let calls = world.pump_calls() - calls;
        // 48 beats in 198 pump calls: about three allocations a beat, for
        // the heartbeat and ack envelopes and what they carry.
        assert_eq!(
            allocated, 156,
            "{allocated} allocations over {calls} pump calls"
        );
    }

    /// Warm parallel pump turns touch the allocator zero times on the
    /// coordinator thread: lane batch buffers, per-worker inbox queues,
    /// and the drain cursors are all reused across turns.
    #[test]
    fn warm_parallel_pump_turn_does_not_allocate() {
        let specs: Vec<ServerSpec> = (0..8)
            .map(|i| ServerSpec::workstation(format!("ws-{i}"), GpuModel::Rtx3090))
            .collect();
        let config = PlatformConfig {
            pump_workers: 2,
            ..PlatformConfig::default()
        };
        let (mut world, hosts) = Platform::deploy(&config, &specs);
        let mut sim = PlatformSim::new();
        Platform::boot(&mut world, &mut sim);
        // Run the fleet to a registered, heartbeating steady state.
        sim.run_until(&mut world, SimTime::from_secs(120));
        let mut pump = world.pump.take().expect("pump_workers=2 builds a pool");
        let due = hosts;
        let mut now = SimTime::from_secs(125);

        let turn = |pump: &mut AgentPump, now: SimTime| {
            pump.run_turn(now, &due, &world.agents, &world.registry);
            for &addr in &due {
                // Dropping the batch stands in for the apply phase: only
                // the coordinator-side turn mechanics are under test, and
                // dealloc is not counted.
                drop(pump.take_batch(addr));
            }
        };
        // Warm-up: inboxes, lane batch vectors, and the per-lane turn
        // counters all reach steady-state capacity.
        for _ in 0..8 {
            turn(&mut pump, now);
            now += SimDuration::from_secs(5);
        }
        let before = allocations();
        for _ in 0..8 {
            turn(&mut pump, now);
            now += SimDuration::from_secs(5);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "warm parallel pump turn allocated {} times over 8 turns x {} agents",
            after - before,
            due.len()
        );
    }
}
