//! The serving front door: admission, sharded dispatch, shedding,
//! degradation, model hot-swap and shard supervision.
//!
//! ```text
//!                    ┌──────────── ServeFront ────────────┐
//!  submit(req) ──►  admission                             │
//!   │  ├─ deadline already expired?   → reject (expired)  │
//!   │  ├─ tenant token bucket empty?  → reject (tenant)   │
//!   │  ├─ no live shard?              → reject (no shard) │
//!   │  └─ shard queue over watermark? → reject (queue)    │
//!   │                                                     │
//!   └─► shard queue (bounded, 3 priority lanes)           │
//!          │                                              │
//!       worker: dequeue                                   │
//!          ├─ deadline expired while queued → shed        │
//!          ├─ remaining < service estimate  → shed        │
//!          ├─ model version moved → hot-swap install      │
//!          └─ dispatch at the pressure tier:              │
//!               Full → CachedRegime → DefaultOnly         │
//!                      (guarded cascade underneath)       │
//!                                                         │
//!       supervisor: poll shard slots                      │
//!          ├─ dead shard   → drain queue, re-place work,  │
//!          │                 restart within budget/backoff│
//!          ├─ wedged shard → fence generation, replace    │
//!          └─ budget spent → retire (NITRO111)            │
//! ```
//!
//! Work is **never** started on a request whose deadline has passed —
//! expiry is checked at admission and re-checked at dequeue, and the
//! optional hopeless-shed drops requests whose remaining budget is
//! below the shard's smoothed service-time estimate.
//!
//! Every event is counted once, in the front's [`ServePulse`]: each
//! terminal outcome where the request's reply slot resolves, everything
//! else at its decision point. The lineage accounting and the shutdown
//! summary are reads of those counters.
//!
//! A panic that escapes the guarded dispatch kills only its shard: the
//! worker records the offending request ([`PanicRecord`]), marks its
//! slot dead with the restart backoff armed, parks the request for
//! re-placement (or quarantines it once it has killed
//! [`SupervisorConfig::poison_kill_threshold`] shards, `NITRO112`) and
//! exits. The supervisor drains the dead shard's queue back through
//! placement — every queued request ends in exactly one accounted
//! outcome ([`LineageAccounting`]) — and restarts the shard re-seeded
//! from the current model slot, under an exponential backoff and a
//! restart budget (`NITRO110`/`NITRO111`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use nitro_core::{CodeVariant, Diagnostic, ModelArtifact, NitroError, RequestMeta, Result};
use nitro_guard::{GuardPolicy, GuardShared, GuardedInvocation, GuardedVariant};
use nitro_pulse::PulseAlert;
use nitro_store::StagedPromotion;
use nitro_trace::MetricsRegistry;

use crate::admission::TenantBuckets;
use crate::audit::{
    audit_serve_config, diag_conservation, diag_poison_quarantine, diag_restart_budget,
    diag_shard_restart,
};
use crate::clock::ServeClock;
use crate::degrade::{admission_watermark, regime_fingerprint, tier_for, DegradeTier, RegimeCache};
use crate::lineage::LineageAccounting;
use crate::metrics::ServePulse;
use crate::queue::ShardQueue;
use crate::supervise::{PanicRecord, ShardSlot, ShardState, SupervisorConfig};

/// Front-door configuration. Audited at startup
/// ([`audit_serve_config`]); error-severity findings (`NITRO100`–`102`)
/// refuse to start.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker shards (each owns a `CodeVariant` + its compiled model).
    pub shards: usize,
    /// Per-shard queue bound. `None` is an unbounded queue — refused at
    /// startup (`NITRO100`): overload must shed, not back up.
    pub queue_capacity: Option<usize>,
    /// Tenant bucket slots (tenants hash onto them).
    pub tenant_slots: usize,
    /// Tenant refill rate, tokens per second.
    pub tenant_rate_per_s: f64,
    /// Tenant burst size, tokens.
    pub tenant_burst: u32,
    /// Queue fraction where the cached-regime tier engages.
    pub soft_degrade: f64,
    /// Queue fraction where the default-only tier engages.
    pub hard_degrade: f64,
    /// Cap on SLO-driven admission tightening (each level halves rates
    /// and watermarks).
    pub max_tighten: u32,
    /// Deadline budget the audit compares against the expected service
    /// floor (`NITRO103`), ns.
    pub default_budget_ns: u64,
    /// Observed p99 dispatch floor from a calibration run, if any (ns).
    pub expected_p99_floor_ns: Option<f64>,
    /// Shed queued requests whose remaining budget is below the shard's
    /// smoothed service-time estimate.
    pub hopeless_shedding: bool,
    /// Shard supervision and self-healing knobs.
    pub supervision: SupervisorConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            // One shard per hardware thread, so the default never trips
            // the NITRO104 oversharding warning.
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: Some(64),
            tenant_slots: 64,
            tenant_rate_per_s: 10_000.0,
            tenant_burst: 64,
            soft_degrade: 0.5,
            hard_degrade: 0.8,
            max_tighten: 3,
            default_budget_ns: 5_000_000,
            expected_p99_floor_ns: None,
            hopeless_shedding: true,
            supervision: SupervisorConfig::default(),
        }
    }
}

/// Why `submit` turned a request away (synchronously, before it cost a
/// queue slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The deadline had already passed at submission.
    DeadlineExpired,
    /// The tenant's token bucket was empty.
    TenantThrottled,
    /// Every candidate shard was over this priority's watermark.
    QueueFull {
        /// The shallowest shard considered.
        shard: usize,
        /// Its depth at rejection time.
        depth: usize,
    },
    /// Every shard is dead or retired — nothing can run the request.
    NoLiveShards,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::DeadlineExpired => write!(f, "deadline expired before admission"),
            Rejection::TenantThrottled => write!(f, "tenant token bucket empty"),
            Rejection::QueueFull { shard, depth } => {
                write!(f, "queue full (shard {shard} at depth {depth})")
            }
            Rejection::NoLiveShards => write!(f, "no live shards (all dead or retired)"),
        }
    }
}

/// What happened to an admitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Dispatched and completed.
    Served {
        /// The variant that ran.
        variant: usize,
        /// Its name.
        variant_name: String,
        /// Objective it returned.
        objective: f64,
        /// The degradation tier it was served at.
        tier: DegradeTier,
        /// Admission → dequeue, ns.
        queue_wait_ns: u64,
        /// Dequeue → completion, ns.
        dispatch_ns: u64,
        /// Whether completion beat the deadline (the bench gate
        /// requires this to always be true).
        deadline_met: bool,
        /// Whether the guarded cascade fell back past its first choice.
        fell_back: bool,
    },
    /// Shed at dequeue: the deadline passed while queued. No work was
    /// started.
    ShedExpired {
        /// How long it sat queued, ns.
        queued_ns: u64,
    },
    /// Shed at dequeue: remaining budget below the service estimate.
    /// No work was started.
    ShedHopeless {
        /// Budget left at dequeue, ns.
        remaining_ns: u64,
        /// The shard's smoothed service estimate, ns.
        estimate_ns: u64,
    },
    /// Shed during failover: the request was drained off a dead shard
    /// and no live shard could take it (or the front was shutting
    /// down).
    ShedFailover {
        /// The shard it was rescued from.
        from_shard: usize,
    },
    /// Quarantined as a poison pill (`NITRO112`): its dispatch killed
    /// enough shards that re-placing it again would be sabotage.
    Quarantined {
        /// Shard kills attributed to this request.
        kills: u32,
    },
    /// Dispatch failed (cascade exhausted) — the error, stringified.
    Failed {
        /// What went wrong.
        error: String,
    },
}

/// The requester's handle on an admitted request.
#[derive(Debug)]
pub struct ServeTicket {
    rx: Receiver<ServeOutcome>,
    lineage: u64,
}

impl ServeTicket {
    /// Block until this request resolves to its one accounted outcome.
    pub fn wait(self) -> ServeOutcome {
        self.rx.recv().unwrap_or(ServeOutcome::Failed {
            error: "shard dropped the request (worker exited)".into(),
        })
    }

    /// The request's lineage id (unique per admission, matches
    /// [`PanicRecord::lineage`]).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }
}

/// The model slot promotions publish into. A worker reads it when the
/// front's publication sequence moves past the version it serves.
#[derive(Debug)]
pub struct ModelSlot {
    /// Monotonic publication number (0 = the initial, possibly empty
    /// slot).
    pub version: u64,
    /// The artifact to serve with; `None` leaves shards degraded.
    pub artifact: Option<ModelArtifact>,
}

/// The write half of a ticket, and the one place a terminal outcome is
/// counted: `resolve` counts the outcome in the front's [`ServePulse`],
/// and dropping the slot without resolving counts a loss (a `NITRO114`
/// at shutdown) and still unblocks the waiter. Resolution is
/// exactly-once by construction — `resolve` consumes the slot.
struct ReplySlot {
    tx: Option<SyncSender<ServeOutcome>>,
    pulse: Arc<ServePulse>,
}

impl ReplySlot {
    fn resolve(mut self, outcome: ServeOutcome) {
        let p = &self.pulse;
        match &outcome {
            ServeOutcome::Served { .. } => p.served.inc(),
            ServeOutcome::ShedExpired { .. } => p.shed_expired.inc(),
            ServeOutcome::ShedHopeless { .. } => p.shed_hopeless.inc(),
            ServeOutcome::ShedFailover { .. } => p.shed_failover.inc(),
            ServeOutcome::Quarantined { .. } => p.poison_quarantined.inc(),
            ServeOutcome::Failed { .. } => p.failed.inc(),
        }
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(outcome);
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            self.pulse.lost.inc();
            let _ = tx.send(ServeOutcome::Failed {
                error: "request lost: reply slot dropped without an accounted outcome".into(),
            });
        }
    }
}

struct Job<I> {
    input: I,
    meta: RequestMeta,
    enqueued_ns: u64,
    /// Unique per admission; ties tickets, panic records and
    /// quarantine diagnostics to one request.
    lineage: u64,
    /// Shards this request's dispatch has killed so far.
    kills: u32,
    reply: ReplySlot,
}

/// Everything needed to rebuild a shard's worker: the caller's
/// registration factory plus the guard policy and the shared
/// breaker/health bank every shard participates in.
struct WorkerFactory<I> {
    make_cv: Arc<dyn Fn(usize) -> CodeVariant<I> + Send + Sync>,
    policy: GuardPolicy,
    shared: Arc<GuardShared>,
}

struct FrontInner<I> {
    config: ServeConfig,
    function: String,
    clock: ServeClock,
    queues: Vec<ShardQueue<Job<I>>>,
    tenants: TenantBuckets,
    tighten: AtomicU32,
    rr: AtomicU64,
    /// Written only by `publish_artifact`, which bumps `publish_seq`
    /// while it holds this lock.
    model: Mutex<ModelSlot>,
    /// The newest publication version. Workers compare it with the
    /// version they serve and lock `model` only when the two differ.
    publish_seq: AtomicU64,
    pulse: Arc<ServePulse>,
    lineage_seq: AtomicU64,
    slots: Vec<ShardSlot>,
    /// Jobs rescued off dying workers, awaiting re-placement:
    /// `(shard they died on, job)`.
    parked: Mutex<Vec<(usize, Job<I>)>>,
    panic_records: Mutex<Vec<PanicRecord>>,
    diagnostics: Mutex<Vec<Diagnostic>>,
    shutting_down: AtomicBool,
    worker_handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Handles of fenced-out (wedged) or retired workers; joined at
    /// shutdown if they finished, detached otherwise.
    zombie_handles: Mutex<Vec<JoinHandle<()>>>,
    factory: WorkerFactory<I>,
}

impl<I> FrontInner<I> {
    /// The published version and a copy of its artifact, read under the
    /// slot lock so the pair is consistent; the install runs unlocked.
    fn read_model(&self) -> (u64, Option<ModelArtifact>) {
        let slot = self.model.lock().expect("model slot lock");
        (slot.version, slot.artifact.clone())
    }

    /// Record a runtime diagnostic for the shutdown summary.
    fn diagnose(&self, diagnostic: Diagnostic) {
        self.diagnostics
            .lock()
            .expect("diagnostics")
            .push(diagnostic);
    }

    /// Move a shard's worker handle to the zombie list (joined at
    /// shutdown if it has finished by then).
    fn bury_worker(&self, shard: usize) {
        if let Some(handle) = self.worker_handles.lock().expect("worker handles")[shard].take() {
            self.zombie_handles
                .lock()
                .expect("zombie handles")
                .push(handle);
        }
    }
}

/// Aggregate outcome of a front door's lifetime, from
/// [`ServeFront::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Panics that escaped the guarded dispatch into a worker's
    /// backstop (0 in a healthy system; the guard absorbs variant
    /// panics). Each one has a matching [`PanicRecord`].
    pub escaped_panics: u64,
    /// Worker threads that exited cleanly.
    pub workers_joined: usize,
    /// Worker threads whose join failed — a panic got past even the
    /// backstop. Must be 0.
    pub workers_failed: usize,
    /// Shard deaths: panics that escaped dispatch and took the shard
    /// down.
    pub shard_deaths: u64,
    /// Supervisor restarts performed (`NITRO110`s).
    pub shard_restarts: u64,
    /// Shards retired on an exhausted restart budget (`NITRO111`s).
    pub shards_retired: u64,
    /// Final conservation accounting; `accounting.is_conserved()` must
    /// hold (otherwise `diagnostics` carries a `NITRO114`).
    /// `accounting.quarantined` counts the poison pills (`NITRO112`s).
    pub accounting: LineageAccounting,
    /// Every escaped panic, attributed to the request that caused it.
    pub panic_records: Vec<PanicRecord>,
    /// Startup warnings plus every `NITRO11x` the runtime emitted.
    pub diagnostics: Vec<Diagnostic>,
}

/// An overload-safe, sharded serving front door over one tuned
/// function. See the module docs for the pipeline.
pub struct ServeFront<I: Send + Sync + 'static> {
    inner: Arc<FrontInner<I>>,
    supervisor: JoinHandle<()>,
}

impl<I: Send + Sync + 'static> ServeFront<I> {
    /// Build and start the front door.
    ///
    /// `make_cv` constructs one registration per shard (shard index
    /// passed in); every shard must register the same function. Guards
    /// share one breaker/health/stats bank
    /// ([`GuardedVariant::new_sharing`]), so a variant quarantined on
    /// one shard is quarantined on all. The configuration audit
    /// (`NITRO100`–`NITRO104`) runs first and error findings refuse
    /// startup. The `serve.<fn>.*` metrics are registered in `registry`,
    /// or in a private registry when it is `None`; the front's
    /// accounting reads them either way.
    /// The factory is retained and re-invoked to rebuild dead shards,
    /// so it must be `Send + Sync + 'static`.
    pub fn start(
        config: ServeConfig,
        policy: GuardPolicy,
        clock: ServeClock,
        registry: Option<&MetricsRegistry>,
        make_cv: impl Fn(usize) -> CodeVariant<I> + Send + Sync + 'static,
    ) -> Result<Self> {
        let cv0 = make_cv(0);
        let function = cv0.name().to_string();
        let diagnostics = audit_serve_config(&function, &config, cv0.default_variant().is_some());
        if nitro_audit::has_errors(&diagnostics) {
            return Err(NitroError::Audit { diagnostics });
        }
        let capacity = config.queue_capacity.expect("audited Some");
        debug_assert!(capacity > 0, "audited nonzero");

        let mut guards = Vec::with_capacity(config.shards);
        let mut first = GuardedVariant::new(cv0, policy.clone())?;
        first.set_backoff_salt(0);
        let shared = first.shared();
        guards.push(first);
        for shard in 1..config.shards.max(1) {
            let cv = make_cv(shard);
            if cv.name() != function {
                return Err(NitroError::ModelMismatch {
                    detail: format!(
                        "shard {shard} registered '{}' but shard 0 registered '{function}'",
                        cv.name()
                    ),
                });
            }
            let mut guard = GuardedVariant::new_sharing(cv, policy.clone(), shared.clone())?;
            // Decorrelated retry backoff per shard (same seed, different
            // salt): shards that trip the same breaker don't thunder in
            // phase.
            guard.set_backoff_salt(shard as u64);
            guards.push(guard);
        }

        let supervision = config.supervision.clone();
        let factory = WorkerFactory {
            make_cv: Arc::new(make_cv),
            policy: policy.clone(),
            shared: shared.clone(),
        };

        let pulse = ServePulse::register(registry.unwrap_or(&MetricsRegistry::new()), &function);
        let shard_count = guards.len();
        let inner = Arc::new(FrontInner {
            queues: (0..shard_count).map(|_| ShardQueue::default()).collect(),
            tenants: TenantBuckets::new(
                config.tenant_slots,
                config.tenant_rate_per_s,
                config.tenant_burst,
            ),
            tighten: AtomicU32::new(0),
            rr: AtomicU64::new(0),
            model: Mutex::new(ModelSlot {
                version: 0,
                artifact: None,
            }),
            publish_seq: AtomicU64::new(0),
            pulse,
            lineage_seq: AtomicU64::new(0),
            slots: (0..shard_count).map(|_| ShardSlot::default()).collect(),
            parked: Mutex::new(Vec::new()),
            panic_records: Mutex::new(Vec::new()),
            // Keep the startup warnings (NITRO103/104): they belong in
            // the shutdown summary next to the runtime NITRO11x family.
            diagnostics: Mutex::new(diagnostics),
            shutting_down: AtomicBool::new(false),
            worker_handles: Mutex::new(Vec::new()),
            zombie_handles: Mutex::new(Vec::new()),
            factory,
            config,
            function,
            clock,
        });

        let handles: Vec<Option<JoinHandle<()>>> = guards
            .into_iter()
            .enumerate()
            .map(|(shard, guard)| {
                let inner = inner.clone();
                Some(
                    std::thread::Builder::new()
                        .name(format!("nitro-serve-{shard}"))
                        .spawn(move || worker_loop(shard, 0, 0, guard, inner))
                        .expect("spawn serve worker"),
                )
            })
            .collect();
        *inner.worker_handles.lock().expect("worker handles") = handles;

        let supervisor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("nitro-serve-supervisor".into())
                .spawn(move || supervisor_loop(inner, supervision))
                .expect("spawn serve supervisor")
        };

        Ok(Self { inner, supervisor })
    }

    /// The function this front door serves.
    pub fn function(&self) -> &str {
        &self.inner.function
    }

    /// Submit a request. Admission is synchronous and lock-free: the
    /// result is either a ticket (admitted — a worker will resolve it)
    /// or the reason it was turned away.
    pub fn submit(
        &self,
        input: I,
        meta: RequestMeta,
    ) -> std::result::Result<ServeTicket, Rejection> {
        let inner = &*self.inner;
        let now = inner.clock.now_ns();
        if meta.deadline.is_expired(now) {
            inner.pulse.rejected_expired.inc();
            return Err(Rejection::DeadlineExpired);
        }
        let shift = inner.tighten.load(Ordering::SeqCst);
        if !inner.tenants.try_take(meta.tenant, now, shift) {
            inner.pulse.rejected_tenant.inc();
            return Err(Rejection::TenantThrottled);
        }
        // Power of two choices on queue depth, over live shards only —
        // dead and retired shards are out of the placement set.
        let live: Vec<usize> = inner
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state() == ShardState::Up)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            inner.pulse.rejected_no_shard.inc();
            return Err(Rejection::NoLiveShards);
        }
        let n = live.len();
        let pa = (inner.rr.fetch_add(1, Ordering::Relaxed) as usize) % n;
        let pb = (pa + 1 + (meta.tenant.0 as usize)) % n;
        let (a, b) = (live[pa], live[pb]);
        let (da, db) = (inner.queues[a].depth(), inner.queues[b].depth());
        let (shard, depth) = if da <= db { (a, da) } else { (b, db) };

        let capacity = inner.config.queue_capacity.expect("audited Some");
        if depth >= admission_watermark(capacity, meta.priority, shift) {
            inner.pulse.rejected_queue.inc();
            return Err(Rejection::QueueFull { shard, depth });
        }

        let lineage = inner.lineage_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = sync_channel(1);
        let job = Job {
            input,
            meta,
            enqueued_ns: now,
            lineage,
            kills: 0,
            reply: ReplySlot {
                tx: Some(tx),
                pulse: inner.pulse.clone(),
            },
        };
        match inner.queues[shard].push(job, meta.priority) {
            Ok(()) => {
                inner.pulse.admitted.inc();
                Ok(ServeTicket { rx, lineage })
            }
            // Shutting down (or the shard retired between the state
            // read and the push): never admitted, so disarm the reply
            // slot — dropping it must not count a loss.
            Err(mut job) => {
                job.reply.tx = None;
                inner.pulse.rejected_queue.inc();
                Err(Rejection::QueueFull { shard, depth })
            }
        }
    }

    /// Publish a model artifact to every shard: workers pick it up on
    /// their next request. Returns the publication version. The version
    /// is taken and the slot stored under one lock, so of concurrent
    /// publishes the one with the highest version is the one served.
    pub fn publish_artifact(&self, artifact: ModelArtifact) -> u64 {
        let mut slot = self.inner.model.lock().expect("model slot lock");
        let version = self.inner.publish_seq.fetch_add(1, Ordering::SeqCst) + 1;
        *slot = ModelSlot {
            version,
            artifact: Some(artifact),
        };
        version
    }

    /// Swap-on-promote glue: publish a [`StagedPromotion`]'s current
    /// incumbent. Call it after `promote_now` / `observe` report a
    /// promotion (or rollback — this republishes whatever is current).
    pub fn publish_promotion(&self, promotion: &StagedPromotion) -> u64 {
        self.publish_artifact(promotion.current().clone())
    }

    /// The current model publication version (0 = none published).
    pub fn model_version(&self) -> u64 {
        self.inner.publish_seq.load(Ordering::SeqCst)
    }

    /// Feed a pulse alert into admission: a Page-severity latency
    /// regression on this function tightens admission one level
    /// (halving tenant rates and queue watermarks), up to
    /// `max_tighten`. Returns true when the alert applied.
    pub fn ingest_alert(&self, alert: &PulseAlert) -> bool {
        if !alert.is_page_latency_for(&self.inner.function) {
            return false;
        }
        let max = self.inner.config.max_tighten;
        let _ = self
            .inner
            .tighten
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                (t < max).then_some(t + 1)
            });
        self.inner
            .pulse
            .tightened
            .set(f64::from(self.inner.tighten.load(Ordering::SeqCst)));
        true
    }

    /// Relax admission one tighten level (the SLO stopped burning).
    pub fn relax(&self) {
        let _ = self
            .inner
            .tighten
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| t.checked_sub(1));
        self.inner
            .pulse
            .tightened
            .set(f64::from(self.inner.tighten.load(Ordering::SeqCst)));
    }

    /// Current tighten level (0 = wide open).
    pub fn tighten_level(&self) -> u32 {
        self.inner.tighten.load(Ordering::SeqCst)
    }

    /// Current depth of every shard queue.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.inner.queues.iter().map(|q| q.depth()).collect()
    }

    /// Lifecycle state of every shard, as the supervisor sees it.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.inner.slots.iter().map(|s| s.state()).collect()
    }

    /// A mid-flight read of the lineage accounting. Only the
    /// post-shutdown read (in [`ServeSummary`]) is a conservation check:
    /// while requests are in flight, queued requests make `admitted`
    /// exceed the terminal sum, and admission is counted after the push,
    /// so a request can resolve before its admission is counted — the
    /// read can be off in either direction.
    pub fn accounting(&self) -> LineageAccounting {
        LineageAccounting::read(&self.inner.pulse)
    }

    /// Close the queues, drain remaining work, join every worker, then
    /// sweep anything left on dead shards so every admitted request has
    /// resolved before the summary's conservation check runs.
    pub fn shutdown(self) -> ServeSummary {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        for q in &self.inner.queues {
            q.close();
        }
        let _ = self.supervisor.join();
        let workers: Vec<JoinHandle<()>> = self
            .inner
            .worker_handles
            .lock()
            .expect("worker handles")
            .drain(..)
            .flatten()
            .collect();
        let zombies =
            std::mem::take(&mut *self.inner.zombie_handles.lock().expect("zombie handles"));
        // Join the live workers, then every zombie that has finished. A
        // still-wedged zombie can never be joined without hanging
        // shutdown; detach it. Its in-flight job (if any) resolves
        // whenever it unwedges.
        let (mut joined, mut failed) = (0, 0);
        for handle in workers
            .into_iter()
            .chain(zombies.into_iter().filter(|z| z.is_finished()))
        {
            if handle.join().is_ok() {
                joined += 1;
            } else {
                failed += 1;
            }
        }
        // Final sweep: dead/retired shards have no worker to drain
        // their queues, and parked jobs may still await re-placement.
        // Queues are closed, so every rescue resolves (re-push fails →
        // failover shed) — nothing can be admitted or lost after this.
        for shard in 0..self.inner.queues.len() {
            drain_shard(&self.inner, shard);
        }
        replace_parked(&self.inner);

        let pulse = &self.inner.pulse;
        let accounting = LineageAccounting::read(pulse);
        let mut diagnostics =
            std::mem::take(&mut *self.inner.diagnostics.lock().expect("diagnostics"));
        if !accounting.is_conserved() {
            diagnostics.push(diag_conservation(&self.inner.function, &accounting));
        }
        ServeSummary {
            escaped_panics: pulse.panics.value(),
            workers_joined: joined,
            workers_failed: failed,
            shard_deaths: pulse.shard_deaths.value(),
            shard_restarts: pulse.shard_restarts.value(),
            shards_retired: pulse.shard_retired.value(),
            accounting,
            panic_records: std::mem::take(
                &mut *self.inner.panic_records.lock().expect("panic records"),
            ),
            diagnostics,
        }
    }
}

fn worker_loop<I: Send + Sync + 'static>(
    shard: usize,
    generation: u64,
    initial_version: u64,
    mut guard: GuardedVariant<I>,
    inner: Arc<FrontInner<I>>,
) {
    let mut cache = RegimeCache::default();
    let mut local_version = initial_version;
    // Smoothed service-time estimate (EWMA, α = 1/8), ns. Zero until
    // the first completion; hopeless-shedding stays off until then.
    // Each hopeless shed counts as a zero-cost sample, so one slow
    // dispatch cannot lift the estimate above every budget for good.
    let mut ewma_ns = 0.0f64;
    let capacity = inner.config.queue_capacity.expect("audited Some");
    let slot = &inner.slots[shard];

    loop {
        if slot.generation.load(Ordering::SeqCst) != generation {
            break; // fenced out: a replacement owns this queue now
        }
        slot.heartbeat_ns
            .store(inner.clock.now_ns(), Ordering::SeqCst);
        let Some(job) = inner.queues[shard].pop() else {
            break; // closed and drained
        };
        let now = inner.clock.now_ns();

        // Shed *before* dispatch — work is never started for a request
        // that can no longer meet its deadline.
        if job.meta.deadline.is_expired(now) {
            job.reply.resolve(ServeOutcome::ShedExpired {
                queued_ns: now.saturating_sub(job.enqueued_ns),
            });
            continue;
        }
        let remaining = job.meta.deadline.remaining_ns(now);
        if inner.config.hopeless_shedding && ewma_ns > 0.0 && (remaining as f64) < ewma_ns {
            job.reply.resolve(ServeOutcome::ShedHopeless {
                remaining_ns: remaining,
                estimate_ns: ewma_ns as u64,
            });
            ewma_ns -= ewma_ns / 8.0;
            continue;
        }

        // Model hot-swap: pick up a newer publication before dispatching.
        if inner.publish_seq.load(Ordering::SeqCst) != local_version {
            let (version, artifact) = inner.read_model();
            if let Some(artifact) = artifact {
                guard.install_artifact_or_degrade(artifact);
            }
            cache.clear();
            local_version = version;
            inner.pulse.hotswap_installs.inc();
        }

        let shift = inner.tighten.load(Ordering::SeqCst);
        let tier = tier_for(
            inner.queues[shard].depth(),
            capacity,
            inner.config.soft_degrade,
            inner.config.hard_degrade,
            shift,
        );

        let started = inner.clock.now_ns();
        // Busy + fresh heartbeat while inside the dispatch, so the
        // supervisor can tell "wedged mid-dispatch" from "idle". Guarded
        // by generation so a fenced-out zombie doesn't clobber its
        // replacement's liveness signals.
        if slot.generation.load(Ordering::SeqCst) == generation {
            slot.heartbeat_ns.store(started, Ordering::SeqCst);
            slot.busy.store(1, Ordering::SeqCst);
        }
        // The guard already isolates variant panics; this is the
        // backstop for panics from feature evaluation or the dispatch
        // plumbing itself.
        let result = catch_unwind(AssertUnwindSafe(|| {
            dispatch_at_tier(&guard, &mut cache, tier, &job.input)
        }));
        if slot.generation.load(Ordering::SeqCst) == generation {
            slot.busy.store(0, Ordering::SeqCst);
        }
        let finished = inner.clock.now_ns();
        let dispatch_ns = finished.saturating_sub(started);
        let queue_wait_ns = started.saturating_sub(job.enqueued_ns);

        match result {
            Ok(Ok(inv)) => {
                ewma_ns = if ewma_ns == 0.0 {
                    dispatch_ns as f64
                } else {
                    ewma_ns + (dispatch_ns as f64 - ewma_ns) / 8.0
                };
                let deadline_met = !job.meta.deadline.is_expired(finished);
                let p = &inner.pulse;
                p.dispatch_latency_ns.record(dispatch_ns as f64);
                p.queue_wait_ns.record(queue_wait_ns as f64);
                p.e2e_latency_ns
                    .record(finished.saturating_sub(job.meta.deadline.issued_ns) as f64);
                match tier {
                    DegradeTier::Full => {}
                    DegradeTier::CachedRegime => p.degrade_cached.inc(),
                    DegradeTier::DefaultOnly => p.degrade_default.inc(),
                }
                if !deadline_met {
                    p.deadline_violations.inc();
                }
                job.reply.resolve(ServeOutcome::Served {
                    variant: inv.variant,
                    variant_name: inv.variant_name,
                    objective: inv.objective,
                    tier,
                    queue_wait_ns,
                    dispatch_ns,
                    deadline_met,
                    fell_back: inv.fell_back,
                });
            }
            Ok(Err(e)) => {
                job.reply.resolve(ServeOutcome::Failed {
                    error: e.to_string(),
                });
            }
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                handle_escaped_panic(shard, generation, job, detail, &inner);
                break; // the shard is dead; the supervisor takes over
            }
        }
    }
}

/// Account an escaped panic against the request that caused it: the
/// shard slot is marked dead with its restart backoff armed, then the
/// job is parked for re-placement (or quarantined as a poison pill). The
/// worker must exit afterwards.
fn handle_escaped_panic<I: Send + Sync + 'static>(
    shard: usize,
    generation: u64,
    mut job: Job<I>,
    detail: String,
    inner: &Arc<FrontInner<I>>,
) {
    inner.pulse.panics.inc();
    inner
        .panic_records
        .lock()
        .expect("panic records")
        .push(PanicRecord {
            shard,
            generation,
            lineage: job.lineage,
            tenant: job.meta.tenant.0,
            priority: format!("{:?}", job.meta.priority),
            detail,
        });

    // The shard goes down before its job is parked or resolved: a
    // parked job must not be re-placed onto this dying shard, and a
    // caller woken by the resolution must find the shard Dead with its
    // restart backoff already armed.
    let sup = &inner.config.supervision;
    let slot = &inner.slots[shard];
    let restarts = slot.restarts.load(Ordering::SeqCst);
    let backoff = sup
        .restart_backoff_base_ns
        .saturating_mul(1u64 << restarts.min(20));
    slot.next_restart_at_ns.store(
        inner.clock.now_ns().saturating_add(backoff),
        Ordering::SeqCst,
    );
    slot.set_state(ShardState::Dead);
    inner.pulse.shard_deaths.inc();

    job.kills += 1;
    let kills = job.kills;
    if kills >= sup.poison_kill_threshold {
        inner.diagnose(diag_poison_quarantine(
            &inner.function,
            job.lineage,
            job.meta.tenant.0,
            kills,
        ));
        job.reply.resolve(ServeOutcome::Quarantined { kills });
    } else {
        inner.parked.lock().expect("parked").push((shard, job));
    }
}

/// The supervisor: polls every shard slot, drains and restarts dead
/// shards (within budget and backoff), fences and replaces wedged
/// workers, retires shards that keep dying, and re-places parked work.
fn supervisor_loop<I: Send + Sync + 'static>(inner: Arc<FrontInner<I>>, sup: SupervisorConfig) {
    loop {
        let shutting_down = inner.shutting_down.load(Ordering::SeqCst);
        let now = inner.clock.now_ns();
        for shard in 0..inner.slots.len() {
            let slot = &inner.slots[shard];
            match slot.state() {
                ShardState::Up => {
                    if !shutting_down
                        && slot.busy.load(Ordering::SeqCst) == 1
                        && now.saturating_sub(slot.heartbeat_ns.load(Ordering::SeqCst))
                            > sup.heartbeat_stale_ns
                    {
                        replace_wedged(&inner, &sup, shard, now);
                    }
                }
                ShardState::Dead => {
                    // Rescue queued work first — the restart may still
                    // be in backoff and those requests have deadlines.
                    drain_shard(&inner, shard);
                    let restarts = slot.restarts.load(Ordering::SeqCst);
                    if shutting_down {
                        // No restarts mid-shutdown; the final sweep
                        // rescues anything left.
                    } else if restarts >= sup.restart_budget {
                        retire_shard(&inner, shard, restarts, "restart budget exhausted");
                    } else if now >= slot.next_restart_at_ns.load(Ordering::SeqCst) {
                        restart_shard(&inner, &sup, shard, restarts);
                    }
                }
                ShardState::Retired => {}
            }
        }
        replace_parked(&inner);
        if shutting_down {
            break;
        }
        std::thread::sleep(sup.tick);
    }
}

/// Restart a dead shard: join the exited worker, bump the generation,
/// mark the shard Up and spawn its replacement.
fn restart_shard<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    sup: &SupervisorConfig,
    shard: usize,
    restarts: u32,
) {
    if let Some(handle) = inner.worker_handles.lock().expect("worker handles")[shard].take() {
        let _ = handle.join(); // the dead worker already exited
    }
    let slot = &inner.slots[shard];
    let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1;
    slot.heartbeat_ns
        .store(inner.clock.now_ns(), Ordering::SeqCst);
    slot.busy.store(0, Ordering::SeqCst);
    slot.set_state(ShardState::Up);
    respawn(inner, sup, shard, generation, restarts);
}

/// Fence out a wedged (busy, heartbeat-stale) worker and spawn a
/// replacement on the same queue, or retire the shard when its budget
/// is spent. The zombie exits on its own the next time it reaches a
/// generation check.
fn replace_wedged<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    sup: &SupervisorConfig,
    shard: usize,
    now: u64,
) {
    let slot = &inner.slots[shard];
    let generation = slot.generation.fetch_add(1, Ordering::SeqCst) + 1; // fence the zombie
    slot.busy.store(0, Ordering::SeqCst);
    slot.heartbeat_ns.store(now, Ordering::SeqCst);
    inner.bury_worker(shard);
    let restarts = slot.restarts.load(Ordering::SeqCst);
    if restarts >= sup.restart_budget {
        retire_shard(inner, shard, restarts, "wedged with no restart budget left");
    } else {
        respawn(inner, sup, shard, generation, restarts);
    }
}

/// Spawn generation `generation` of a shard's worker and count the
/// restart (`NITRO110`); retire the shard if the worker cannot be built.
/// The restart is consumed before the spawn, so a replacement that dies
/// at once arms its backoff from the new count.
fn respawn<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    sup: &SupervisorConfig,
    shard: usize,
    generation: u64,
    restarts: u32,
) {
    inner.slots[shard]
        .restarts
        .store(restarts + 1, Ordering::SeqCst);
    match spawn_worker(inner, shard, generation) {
        Ok(handle) => {
            inner.worker_handles.lock().expect("worker handles")[shard] = Some(handle);
            inner.pulse.shard_restarts.inc();
            inner.diagnose(diag_shard_restart(
                &inner.function,
                shard,
                generation,
                restarts + 1,
                sup.restart_budget,
            ));
        }
        Err(e) => retire_shard(
            inner,
            shard,
            restarts,
            &format!("replacement worker failed to build: {e}"),
        ),
    }
}

/// Permanently take a shard out of rotation (`NITRO111`): close and
/// drain its queue, fold its worker handle into the zombie list.
fn retire_shard<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    shard: usize,
    restarts: u32,
    detail: &str,
) {
    inner.slots[shard].set_state(ShardState::Retired);
    inner.queues[shard].close();
    drain_shard(inner, shard); // rescue anything that raced in before the close
    inner.pulse.shard_retired.inc();
    inner.diagnose(diag_restart_budget(
        &inner.function,
        shard,
        restarts,
        detail,
    ));
    inner.bury_worker(shard);
}

/// Build and spawn a replacement worker for `shard`, re-seeded from the
/// current model slot so it comes up serving the same version its
/// predecessor did.
fn spawn_worker<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    shard: usize,
    generation: u64,
) -> Result<JoinHandle<()>> {
    let factory = &inner.factory;
    let cv = catch_unwind(AssertUnwindSafe(|| (factory.make_cv)(shard))).map_err(|_| {
        NitroError::ModelMismatch {
            detail: format!("shard {shard} registration factory panicked while rebuilding"),
        }
    })?;
    if cv.name() != inner.function {
        return Err(NitroError::ModelMismatch {
            detail: format!(
                "shard {shard} rebuilt '{}' but the front serves '{}'",
                cv.name(),
                inner.function
            ),
        });
    }
    let mut guard =
        GuardedVariant::new_sharing(cv, factory.policy.clone(), factory.shared.clone())?;
    // A fresh backoff salt per incarnation keeps restarted shards
    // decorrelated from both their peers and their predecessors.
    guard.set_backoff_salt((shard as u64) ^ (generation << 32));
    let (initial_version, artifact) = inner.read_model();
    if let Some(artifact) = artifact {
        guard.install_artifact_or_degrade(artifact);
    }
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(format!("nitro-serve-{shard}-g{generation}"))
        .spawn(move || worker_loop(shard, generation, initial_version, guard, inner))
        .map_err(NitroError::Io)
}

/// Drain every job off a shard's queue and route each back through
/// placement (used for dead and retiring shards, and the shutdown
/// sweep).
fn drain_shard<I: Send + Sync + 'static>(inner: &Arc<FrontInner<I>>, shard: usize) {
    let jobs = inner.queues[shard].drain();
    if jobs.is_empty() {
        return;
    }
    inner.pulse.drained.add(jobs.len() as u64);
    for job in jobs {
        replace_job(inner, shard, job);
    }
}

/// Re-place every parked job (rescued from dying workers).
fn replace_parked<I: Send + Sync + 'static>(inner: &Arc<FrontInner<I>>) {
    let parked: Vec<(usize, Job<I>)> =
        std::mem::take(&mut *inner.parked.lock().expect("parked jobs"));
    for (shard, job) in parked {
        replace_job(inner, shard, job);
    }
}

/// Route one rescued job back through admission: shed if expired,
/// re-place onto the shallowest live shard under its watermark,
/// otherwise shed as failover. Exactly one outcome, always.
fn replace_job<I: Send + Sync + 'static>(
    inner: &Arc<FrontInner<I>>,
    from_shard: usize,
    job: Job<I>,
) {
    let now = inner.clock.now_ns();
    if job.meta.deadline.is_expired(now) {
        job.reply.resolve(ServeOutcome::ShedExpired {
            queued_ns: now.saturating_sub(job.enqueued_ns),
        });
        return;
    }
    let capacity = inner.config.queue_capacity.expect("audited Some");
    let shift = inner.tighten.load(Ordering::SeqCst);
    let best = (0..inner.slots.len())
        .filter(|&i| inner.slots[i].state() == ShardState::Up)
        .map(|i| (i, inner.queues[i].depth()))
        .min_by_key(|&(_, depth)| depth);
    let priority = job.meta.priority;
    let job = match best {
        Some((target, depth)) if depth < admission_watermark(capacity, priority, shift) => {
            match inner.queues[target].push(job, priority) {
                Ok(()) => return, // re-placed; it resolves on the new shard
                Err(returned) => returned,
            }
        }
        _ => job,
    };
    job.reply.resolve(ServeOutcome::ShedFailover { from_shard });
}

/// Serve one request at `tier` through the guard's one dispatch loop.
/// The tier only picks the preferred head: none at `Full`, the regime
/// cache's variant (over the features evaluated for the lookup) at
/// `CachedRegime`, the default with no features evaluated at
/// `DefaultOnly`. A regime bucket spans a 2× range per feature, so the
/// cached head may be vetoed for this input; the guard then plans the
/// model cascade as on a miss. The served variant is remembered for its
/// regime.
fn dispatch_at_tier<I: Sync>(
    guard: &GuardedVariant<I>,
    cache: &mut RegimeCache,
    tier: DegradeTier,
    input: &I,
) -> Result<GuardedInvocation> {
    match tier {
        DegradeTier::Full => guard.call(input),
        DegradeTier::CachedRegime => {
            let features = guard.inner().evaluate_features(input);
            let fp = regime_fingerprint(&features.0);
            let inv = guard.call_preferring(input, cache.lookup(fp), Some(features))?;
            cache.insert(fp, inv.variant);
            Ok(inv)
        }
        DegradeTier::DefaultOnly => {
            guard.call_preferring(input, guard.inner().default_variant(), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnConstraint, FnFeature, FnVariant};
    use nitro_ml::{ClassifierConfig, Dataset, TrainedModel};

    /// `large` is the model's pick everywhere but is vetoed from 5 up;
    /// `small` is the default. Every feature evaluation bumps `evals`.
    fn vetoing_guard(evals: Arc<AtomicU64>) -> GuardedVariant<f64> {
        let mut cv = CodeVariant::new("veto", &Context::new());
        cv.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", move |&x: &f64| {
            evals.fetch_add(1, Ordering::SeqCst);
            x
        }));
        cv.add_constraint(1, FnConstraint::new("x < 5", |&x: &f64| x < 5.0))
            .unwrap();
        let data = Dataset::from_parts((0..4).map(|i| vec![f64::from(i)]).collect(), vec![1; 4]);
        cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data));
        GuardedVariant::new(cv, GuardPolicy::default()).unwrap()
    }

    #[test]
    fn a_dropped_reply_slot_counts_a_loss_and_fails_the_waiter() {
        let registry = MetricsRegistry::with_stripes(2);
        let pulse = ServePulse::register(&registry, "drop");
        let (tx, rx) = sync_channel(1);
        drop(ReplySlot {
            tx: Some(tx),
            pulse: pulse.clone(),
        });
        assert_eq!(registry.counter_value("serve.drop.lost"), Some(1));
        let outcome = ServeTicket { rx, lineage: 1 }.wait();
        assert!(
            matches!(&outcome, ServeOutcome::Failed { error } if error.contains("request lost")),
            "{outcome:?}"
        );
        let accounting = LineageAccounting::read(&pulse);
        assert_eq!(accounting.terminals(), 0, "a loss is no terminal outcome");
        assert!(!accounting.is_conserved());
    }

    #[test]
    fn cached_regime_honours_constraint_vetoes() {
        let evals = Arc::new(AtomicU64::new(0));
        let guard = vetoing_guard(evals.clone());
        let mut cache = RegimeCache::default();
        // 4.5 and 6 share the [4, 8) bucket, but only 4.5 passes `large`'s
        // constraint.
        assert_eq!(regime_fingerprint(&[4.5]), regime_fingerprint(&[6.0]));

        let first = dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &4.5).unwrap();
        assert_eq!(first.variant_name, "large", "a miss runs the full cascade");
        let second = dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &6.0).unwrap();
        assert_eq!(
            second.variant_name, "small",
            "the cached `large` is vetoed for 6, so the veto is a miss"
        );
        assert!(guard.inner().constraints_satisfied(second.variant, &6.0));
        // Both requests missed, and each evaluated its features once: the
        // guarded call reused the features of the cache lookup.
        assert_eq!(evals.load(Ordering::SeqCst), 2);
    }

    /// `vetoing_guard` with one variant replaced by one that panics while
    /// `failing` is set.
    fn guard_with_failing(
        evals: Arc<AtomicU64>,
        variant: usize,
        failing: Arc<AtomicBool>,
    ) -> GuardedVariant<f64> {
        let mut guard = vetoing_guard(evals);
        let name = guard.inner().variant_names()[variant].clone();
        let healthy = guard.inner().variant(variant).unwrap();
        guard
            .inner_mut()
            .replace_variant(
                variant,
                Arc::new(FnVariant::new(name, move |x: &f64| {
                    if failing.load(Ordering::SeqCst) {
                        panic!("injected variant failure");
                    }
                    healthy.invoke(x)
                })),
            )
            .unwrap();
        guard
    }

    /// Counts the dispatches reported to the observer hook.
    #[derive(Default)]
    struct Observed(AtomicU64);

    impl nitro_core::DispatchObserver for Observed {
        fn on_dispatch(&self, _: &nitro_core::DispatchObservation<'_>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_degraded_tier_request_is_one_guarded_call() {
        let evals = Arc::new(AtomicU64::new(0));
        let mut guard = vetoing_guard(evals);
        let observed = Arc::new(Observed::default());
        guard.inner_mut().set_dispatch_observer(observed.clone());
        let mut cache = RegimeCache::default();
        for x in [1.0, 2.0, 3.0] {
            dispatch_at_tier(&guard, &mut cache, DegradeTier::DefaultOnly, &x).unwrap();
        }
        assert_eq!(guard.stats().calls, 3);
        // A miss, then a hit on the same [2, 4) regime.
        for x in [2.0, 3.0] {
            dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &x).unwrap();
        }
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(guard.stats().calls, 5);
        assert_eq!(observed.0.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn repeated_failures_of_a_cached_variant_quarantine_it() {
        // `mid` wins at 4, `large` from 5 up: 4.2 and 6 share the [4, 8)
        // regime, so a miss at 4.2 caches `mid` for hits at 6, where the
        // model's cascade would never reach `mid`.
        let failing = Arc::new(AtomicBool::new(false));
        let mut cv = CodeVariant::new("three", &Context::new());
        cv.add_variant(FnVariant::new("small", |&x: &f64| 1.0 + x));
        let flag = failing.clone();
        cv.add_variant(FnVariant::new("mid", move |&x: &f64| {
            if flag.load(Ordering::SeqCst) {
                panic!("injected variant failure");
            }
            5.0 + x
        }));
        cv.add_variant(FnVariant::new("large", |&x: &f64| 10.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        let labels = (0..10)
            .map(|i| match i {
                0..=3 => 0,
                4 => 1,
                _ => 2,
            })
            .collect();
        let data = Dataset::from_parts((0..10).map(|i| vec![f64::from(i)]).collect(), labels);
        cv.install_model(TrainedModel::train(&ClassifierConfig::Knn { k: 1 }, &data));
        let guard = GuardedVariant::new(cv, GuardPolicy::default()).unwrap();
        let mut cache = RegimeCache::default();

        let miss = dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &4.2).unwrap();
        assert_eq!(miss.variant_name, "mid");
        failing.store(true, Ordering::SeqCst);
        for _ in 0..2 {
            let hit =
                dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &6.0).unwrap();
            assert_eq!(hit.variant_name, "large");
        }
        assert!(
            guard.is_quarantined(1),
            "the cached variant's failures reach its breaker"
        );
        assert_eq!(guard.stats().quarantines, 1);
    }

    #[test]
    fn a_failing_default_is_attempted_once_per_request() {
        let runs = Arc::new(AtomicU64::new(0));
        let mut guard = vetoing_guard(Arc::new(AtomicU64::new(0)));
        let counted = runs.clone();
        guard
            .inner_mut()
            .replace_variant(
                0,
                Arc::new(FnVariant::new("small", move |_: &f64| -> f64 {
                    counted.fetch_add(1, Ordering::SeqCst);
                    panic!("injected variant failure")
                })),
            )
            .unwrap();
        let mut cache = RegimeCache::default();
        // At 6 `large` is vetoed: the default is the whole cascade.
        assert!(dispatch_at_tier(&guard, &mut cache, DegradeTier::DefaultOnly, &6.0).is_err());
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1 + u64::from(GuardPolicy::default().retry_budget),
            "one retry budget, not a second pass through the cascade"
        );
        assert!(guard.is_quarantined(0));
    }

    #[test]
    fn default_only_serves_a_healthy_default_without_features() {
        let evals = Arc::new(AtomicU64::new(0));
        let guard = vetoing_guard(evals.clone());
        let mut cache = RegimeCache::default();
        for x in [2.0, 9.0] {
            let d = dispatch_at_tier(&guard, &mut cache, DegradeTier::DefaultOnly, &x).unwrap();
            assert_eq!(d.variant_name, "small");
            assert_eq!(d.objective, 1.0 + x);
        }
        assert_eq!(evals.load(Ordering::SeqCst), 0, "no feature evaluation");
    }

    #[test]
    fn default_only_with_the_default_quarantined_serves_from_the_cascade() {
        let evals = Arc::new(AtomicU64::new(0));
        let guard = guard_with_failing(evals.clone(), 0, Arc::new(AtomicBool::new(true)));
        // At 6 `large` is vetoed, so the cascade is the failing default
        // alone: one call spends its retries and trips the breaker.
        assert!(guard.call(&6.0).is_err());
        assert!(guard.is_quarantined(0));

        let mut cache = RegimeCache::default();
        let d = dispatch_at_tier(&guard, &mut cache, DegradeTier::DefaultOnly, &2.0).unwrap();
        assert_eq!(d.variant_name, "large", "the model's pick, allowed at 2");
        assert_eq!(d.objective, 10.0 - 2.0);
    }

    #[test]
    fn cached_regime_hit_that_panics_falls_through_to_the_cascade() {
        let evals = Arc::new(AtomicU64::new(0));
        let failing = Arc::new(AtomicBool::new(false));
        let guard = guard_with_failing(evals, 1, failing.clone());
        let mut cache = RegimeCache::default();
        // 2 and 3 share the [2, 4) bucket; the miss at 2 caches `large`.
        let first = dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &2.0).unwrap();
        assert_eq!(first.variant_name, "large");

        failing.store(true, Ordering::SeqCst);
        let second = dispatch_at_tier(&guard, &mut cache, DegradeTier::CachedRegime, &3.0).unwrap();
        assert_eq!(second.variant_name, "small", "served past the failure");
        assert_eq!(second.objective, 1.0 + 3.0);
        assert!(second.fell_back);
    }
}
