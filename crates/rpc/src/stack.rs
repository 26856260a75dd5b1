//! The per-host RPC stack.

use aequitas::{AdmissionController, AequitasConfig, QuotaBucket, TenantId};
use aequitas_netsim::{HostCtx, HostId, Packet};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::{labels, MetricId, Telemetry, TraceEvent};
use aequitas_transport::{Transport, TransportConfig};
use aequitas_workloads::{size_in_mtus, Priority, QosClass, QosMapping};

/// The admission policy plugged into the stack.
pub enum Policy {
    /// No admission control: RPCs always run on their requested QoS
    /// (the paper's "w/o Aequitas" baseline after Phase 1 alignment).
    Static,
    /// Aequitas Phase 2: Algorithm 1 admission control.
    Aequitas(AdmissionController),
    /// Ablation: Algorithm 1 decisions, but unadmitted RPCs are **dropped**
    /// (rejected back to the application) instead of downgraded — the
    /// traditional admission-control model the paper departs from.
    AequitasDropExcess(AdmissionController),
    /// Aequitas augmented with the §5.2 quota-server extension: RPCs
    /// covered by the tenant's granted token rate bypass the admission
    /// coin flip (they are within a guaranteed share); the rest compete
    /// through Algorithm 1 as usual.
    AequitasWithQuota {
        /// The Algorithm 1 controller for beyond-quota traffic.
        controller: AdmissionController,
        /// This host's tenant.
        tenant: TenantId,
        /// QoS level the quota applies to.
        quota_qos: u8,
        /// Token bucket refilled at the granted rate.
        bucket: QuotaBucket,
        /// Offered bytes on `quota_qos` since the last usage report.
        offered_since_report: u64,
    },
}

impl Policy {
    /// Build the Aequitas policy from a config and seed.
    pub fn aequitas(config: AequitasConfig, seed: u64) -> Policy {
        Policy::Aequitas(AdmissionController::new(config, seed))
    }

    /// Build the quota-augmented policy. The bucket starts at rate 0 until
    /// the first grant arrives.
    pub fn aequitas_with_quota(
        config: AequitasConfig,
        seed: u64,
        tenant: TenantId,
        quota_qos: u8,
    ) -> Policy {
        Policy::AequitasWithQuota {
            controller: AdmissionController::new(config, seed),
            tenant,
            quota_qos,
            bucket: QuotaBucket::new(0.0, 0.01, SimTime::ZERO),
            offered_since_report: 0,
        }
    }
}

/// Timer token reserved by the RPC stack for its retry queue. Sits below
/// [`aequitas_transport::TRANSPORT_TIMER_BASE`] (`1 << 62`, transport-owned)
/// and far above the small token values application drivers use.
pub const RPC_RETRY_TIMER: u64 = 1 << 61;

/// Per-RPC retry policy applied when the transport abandons a message
/// (its own per-segment retry budget ran out — see
/// [`aequitas_transport::TransportConfig::max_retries`]).
///
/// Retries back off exponentially and are *deadline-propagating*: a retry
/// is never re-issued at or past the caller's deadline, so a retried RPC
/// cannot outlive the deadline budget it was issued under.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Total send attempts per RPC, including the first. 1 disables
    /// RPC-level retries entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub backoff: SimDuration,
    /// Multiplier applied to the backoff per further retry.
    pub backoff_factor: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            backoff: SimDuration::from_us(200),
            backoff_factor: 2.0,
        }
    }
}

impl RetryConfig {
    /// Backoff before attempt `next_attempt` (2-based: the first retry is
    /// attempt 2 and waits `backoff`; each later one multiplies by
    /// `backoff_factor`).
    fn delay_before(&self, next_attempt: u32) -> SimDuration {
        debug_assert!(next_attempt >= 2);
        let exp = (next_attempt - 2).min(30);
        self.backoff
            .mul_f64(self.backoff_factor.max(1.0).powi(exp as i32))
    }
}

/// An RPC abandoned for good: every transport attempt failed and the retry
/// budget or the caller's deadline ran out.
#[derive(Debug, Clone, Copy)]
pub struct RpcFailure {
    /// The id returned by `issue_rpc` for the original attempt.
    pub rpc_id: u64,
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Application priority class.
    pub priority: Priority,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// When the first attempt was issued.
    pub first_issued_at: SimTime,
    /// When the stack gave up.
    pub failed_at: SimTime,
    /// Send attempts made (>= 1).
    pub attempts: u32,
}

/// A completed RPC with its full QoS history and RNL.
#[derive(Debug, Clone, Copy)]
pub struct RpcCompletion {
    /// Sender-unique RPC id (the id `issue_rpc` returned; stable across
    /// stack-level retries).
    pub rpc_id: u64,
    /// Sending host (the channel's source).
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Application priority class.
    pub priority: Priority,
    /// The QoS the application's priority mapped to.
    pub qos_requested: QosClass,
    /// The QoS the RPC actually ran on (differs when downgraded).
    pub qos_run: QosClass,
    /// Whether admission control downgraded the RPC (surfaced to the
    /// application, Algorithm 1 lines 10–11).
    pub downgraded: bool,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// RNL `t0`: first byte handed to the transport (the *first* attempt
    /// when the stack retried — RNL spans the whole retry saga).
    pub issued_at: SimTime,
    /// RNL `t1`: last byte acknowledged.
    pub completed_at: SimTime,
    /// Send attempts it took (1 = completed without RPC-level retries).
    pub attempts: u32,
}

impl RpcCompletion {
    /// The RPC Network Latency.
    pub fn rnl(&self) -> SimDuration {
        self.completed_at.since(self.issued_at)
    }

    /// RNL divided by size in MTUs (the paper's normalized latency).
    pub fn rnl_per_mtu(&self) -> SimDuration {
        self.rnl() / size_in_mtus(self.size_bytes)
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingRpc {
    priority: Priority,
    qos_requested: QosClass,
    qos_run: QosClass,
    downgraded: bool,
    dst: HostId,
    size_bytes: u64,
    /// Id `issue_rpc` returned (retried attempts get fresh transport ids).
    first_rpc_id: u64,
    first_issued_at: SimTime,
    deadline: Option<SimTime>,
    /// 1-based attempt number of the in-flight transport message.
    attempt: u32,
}

/// A retry waiting for its backoff to elapse.
#[derive(Debug, Clone, Copy)]
struct QueuedRetry {
    due: SimTime,
    dst: HostId,
    priority: Priority,
    size_bytes: u64,
    first_rpc_id: u64,
    first_issued_at: SimTime,
    deadline: Option<SimTime>,
    /// Attempt number this retry will run as.
    attempt: u32,
}

/// Outstanding-RPC table keyed by rpc id. Ids are allocated monotonically
/// (`(host << 32) + counter`), so a ring offset from the oldest live id
/// replaces hashing: insert is a `push_back`, lookup is a subtract + index.
/// Completed slots become `None` and the front is trimmed lazily, so the
/// ring length tracks the *span* of outstanding ids, which windowing keeps
/// small.
#[derive(Debug, Default)]
struct PendingTable {
    base: u64,
    ring: std::collections::VecDeque<Option<PendingRpc>>,
    live: usize,
}

impl PendingTable {
    /// Insert `info` under `id`; ids must arrive in allocation order.
    fn insert(&mut self, id: u64, info: PendingRpc) {
        if self.ring.is_empty() {
            self.base = id;
        }
        debug_assert_eq!(id, self.base + self.ring.len() as u64);
        self.ring.push_back(Some(info));
        self.live += 1;
    }

    fn remove(&mut self, id: u64) -> Option<PendingRpc> {
        let idx = id.checked_sub(self.base)? as usize;
        let info = self.ring.get_mut(idx)?.take()?;
        self.live -= 1;
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
        Some(info)
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Interned metric handles for this stack's hot-path telemetry sites.
///
/// Gauges refreshed by [`RpcStack::sample_metrics`] are registered eagerly
/// when telemetry attaches (the harness refreshes them before every sampling
/// tick, so the slots would exist by the first snapshot either way). Event
/// counters and histograms stay `None` until their first hit so slot
/// creation — and therefore the exported CSV — matches the old string-keyed
/// path byte for byte.
struct StackMetricIds {
    outstanding: MetricId,
    queued_messages: MetricId,
    unacked_packets: MetricId,
    /// Present iff an admission policy is active (see
    /// [`RpcStack::admission_counters`]).
    ctl_issued: Option<MetricId>,
    ctl_downgraded: Option<MetricId>,
    rejected: Option<MetricId>,
    downgraded: Option<MetricId>,
    retry_scheduled: Option<MetricId>,
    failed: Option<MetricId>,
    retried: Option<MetricId>,
    /// Indexed by `qos_run`; sized to the mapping's level count.
    issued: Vec<Option<MetricId>>,
    rnl_hist: Vec<Option<MetricId>>,
    completed: Vec<Option<MetricId>>,
}

/// Per-host RPC stack: priority→QoS mapping, admission policy, transport.
pub struct RpcStack {
    host: HostId,
    mapping: QosMapping,
    policy: Policy,
    transport: Transport,
    pending: PendingTable,
    completions: Vec<RpcCompletion>,
    next_rpc_id: u64,
    dropped: u64,
    dropped_bytes: u64,
    retry: RetryConfig,
    /// Sorted by `due` ascending (ties keep insertion order).
    retry_queue: Vec<QueuedRetry>,
    /// Earliest armed [`RPC_RETRY_TIMER`] deadline, to avoid re-arming.
    retry_timer_at: Option<SimTime>,
    rpc_failures: Vec<RpcFailure>,
    telemetry: Telemetry,
    metric_ids: Option<StackMetricIds>,
}

impl RpcStack {
    /// Build a stack for `host`.
    pub fn new(
        host: HostId,
        mapping: QosMapping,
        policy: Policy,
        transport_config: TransportConfig,
    ) -> Self {
        if let Policy::Aequitas(ctl) = &policy {
            assert_eq!(
                ctl.config().levels(),
                mapping.levels(),
                "policy and mapping must agree on the number of QoS levels"
            );
        }
        RpcStack {
            host,
            mapping,
            policy,
            transport: Transport::new(host, transport_config),
            pending: PendingTable::default(),
            completions: Vec::new(),
            next_rpc_id: (host.0 as u64) << 32,
            dropped: 0,
            dropped_bytes: 0,
            retry: RetryConfig::default(),
            retry_queue: Vec::new(),
            retry_timer_at: None,
            rpc_failures: Vec::new(),
            telemetry: Telemetry::disabled(),
            metric_ids: None,
        }
    }

    /// Replace the RPC-level retry policy.
    pub fn set_retry_config(&mut self, retry: RetryConfig) {
        assert!(retry.max_attempts >= 1);
        assert!(retry.backoff_factor >= 1.0);
        self.retry = retry;
    }

    /// Attach a telemetry handle to the stack and propagate it to the
    /// transport and the admission controller (if any): RPC issue/complete
    /// events, cwnd updates, retransmissions, and admit-probability steps
    /// all flow through the same handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.transport.set_telemetry(telemetry.clone());
        let host = self.host.0;
        match &mut self.policy {
            Policy::Static => {}
            Policy::Aequitas(ctl)
            | Policy::AequitasDropExcess(ctl)
            | Policy::AequitasWithQuota {
                controller: ctl, ..
            } => ctl.attach_telemetry(telemetry.clone(), host),
        }
        let has_controller = !matches!(self.policy, Policy::Static);
        let levels = self.mapping.levels();
        self.metric_ids = telemetry.with_metrics(|m| {
            let l = labels(&[("host", &host.to_string())]);
            StackMetricIds {
                outstanding: m.gauge_id("rpc.outstanding", l.clone()),
                queued_messages: m.gauge_id("transport.queued_messages", l.clone()),
                unacked_packets: m.gauge_id("transport.unacked_packets", l.clone()),
                ctl_issued: has_controller.then(|| m.gauge_id("controller.issued", l.clone())),
                ctl_downgraded: has_controller.then(|| m.gauge_id("controller.downgraded", l)),
                rejected: None,
                downgraded: None,
                retry_scheduled: None,
                failed: None,
                retried: None,
                issued: vec![None; levels],
                rnl_hist: vec![None; levels],
                completed: vec![None; levels],
            }
        });
        self.telemetry = telemetry;
    }

    /// This host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The QoS mapping in use.
    pub fn mapping(&self) -> &QosMapping {
        &self.mapping
    }

    /// Issue an RPC of `size_bytes` with `priority` toward `dst`. Returns
    /// the RPC id.
    pub fn issue_rpc(
        &mut self,
        ctx: &mut HostCtx,
        dst: HostId,
        priority: Priority,
        size_bytes: u64,
    ) -> u64 {
        self.issue_rpc_with_deadline(ctx, dst, priority, size_bytes, None)
    }

    /// Like [`RpcStack::issue_rpc`] but with a caller deadline. The deadline
    /// propagates into the retry layer: if the transport abandons the
    /// message, it is retried (with exponential backoff) only while the
    /// next attempt would still start *before* the deadline; otherwise the
    /// RPC fails and is reported through [`RpcStack::take_rpc_failures`].
    pub fn issue_rpc_with_deadline(
        &mut self,
        ctx: &mut HostCtx,
        dst: HostId,
        priority: Priority,
        size_bytes: u64,
        deadline: Option<SimTime>,
    ) -> u64 {
        let now = ctx.now();
        self.issue_attempt(ctx, dst, priority, size_bytes, deadline, 1, None, now)
    }

    /// One send attempt (`attempt` is 1-based; retries pass the original
    /// id and issue time so completions and failures stay correlated with
    /// what the caller saw).
    #[allow(clippy::too_many_arguments, reason = "a retry carries the original id and issue time")]
    fn issue_attempt(
        &mut self,
        ctx: &mut HostCtx,
        dst: HostId,
        priority: Priority,
        size_bytes: u64,
        deadline: Option<SimTime>,
        attempt: u32,
        first_rpc_id: Option<u64>,
        first_issued_at: SimTime,
    ) -> u64 {
        let qos_requested = self.mapping.qos_for(priority);
        let (qos_run, downgraded) = match &mut self.policy {
            Policy::Static => (qos_requested, false),
            Policy::Aequitas(ctl) => {
                let d = ctl.on_issue(
                    ctx.now(),
                    dst.0,
                    qos_requested.0,
                    size_in_mtus(size_bytes),
                );
                (QosClass(d.qos_run), d.downgraded)
            }
            Policy::AequitasDropExcess(ctl) => {
                let d = ctl.on_issue(
                    ctx.now(),
                    dst.0,
                    qos_requested.0,
                    size_in_mtus(size_bytes),
                );
                if d.downgraded {
                    // Reject: the RPC never enters the network.
                    self.dropped += 1;
                    self.dropped_bytes += size_bytes;
                    let host = self.host.0;
                    if let Some(ids) = self.metric_ids.as_mut() {
                        self.telemetry.with_metrics(|m| {
                            let id = *ids.rejected.get_or_insert_with(|| {
                                m.counter_id(
                                    "rpc.rejected",
                                    labels(&[("host", &host.to_string())]),
                                )
                            });
                            m.counter_add_id(id, 1);
                        });
                    }
                    if let Some(id) = first_rpc_id {
                        // A rejected *retry* is a terminal failure for the
                        // original RPC, not a silent drop.
                        self.rpc_failures.push(RpcFailure {
                            rpc_id: id,
                            src: self.host,
                            dst,
                            priority,
                            size_bytes,
                            first_issued_at,
                            failed_at: ctx.now(),
                            attempts: attempt,
                        });
                    }
                    return u64::MAX;
                }
                (QosClass(d.qos_run), false)
            }
            Policy::AequitasWithQuota {
                controller,
                quota_qos,
                bucket,
                offered_since_report,
                ..
            } => {
                if qos_requested.0 == *quota_qos {
                    *offered_since_report += size_bytes;
                    if bucket.try_consume(size_bytes, ctx.now()) {
                        // Within the tenant's guaranteed share: admit.
                        (qos_requested, false)
                    } else {
                        let d = controller.on_issue(
                            ctx.now(),
                            dst.0,
                            qos_requested.0,
                            size_in_mtus(size_bytes),
                        );
                        (QosClass(d.qos_run), d.downgraded)
                    }
                } else {
                    let d = controller.on_issue(
                        ctx.now(),
                        dst.0,
                        qos_requested.0,
                        size_in_mtus(size_bytes),
                    );
                    (QosClass(d.qos_run), d.downgraded)
                }
            }
        };
        let rpc_id = self.next_rpc_id;
        self.next_rpc_id += 1;
        self.pending.insert(
            rpc_id,
            PendingRpc {
                priority,
                qos_requested,
                qos_run,
                downgraded,
                dst,
                size_bytes,
                first_rpc_id: first_rpc_id.unwrap_or(rpc_id),
                first_issued_at,
                deadline,
                attempt,
            },
        );
        if self.telemetry.is_enabled() {
            self.telemetry.emit(
                ctx.now(),
                TraceEvent::RpcIssue {
                    host: self.host.0,
                    dst: dst.0,
                    qos_req: qos_requested.0,
                    qos_run: qos_run.0,
                    downgraded,
                    size_bytes,
                    p_admit: self.admit_probability(dst, qos_requested),
                },
            );
            let host = self.host.0;
            if let Some(ids) = self.metric_ids.as_mut() {
                self.telemetry.with_metrics(|m| {
                    let id = *ids.issued[qos_run.0 as usize].get_or_insert_with(|| {
                        m.counter_id(
                            "rpc.issued",
                            labels(&[
                                ("host", &host.to_string()),
                                ("qos", &qos_run.0.to_string()),
                            ]),
                        )
                    });
                    m.counter_add_id(id, 1);
                    if downgraded {
                        let id = *ids.downgraded.get_or_insert_with(|| {
                            m.counter_id(
                                "rpc.downgraded",
                                labels(&[("host", &host.to_string())]),
                            )
                        });
                        m.counter_add_id(id, 1);
                    }
                });
            }
        }
        self.transport
            .send_message(ctx, dst, qos_run.0, rpc_id, size_bytes);
        rpc_id
    }

    /// Forward a packet to the transport; harvest completions. Returns
    /// `true` if the packet belonged to the transport.
    pub fn handle_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) -> bool {
        let consumed = self.transport.handle_packet(ctx, pkt);
        self.harvest(ctx);
        consumed
    }

    /// Forward a timer to the transport or the retry queue; harvest
    /// completions. Returns `true` if the token belonged to the stack
    /// (transport or retry layer).
    pub fn handle_timer(&mut self, ctx: &mut HostCtx, token: u64) -> bool {
        if token == RPC_RETRY_TIMER {
            self.fire_retries(ctx);
            self.harvest(ctx);
            return true;
        }
        let consumed = self.transport.handle_timer(ctx, token);
        self.harvest(ctx);
        consumed
    }

    /// Drain completed RPCs recorded since the last call.
    pub fn take_completions(&mut self) -> Vec<RpcCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Drain RPCs that failed for good (retry budget or deadline exhausted)
    /// since the last call.
    pub fn take_rpc_failures(&mut self) -> Vec<RpcFailure> {
        std::mem::take(&mut self.rpc_failures)
    }

    /// Admit probability currently maintained toward `(dst, qos)` (1.0 when
    /// the policy is static).
    pub fn admit_probability(&self, dst: HostId, qos: QosClass) -> f64 {
        match &self.policy {
            Policy::Static => 1.0,
            Policy::Aequitas(ctl) | Policy::AequitasDropExcess(ctl) => {
                ctl.admit_probability(dst.0, qos.0)
            }
            Policy::AequitasWithQuota { controller, .. } => {
                controller.admit_probability(dst.0, qos.0)
            }
        }
    }

    /// Quota-extension control plane: drain the usage report for this
    /// host's tenant, if the quota policy is active.
    pub fn take_usage_report(&mut self) -> Option<aequitas::UsageReport> {
        if let Policy::AequitasWithQuota {
            tenant,
            offered_since_report,
            ..
        } = &mut self.policy
        {
            let bytes = std::mem::take(offered_since_report);
            Some(aequitas::UsageReport {
                tenant: *tenant,
                offered_bytes: bytes,
            })
        } else {
            None
        }
    }

    /// Quota-extension control plane: apply a new grant.
    pub fn apply_grant(&mut self, grant: aequitas::Grant, now: SimTime) {
        if let Policy::AequitasWithQuota { bucket, .. } = &mut self.policy {
            bucket.set_rate(grant.rate_bps, now);
        }
    }

    /// The underlying transport (read access for experiments).
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// RPCs issued but not yet completed or failed (includes retries
    /// waiting out their backoff).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.retry_queue.len()
    }

    /// RPCs rejected by the drop-excess ablation policy, and their bytes.
    pub fn dropped(&self) -> (u64, u64) {
        (self.dropped, self.dropped_bytes)
    }

    /// Issue-time admission counters `(issued, downgraded)` from the
    /// controller, if one is active. Completion streams under-count
    /// downgrades during overload (downgraded RPCs languish in the
    /// scavenger backlog), so downgrade *rates* must come from here.
    pub fn admission_counters(&self) -> Option<(u64, u64)> {
        match &self.policy {
            Policy::Static => None,
            Policy::Aequitas(ctl) | Policy::AequitasDropExcess(ctl) => {
                Some((ctl.issued(), ctl.downgraded()))
            }
            Policy::AequitasWithQuota { controller, .. } => {
                Some((controller.issued(), controller.downgraded()))
            }
        }
    }

    fn harvest(&mut self, ctx: &mut HostCtx) {
        for done in self.transport.take_completions() {
            let Some(info) = self.pending.remove(done.msg_id) else {
                debug_assert!(false, "completion for unknown rpc {}", done.msg_id);
                continue;
            };
            let completion = RpcCompletion {
                rpc_id: info.first_rpc_id,
                src: self.host,
                dst: done.flow.dst,
                priority: info.priority,
                qos_requested: info.qos_requested,
                qos_run: info.qos_run,
                downgraded: info.downgraded,
                size_bytes: done.size_bytes,
                issued_at: info.first_issued_at,
                completed_at: done.completed_at,
                attempts: info.attempt,
            };
            match &mut self.policy {
                Policy::Aequitas(ctl)
                | Policy::AequitasDropExcess(ctl)
                | Policy::AequitasWithQuota {
                    controller: ctl, ..
                } => {
                    ctl.on_completion(
                        completion.completed_at,
                        completion.dst.0,
                        completion.qos_run.0,
                        size_in_mtus(completion.size_bytes),
                        completion.rnl(),
                    );
                }
                Policy::Static => {}
            }
            if self.telemetry.is_enabled() {
                let rnl = completion.rnl();
                self.telemetry.emit(
                    completion.completed_at,
                    TraceEvent::RpcComplete {
                        host: self.host.0,
                        dst: completion.dst.0,
                        qos_run: completion.qos_run.0,
                        downgraded: completion.downgraded,
                        size_bytes: completion.size_bytes,
                        rnl_ps: rnl.as_ps(),
                        rnl_per_mtu_ps: completion.rnl_per_mtu().as_ps(),
                    },
                );
                if let Some(ids) = self.metric_ids.as_mut() {
                    let qos = completion.qos_run.0;
                    self.telemetry.with_metrics(|m| {
                        let hid = *ids.rnl_hist[qos as usize].get_or_insert_with(|| {
                            m.hist_id(
                                "rpc.rnl_per_mtu_ns",
                                labels(&[("qos", &qos.to_string())]),
                            )
                        });
                        m.hist_record_id(hid, completion.rnl_per_mtu().as_ns());
                        let cid = *ids.completed[qos as usize].get_or_insert_with(|| {
                            m.counter_id(
                                "rpc.completed",
                                labels(&[("qos", &qos.to_string())]),
                            )
                        });
                        m.counter_add_id(cid, 1);
                    });
                }
            }
            self.completions.push(completion);
        }
        for f in self.transport.take_failures() {
            let Some(info) = self.pending.remove(f.msg_id) else {
                debug_assert!(false, "failure for unknown rpc {}", f.msg_id);
                continue;
            };
            let next_attempt = info.attempt + 1;
            let due = f.failed_at + self.retry.delay_before(next_attempt.max(2));
            let within_budget = next_attempt <= self.retry.max_attempts;
            // Deadline propagation: never start an attempt that would run
            // at or past the caller's deadline.
            let within_deadline = info.deadline.is_none_or(|d| due < d);
            if within_budget && within_deadline {
                let retry = QueuedRetry {
                    due,
                    dst: info.dst,
                    priority: info.priority,
                    size_bytes: info.size_bytes,
                    first_rpc_id: info.first_rpc_id,
                    first_issued_at: info.first_issued_at,
                    deadline: info.deadline,
                    attempt: next_attempt,
                };
                let pos = self.retry_queue.partition_point(|r| r.due <= due);
                self.retry_queue.insert(pos, retry);
                let host = self.host.0;
                if let Some(ids) = self.metric_ids.as_mut() {
                    self.telemetry.with_metrics(|m| {
                        let id = *ids.retry_scheduled.get_or_insert_with(|| {
                            m.counter_id(
                                "rpc.retry_scheduled",
                                labels(&[("host", &host.to_string())]),
                            )
                        });
                        m.counter_add_id(id, 1);
                    });
                }
                self.arm_retry_timer(ctx);
            } else {
                if self.telemetry.is_enabled() {
                    self.telemetry.emit(
                        f.failed_at,
                        TraceEvent::Warn {
                            component: "rpc".into(),
                            // An RPC reaches this at most once.
                            message: format!(
                                "rpc {:#x} to host {} failed after {} attempts ({})",
                                info.first_rpc_id,
                                info.dst.0,
                                info.attempt,
                                if within_budget {
                                    "deadline exceeded"
                                } else {
                                    "retry budget exhausted"
                                },
                            ),
                        },
                    );
                    let host = self.host.0;
                    if let Some(ids) = self.metric_ids.as_mut() {
                        self.telemetry.with_metrics(|m| {
                            let id = *ids.failed.get_or_insert_with(|| {
                                m.counter_id(
                                    "rpc.failed",
                                    labels(&[("host", &host.to_string())]),
                                )
                            });
                            m.counter_add_id(id, 1);
                        });
                    }
                }
                self.rpc_failures.push(RpcFailure {
                    rpc_id: info.first_rpc_id,
                    src: self.host,
                    dst: info.dst,
                    priority: info.priority,
                    size_bytes: info.size_bytes,
                    first_issued_at: info.first_issued_at,
                    failed_at: f.failed_at,
                    attempts: info.attempt,
                });
            }
        }
    }

    /// Re-issue every retry whose backoff has elapsed, then re-arm the
    /// timer for the next one.
    fn fire_retries(&mut self, ctx: &mut HostCtx) {
        self.retry_timer_at = None;
        while let Some(first) = self.retry_queue.first() {
            if first.due > ctx.now() {
                break;
            }
            let r = self.retry_queue.remove(0);
            let host = self.host.0;
            if let Some(ids) = self.metric_ids.as_mut() {
                self.telemetry.with_metrics(|m| {
                    let id = *ids.retried.get_or_insert_with(|| {
                        m.counter_id("rpc.retried", labels(&[("host", &host.to_string())]))
                    });
                    m.counter_add_id(id, 1);
                });
            }
            self.issue_attempt(
                ctx,
                r.dst,
                r.priority,
                r.size_bytes,
                r.deadline,
                r.attempt,
                Some(r.first_rpc_id),
                r.first_issued_at,
            );
        }
        self.arm_retry_timer(ctx);
    }

    fn arm_retry_timer(&mut self, ctx: &mut HostCtx) {
        if let Some(first) = self.retry_queue.first() {
            if self.retry_timer_at.is_none_or(|t| first.due < t) {
                ctx.set_timer(first.due, RPC_RETRY_TIMER);
                self.retry_timer_at = Some(first.due);
            }
        }
    }

    /// Refresh this stack's gauges in the telemetry registry (outstanding
    /// RPCs, cumulative issue/downgrade counts, transport queue depths). The
    /// harness calls this right before each sampling tick; a no-op when
    /// telemetry is disabled.
    pub fn sample_metrics(&self) {
        let Some(ids) = &self.metric_ids else {
            return;
        };
        self.telemetry.with_metrics(|m| {
            m.gauge_set_id(ids.outstanding, self.pending.len() as f64);
            m.gauge_set_id(ids.queued_messages, self.transport.queued_messages() as f64);
            m.gauge_set_id(ids.unacked_packets, self.transport.unacked_packets() as f64);
            if let Some((issued, downgraded)) = self.admission_counters() {
                if let (Some(i), Some(d)) = (ids.ctl_issued, ids.ctl_downgraded) {
                    m.gauge_set_id(i, issued as f64);
                    m.gauge_set_id(d, downgraded as f64);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas::SloTarget;
    use aequitas_netsim::{Engine, EngineConfig, HostAgent, LinkSpec, Topology};

    /// Minimal agent for stack unit tests: issues scripted RPCs, a few at
    /// start and one more per completion, so admission decisions interleave
    /// with feedback.
    struct TestHost {
        stack: RpcStack,
        script: Vec<(HostId, Priority, u64)>,
        next: usize,
        done: Vec<RpcCompletion>,
    }

    impl TestHost {
        fn issue_upto(&mut self, ctx: &mut HostCtx, k: usize) {
            while self.next < self.script.len() && self.next < k {
                let (dst, prio, size) = self.script[self.next];
                self.next += 1;
                self.stack.issue_rpc(ctx, dst, prio, size);
            }
        }
        fn harvest(&mut self, ctx: &mut HostCtx) {
            let got = self.stack.take_completions();
            if !got.is_empty() {
                self.done.extend(got);
                let k = self.next + self.done.len().max(1);
                self.issue_upto(ctx, k.min(self.next + 8));
            }
        }
    }

    impl HostAgent for TestHost {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            self.issue_upto(ctx, 4);
        }
        fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
            self.stack.handle_packet(ctx, pkt);
            self.harvest(ctx);
        }
        fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
            self.stack.handle_timer(ctx, token);
            self.harvest(ctx);
        }
    }

    fn run_pair(script: Vec<(HostId, Priority, u64)>, policy: Policy) -> Vec<RpcCompletion> {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mk = |host: usize, policy: Policy, script: Vec<(HostId, Priority, u64)>| TestHost {
            stack: RpcStack::new(
                HostId(host),
                QosMapping::three_level(),
                policy,
                TransportConfig::default(),
            ),
            script,
            next: 0,
            done: Vec::new(),
        };
        let agents = vec![mk(0, policy, script), mk(1, Policy::Static, vec![])];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(200));
        let a = &mut eng.agents_mut()[0];
        let mut done = std::mem::take(&mut a.done);
        done.extend(a.stack.take_completions());
        done
    }

    #[test]
    fn static_policy_maps_priorities_bijectively() {
        let done = run_pair(
            vec![
                (HostId(1), Priority::PerformanceCritical, 32_768),
                (HostId(1), Priority::NonCritical, 32_768),
                (HostId(1), Priority::BestEffort, 32_768),
            ],
            Policy::Static,
        );
        assert_eq!(done.len(), 3);
        for c in &done {
            let want = match c.priority {
                Priority::PerformanceCritical => QosClass::HIGH,
                Priority::NonCritical => QosClass::MEDIUM,
                Priority::BestEffort => QosClass::LOW,
            };
            assert_eq!(c.qos_requested, want);
            assert_eq!(c.qos_run, want);
            assert!(!c.downgraded);
            assert!(c.rnl() > SimDuration::ZERO);
        }
    }

    #[test]
    fn aequitas_policy_feeds_back_and_downgrades() {
        // An SLO so tight no RPC can meet it: the controller must start
        // downgrading PC traffic to QoSl once completions arrive.
        let config = AequitasConfig::three_qos(
            SloTarget::per_mtu(SimDuration::from_ns(1), 99.0),
            SloTarget::per_mtu(SimDuration::from_ns(1), 99.0),
        );
        let script: Vec<_> = (0..300)
            .map(|_| (HostId(1), Priority::PerformanceCritical, 32_768))
            .collect();
        let done = run_pair(script, Policy::aequitas(config, 7));
        assert_eq!(done.len(), 300);
        let downgraded = done.iter().filter(|c| c.downgraded).count();
        assert!(
            downgraded > 50,
            "expected substantial downgrading, got {downgraded}/300"
        );
        // Downgraded RPCs run on the scavenger class.
        for c in done.iter().filter(|c| c.downgraded) {
            assert_eq!(c.qos_run, QosClass::LOW);
            assert_eq!(c.qos_requested, QosClass::HIGH);
        }
    }

    #[test]
    fn generous_slo_admits_everything() {
        let config = AequitasConfig::three_qos(
            SloTarget::per_mtu(SimDuration::from_ms(100), 99.9),
            SloTarget::per_mtu(SimDuration::from_ms(100), 99.9),
        );
        let script: Vec<_> = (0..100)
            .map(|_| (HostId(1), Priority::PerformanceCritical, 32_768))
            .collect();
        let done = run_pair(script, Policy::aequitas(config, 8));
        assert_eq!(done.len(), 100);
        assert!(done.iter().all(|c| !c.downgraded));
    }

    #[test]
    fn rnl_per_mtu_normalizes() {
        let done = run_pair(
            vec![(HostId(1), Priority::PerformanceCritical, 32_768)],
            Policy::Static,
        );
        let c = &done[0];
        assert_eq!(c.rnl_per_mtu().as_ps(), c.rnl().as_ps() / 8);
    }

    #[test]
    fn outstanding_tracks_pending() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            TestHost {
                stack: RpcStack::new(
                    HostId(0),
                    QosMapping::three_level(),
                    Policy::Static,
                    TransportConfig::default(),
                ),
                script: vec![(HostId(1), Priority::NonCritical, 8192)],
                next: 0,
                done: Vec::new(),
            },
            TestHost {
                stack: RpcStack::new(
                    HostId(1),
                    QosMapping::three_level(),
                    Policy::Static,
                    TransportConfig::default(),
                ),
                script: vec![],
                next: 0,
                done: Vec::new(),
            },
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(10));
        assert_eq!(eng.agents()[0].stack.outstanding(), 0);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use aequitas_netsim::faults::{FaultPlan, LinkFlap, LinkSel};
    use aequitas_netsim::{Engine, EngineConfig, HostAgent, LinkSpec, Topology};
    use std::sync::Arc;

    /// Issues a fixed batch of RPCs at start and collects completions and
    /// failures — the retry layer does everything else.
    struct RetryHost {
        stack: RpcStack,
        send: Vec<(HostId, Priority, u64, Option<SimTime>)>,
        done: Vec<RpcCompletion>,
        failed: Vec<RpcFailure>,
    }

    impl RetryHost {
        fn new(host: usize, retry: RetryConfig) -> RetryHost {
            // A transport that abandons quickly, so the RPC layer is the
            // one riding out the outage.
            let config = TransportConfig {
                max_retries: 1,
                max_rto: SimDuration::from_ms(1),
                ..TransportConfig::default()
            };
            let mut stack = RpcStack::new(
                HostId(host),
                QosMapping::three_level(),
                Policy::Static,
                config,
            );
            stack.set_retry_config(retry);
            RetryHost {
                stack,
                send: Vec::new(),
                done: Vec::new(),
                failed: Vec::new(),
            }
        }

        fn harvest(&mut self) {
            self.done.extend(self.stack.take_completions());
            self.failed.extend(self.stack.take_rpc_failures());
        }
    }

    impl HostAgent for RetryHost {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            for (dst, prio, size, deadline) in std::mem::take(&mut self.send) {
                self.stack
                    .issue_rpc_with_deadline(ctx, dst, prio, size, deadline);
            }
        }
        fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
            self.stack.handle_packet(ctx, pkt);
            self.harvest();
        }
        fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
            self.stack.handle_timer(ctx, token);
            self.harvest();
        }
    }

    /// Star(2) with host 0's uplink down for `down` starting at t=0.
    fn run_flapped(
        down: SimDuration,
        retry: RetryConfig,
        send: Vec<(HostId, Priority, u64, Option<SimTime>)>,
    ) -> RetryHost {
        let plan = FaultPlan {
            flaps: vec![LinkFlap {
                link: LinkSel::HostUp(0),
                first_down: SimTime::ZERO,
                down,
                period: SimDuration::from_secs_f64(10.0),
                count: 1,
            }],
            ..FaultPlan::default()
        }
        .validated()
        .unwrap();
        let mut cfg = EngineConfig::default_3qos();
        cfg.faults = Some(Arc::new(plan));
        let mut sender = RetryHost::new(0, retry.clone());
        sender.send = send;
        let agents = vec![sender, RetryHost::new(1, retry)];
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut eng = Engine::new(topo, agents, cfg);
        eng.run_until(SimTime::from_ms(200));
        let mut h = std::mem::replace(&mut eng.agents_mut()[0], RetryHost::new(0, RetryConfig::default()));
        h.harvest();
        h
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let r = RetryConfig {
            max_attempts: 8,
            backoff: SimDuration::from_us(100),
            backoff_factor: 2.0,
        };
        assert_eq!(r.delay_before(2), SimDuration::from_us(100));
        assert_eq!(r.delay_before(3), SimDuration::from_us(200));
        assert_eq!(r.delay_before(5), SimDuration::from_us(800));
        // The exponent clamps instead of overflowing.
        assert!(r.delay_before(u32::MAX) > SimDuration::ZERO);
    }

    #[test]
    fn transport_abandonment_is_retried_to_completion() {
        // The link is down long enough that the fast-abandoning transport
        // gives up several times; the RPC layer's backoff outlives the
        // outage and the RPC completes.
        let retry = RetryConfig {
            max_attempts: 16,
            backoff: SimDuration::from_us(500),
            backoff_factor: 2.0,
        };
        let h = run_flapped(
            SimDuration::from_ms(4),
            retry,
            vec![(HostId(1), Priority::PerformanceCritical, 32_768, None)],
        );
        assert_eq!(h.failed.len(), 0, "{:?}", h.failed);
        assert_eq!(h.done.len(), 1);
        let c = &h.done[0];
        assert!(c.attempts >= 2, "expected retries, got {} attempts", c.attempts);
        assert_eq!(c.issued_at, SimTime::ZERO, "RNL must span the retry saga");
        assert!(c.completed_at >= SimTime::from_ms(4), "{:?}", c.completed_at);
    }

    #[test]
    fn deadline_bounds_retry_lifetime() {
        // An outage longer than the deadline: the stack must stop retrying
        // before the deadline rather than ride the full (huge) budget.
        let retry = RetryConfig {
            max_attempts: 1000,
            backoff: SimDuration::from_us(500),
            backoff_factor: 2.0,
        };
        let deadline = SimTime::from_ms(4);
        let h = run_flapped(
            SimDuration::from_ms(50),
            retry,
            vec![(HostId(1), Priority::PerformanceCritical, 32_768, Some(deadline))],
        );
        assert_eq!(h.done.len(), 0);
        assert_eq!(h.failed.len(), 1, "{:?}", h.failed);
        let f = &h.failed[0];
        assert!(
            f.failed_at <= deadline,
            "gave up at {:?}, after the {:?} deadline",
            f.failed_at,
            deadline
        );
        assert!(f.attempts >= 1);
        assert_eq!(f.first_issued_at, SimTime::ZERO);
    }

    #[test]
    fn retry_budget_bounds_attempts() {
        let retry = RetryConfig {
            max_attempts: 3,
            backoff: SimDuration::from_us(200),
            backoff_factor: 2.0,
        };
        let h = run_flapped(
            SimDuration::from_ms(100),
            retry,
            vec![(HostId(1), Priority::PerformanceCritical, 32_768, None)],
        );
        assert_eq!(h.done.len(), 0);
        assert_eq!(h.failed.len(), 1);
        assert_eq!(h.failed[0].attempts, 3);
    }

    #[test]
    fn healthy_runs_never_retry() {
        let retry = RetryConfig::default();
        let mut sender = RetryHost::new(0, retry.clone());
        sender.send = (0..20)
            .map(|_| (HostId(1), Priority::PerformanceCritical, 32_768u64, None))
            .collect();
        let agents = vec![sender, RetryHost::new(1, retry)];
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(50));
        let h = &mut eng.agents_mut()[0];
        h.harvest();
        assert_eq!(h.done.len(), 20);
        assert!(h.failed.is_empty());
        assert!(h.done.iter().all(|c| c.attempts == 1));
        assert_eq!(h.stack.outstanding(), 0);
    }
}

#[cfg(test)]
mod quota_tests {
    use super::*;
    use aequitas::{Grant, SloTarget, TenantId};
    use aequitas_netsim::{Engine, EngineConfig, HostAgent, LinkSpec, Topology};
    use aequitas_transport::TransportConfig;

    /// Issues one 32 KB PC RPC per completion (self-clocked) through a
    /// quota-augmented stack with an impossible SLO: only quota tokens can
    /// keep traffic on QoSh.
    struct QuotaHost {
        stack: RpcStack,
        remaining: usize,
        done: Vec<RpcCompletion>,
    }

    impl HostAgent for QuotaHost {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.stack
                    .issue_rpc(ctx, HostId(1), Priority::PerformanceCritical, 32_768);
            }
        }
        fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
            self.stack.handle_packet(ctx, pkt);
            for c in self.stack.take_completions() {
                self.done.push(c);
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.stack
                        .issue_rpc(ctx, HostId(1), Priority::PerformanceCritical, 32_768);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
            self.stack.handle_timer(ctx, token);
        }
    }

    fn impossible_slo() -> AequitasConfig {
        AequitasConfig::two_qos(SloTarget::per_mtu(
            aequitas_sim_core::SimDuration::from_ns(1),
            99.0,
        ))
    }

    fn run_quota(grant_bps: f64, n_rpcs: usize) -> Vec<RpcCompletion> {
        let mut policy = Policy::aequitas_with_quota(impossible_slo(), 5, TenantId(0), 0);
        if let Policy::AequitasWithQuota { bucket, .. } = &mut policy {
            bucket.set_rate(grant_bps, SimTime::ZERO);
        }
        let stack = RpcStack::new(
            HostId(0),
            QosMapping::two_level(),
            policy,
            TransportConfig::default(),
        );
        let topo = Topology::star(2, LinkSpec::default_100g());
        let sink = RpcStack::new(
            HostId(1),
            QosMapping::two_level(),
            Policy::Static,
            TransportConfig::default(),
        );
        let agents = vec![
            QuotaHost {
                stack,
                remaining: n_rpcs,
                done: Vec::new(),
            },
            QuotaHost {
                stack: sink,
                remaining: 0,
                done: Vec::new(),
            },
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_2qos());
        eng.run_until(SimTime::from_ms(100));
        std::mem::take(&mut eng.agents_mut()[0].done)
    }

    #[test]
    fn quota_tokens_bypass_admission() {
        // A generous grant (50 Gbps, above the ~37 Gbps self-clocked
        // demand) keeps every RPC on QoSh even though the SLO is impossible
        // (p_admit at floor).
        let done = run_quota(50e9 / 8.0, 200);
        assert_eq!(done.len(), 200);
        let on_high = done.iter().filter(|c| c.qos_run == QosClass::HIGH).count();
        assert!(
            on_high > 190,
            "quota-covered traffic must stay on QoSh: {on_high}/200"
        );
    }

    #[test]
    fn zero_grant_behaves_like_plain_aequitas() {
        let done = run_quota(0.0, 200);
        assert_eq!(done.len(), 200);
        let downgraded = done.iter().filter(|c| c.downgraded).count();
        assert!(
            downgraded > 150,
            "without tokens the impossible SLO should downgrade nearly all: {downgraded}/200"
        );
    }

    #[test]
    fn usage_reports_track_offered_bytes() {
        let mut policy = Policy::aequitas_with_quota(impossible_slo(), 6, TenantId(3), 0);
        if let Policy::AequitasWithQuota { bucket, .. } = &mut policy {
            bucket.set_rate(1e9, SimTime::ZERO);
        }
        let mut stack = RpcStack::new(
            HostId(0),
            QosMapping::two_level(),
            policy,
            TransportConfig::default(),
        );
        // No network needed: issue through a throwaway engine context is
        // not possible here, so check the report plumbing directly after
        // applying a grant.
        assert!(stack.take_usage_report().is_some());
        let rep = stack.take_usage_report().unwrap();
        assert_eq!(rep.tenant, TenantId(3));
        assert_eq!(rep.offered_bytes, 0);
        stack.apply_grant(Grant { rate_bps: 5.0 }, SimTime::ZERO);
    }
}
