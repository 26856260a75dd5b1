//! The per-host RPC stack.

use aequitas::{AdmissionController, AequitasConfig, QuotaBucket, TenantId};
use aequitas_netsim::{HostCtx, HostId, Packet};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::{labels, MetricId, MetricKind, Telemetry, TraceEvent};
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

/// One send attempt of an RPC: what the stack carries from a try to its
/// retry.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    dst: HostId,
    priority: Priority,
    size_bytes: u64,
    /// Id `issue_rpc` returned (retried attempts get fresh transport ids).
    first_rpc_id: u64,
    first_issued_at: SimTime,
    deadline: Option<SimTime>,
    /// 1-based attempt number.
    number: u32,
}

impl Attempt {
    /// The record of the RPC failing for good at `failed_at` on this
    /// attempt.
    fn failure(&self, src: HostId, failed_at: SimTime) -> RpcFailure {
        RpcFailure {
            rpc_id: self.first_rpc_id,
            src,
            dst: self.dst,
            priority: self.priority,
            size_bytes: self.size_bytes,
            first_issued_at: self.first_issued_at,
            failed_at,
            attempts: self.number,
        }
    }
}

/// An attempt in the transport, with its admission outcome.
#[derive(Debug, Clone, Copy)]
struct PendingRpc {
    attempt: Attempt,
    qos_requested: QosClass,
    qos_run: QosClass,
    downgraded: bool,
}

/// A retry waiting for its backoff to elapse.
#[derive(Debug, Clone, Copy)]
struct QueuedRetry {
    due: SimTime,
    attempt: Attempt,
}

/// The §5.2 quota bypass of [`Policy::AequitasWithQuota`].
struct Quota {
    tenant: TenantId,
    /// QoS level the quota applies to.
    qos: u8,
    /// Token bucket refilled at the granted rate.
    bucket: QuotaBucket,
    /// Offered bytes on `qos` since the last usage report.
    offered_since_report: u64,
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
    /// Algorithm 1, under every policy but [`Policy::Static`].
    controller: Option<AdmissionController>,
    /// Turn a downgrade into a rejection ([`Policy::AequitasDropExcess`]).
    drop_excess: bool,
    quota: Option<Quota>,
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
        let (controller, drop_excess, quota) = match policy {
            Policy::Static => (None, false, None),
            Policy::Aequitas(ctl) => (Some(ctl), false, None),
            Policy::AequitasDropExcess(ctl) => (Some(ctl), true, None),
            Policy::AequitasWithQuota {
                controller,
                tenant,
                quota_qos,
                bucket,
                offered_since_report,
            } => {
                let quota = Quota {
                    tenant,
                    qos: quota_qos,
                    bucket,
                    offered_since_report,
                };
                (Some(controller), false, Some(quota))
            }
        };
        if let Some(ctl) = &controller {
            assert_eq!(
                ctl.config().levels(),
                mapping.levels(),
                "policy and mapping must agree on the number of QoS levels"
            );
        }
        RpcStack {
            host,
            mapping,
            controller,
            drop_excess,
            quota,
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
        if let Some(ctl) = &mut self.controller {
            ctl.attach_telemetry(telemetry.clone(), host);
        }
        let has_controller = self.controller.is_some();
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
        let first = Attempt {
            dst,
            priority,
            size_bytes,
            first_rpc_id: self.next_rpc_id,
            first_issued_at: ctx.now(),
            deadline,
            number: 1,
        };
        self.issue_attempt(ctx, first)
    }

    /// Admit, downgrade or reject one send attempt, and hand an admitted
    /// one to the transport under a fresh id (returned; `u64::MAX` when
    /// rejected).
    fn issue_attempt(&mut self, ctx: &mut HostCtx, a: Attempt) -> u64 {
        let now = ctx.now();
        let qos_requested = self.mapping.qos_for(a.priority);
        // Within the tenant's guaranteed share, the quota admits without
        // asking the controller.
        let quota_admits = match &mut self.quota {
            Some(q) if q.qos == qos_requested.0 => {
                q.offered_since_report += a.size_bytes;
                q.bucket.try_consume(a.size_bytes, now)
            }
            _ => false,
        };
        let (qos_run, downgraded) = match &mut self.controller {
            Some(ctl) if !quota_admits => {
                let d = ctl.on_issue(now, a.dst.0, qos_requested.0, size_in_mtus(a.size_bytes));
                (QosClass(d.qos_run), d.downgraded)
            }
            _ => (qos_requested, false),
        };
        if downgraded && self.drop_excess {
            // Reject: the RPC never enters the network.
            self.dropped += 1;
            self.dropped_bytes += a.size_bytes;
            self.count(|ids| &mut ids.rejected, "rpc.rejected");
            if a.number > 1 {
                // A rejected *retry* is a terminal failure for the original
                // RPC, not a silent drop.
                self.rpc_failures.push(a.failure(self.host, now));
            }
            return u64::MAX;
        }
        let rpc_id = self.next_rpc_id;
        self.next_rpc_id += 1;
        self.pending.insert(
            rpc_id,
            PendingRpc {
                attempt: a,
                qos_requested,
                qos_run,
                downgraded,
            },
        );
        if self.telemetry.is_enabled() {
            self.telemetry.emit(
                now,
                TraceEvent::RpcIssue {
                    host: self.host.0,
                    dst: a.dst.0,
                    qos_req: qos_requested.0,
                    qos_run: qos_run.0,
                    downgraded,
                    size_bytes: a.size_bytes,
                    p_admit: self.admit_probability(a.dst, qos_requested),
                },
            );
            let (host, qos) = (self.host.0, qos_run.0);
            self.bump(
                |ids| &mut ids.issued[qos as usize],
                MetricKind::Counter,
                "rpc.issued",
                || labels(&[("host", &host.to_string()), ("qos", &qos.to_string())]),
                1,
            );
            if downgraded {
                self.count(|ids| &mut ids.downgraded, "rpc.downgraded");
            }
        }
        self.transport
            .send_message(ctx, a.dst, qos_run.0, rpc_id, a.size_bytes);
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
        self.controller
            .as_ref()
            .map_or(1.0, |ctl| ctl.admit_probability(dst.0, qos.0))
    }

    /// Quota-extension control plane: drain the usage report for this
    /// host's tenant, if the quota policy is active.
    pub fn take_usage_report(&mut self) -> Option<aequitas::UsageReport> {
        self.quota.as_mut().map(|q| aequitas::UsageReport {
            tenant: q.tenant,
            offered_bytes: std::mem::take(&mut q.offered_since_report),
        })
    }

    /// Quota-extension control plane: apply a new grant.
    pub fn apply_grant(&mut self, grant: aequitas::Grant, now: SimTime) {
        if let Some(q) = &mut self.quota {
            q.bucket.set_rate(grant.rate_bps, now);
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
        self.controller
            .as_ref()
            .map(|ctl| (ctl.issued(), ctl.downgraded()))
    }

    fn harvest(&mut self, ctx: &mut HostCtx) {
        for done in self.transport.take_completions() {
            let Some(info) = self.pending.remove(done.msg_id) else {
                debug_assert!(false, "completion for unknown rpc {}", done.msg_id);
                continue;
            };
            let completion = RpcCompletion {
                rpc_id: info.attempt.first_rpc_id,
                src: self.host,
                dst: done.flow.dst,
                priority: info.attempt.priority,
                qos_requested: info.qos_requested,
                qos_run: info.qos_run,
                downgraded: info.downgraded,
                size_bytes: done.size_bytes,
                issued_at: info.attempt.first_issued_at,
                completed_at: done.completed_at,
                attempts: info.attempt.number,
            };
            if let Some(ctl) = &mut self.controller {
                ctl.on_completion(
                    completion.completed_at,
                    completion.dst.0,
                    completion.qos_run.0,
                    size_in_mtus(completion.size_bytes),
                    completion.rnl(),
                );
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
                let qos = completion.qos_run.0;
                let qos_label = || labels(&[("qos", &qos.to_string())]);
                self.bump(
                    |ids| &mut ids.rnl_hist[qos as usize],
                    MetricKind::Hist,
                    "rpc.rnl_per_mtu_ns",
                    qos_label,
                    completion.rnl_per_mtu().as_ns(),
                );
                self.bump(
                    |ids| &mut ids.completed[qos as usize],
                    MetricKind::Counter,
                    "rpc.completed",
                    qos_label,
                    1,
                );
            }
            self.completions.push(completion);
        }
        for f in self.transport.take_failures() {
            let Some(info) = self.pending.remove(f.msg_id) else {
                debug_assert!(false, "failure for unknown rpc {}", f.msg_id);
                continue;
            };
            let a = info.attempt;
            let next = a.number + 1;
            let due = f.failed_at + self.retry.delay_before(next);
            let within_budget = next <= self.retry.max_attempts;
            // Deadline propagation: never start an attempt that would run
            // at or past the caller's deadline.
            let within_deadline = a.deadline.is_none_or(|d| due < d);
            if within_budget && within_deadline {
                let retry = QueuedRetry {
                    due,
                    attempt: Attempt { number: next, ..a },
                };
                let pos = self.retry_queue.partition_point(|r| r.due <= due);
                self.retry_queue.insert(pos, retry);
                self.count(|ids| &mut ids.retry_scheduled, "rpc.retry_scheduled");
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
                                a.first_rpc_id,
                                a.dst.0,
                                a.number,
                                if within_budget {
                                    "deadline exceeded"
                                } else {
                                    "retry budget exhausted"
                                },
                            ),
                        },
                    );
                }
                self.count(|ids| &mut ids.failed, "rpc.failed");
                self.rpc_failures.push(a.failure(self.host, f.failed_at));
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
            self.count(|ids| &mut ids.retried, "rpc.retried");
            self.issue_attempt(ctx, r.attempt);
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

    /// Count `value` into one of the lazily registered metrics of
    /// [`StackMetricIds`]; a no-op while telemetry is off.
    fn bump(
        &mut self,
        slot: impl FnOnce(&mut StackMetricIds) -> &mut Option<MetricId>,
        kind: MetricKind,
        name: &str,
        labels: impl FnOnce() -> String,
        value: u64,
    ) {
        if let Some(ids) = &mut self.metric_ids {
            self.telemetry.bump(slot(ids), kind, name, labels, value);
        }
    }

    /// Count one event into a lazily registered `host`-labelled counter.
    fn count(
        &mut self,
        slot: impl FnOnce(&mut StackMetricIds) -> &mut Option<MetricId>,
        name: &str,
    ) {
        let host = self.host.0;
        self.bump(
            slot,
            MetricKind::Counter,
            name,
            || labels(&[("host", &host.to_string())]),
            1,
        );
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
    use aequitas::{SloTarget, TenantId};
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
        run_pair_traced(script, policy, Telemetry::disabled())
    }

    /// [`run_pair`] with `telemetry` attached to host 0's stack, sampled
    /// once at the end of the run.
    pub(super) fn run_pair_traced(
        script: Vec<(HostId, Priority, u64)>,
        policy: Policy,
        telemetry: Telemetry,
    ) -> Vec<RpcCompletion> {
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
        let mut agents = vec![mk(0, policy, script), mk(1, Policy::Static, vec![])];
        agents[0].stack.set_telemetry(telemetry.clone());
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(200));
        let a = &mut eng.agents_mut()[0];
        a.stack.sample_metrics();
        telemetry.sample(SimTime::from_ms(200));
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
    fn every_controller_policy_must_agree_with_the_mapping_levels() {
        let two_qos =
            || AequitasConfig::two_qos(SloTarget::per_mtu(SimDuration::from_us(10), 99.0));
        let policies = || {
            [
                ("aequitas", Policy::aequitas(two_qos(), 1)),
                (
                    "drop excess",
                    Policy::AequitasDropExcess(AdmissionController::new(two_qos(), 1)),
                ),
                (
                    "quota",
                    Policy::aequitas_with_quota(two_qos(), 1, TenantId(0), 0),
                ),
            ]
        };
        let build = |mapping: QosMapping, policy: Policy| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                RpcStack::new(HostId(0), mapping, policy, TransportConfig::default())
            }))
        };
        for (name, policy) in policies() {
            assert!(
                build(QosMapping::three_level(), policy).is_err(),
                "{name}: mismatch accepted"
            );
        }
        for (name, policy) in policies() {
            assert!(
                build(QosMapping::two_level(), policy).is_ok(),
                "{name}: match refused"
            );
        }
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
    pub(super) struct RetryHost {
        stack: RpcStack,
        send: Vec<(HostId, Priority, u64, Option<SimTime>)>,
        pub(super) done: Vec<RpcCompletion>,
        pub(super) failed: Vec<RpcFailure>,
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
        run_flapped_traced(down, retry, send, Telemetry::disabled())
    }

    /// [`run_flapped`] with `telemetry` attached to host 0's stack, sampled
    /// once at the end of the run.
    pub(super) fn run_flapped_traced(
        down: SimDuration,
        retry: RetryConfig,
        send: Vec<(HostId, Priority, u64, Option<SimTime>)>,
        telemetry: Telemetry,
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
        sender.stack.set_telemetry(telemetry.clone());
        let agents = vec![sender, RetryHost::new(1, retry)];
        let topo = Topology::star(2, LinkSpec::default_100g());
        let mut eng = Engine::new(topo, agents, cfg);
        eng.run_until(SimTime::from_ms(200));
        let mut h = std::mem::replace(
            &mut eng.agents_mut()[0],
            RetryHost::new(0, RetryConfig::default()),
        );
        h.harvest();
        h.stack.sample_metrics();
        telemetry.sample(SimTime::from_ms(200));
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
        assert!(
            c.attempts >= 2,
            "expected retries, got {} attempts",
            c.attempts
        );
        assert_eq!(c.issued_at, SimTime::ZERO, "RNL must span the retry saga");
        assert!(
            c.completed_at >= SimTime::from_ms(4),
            "{:?}",
            c.completed_at
        );
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
            vec![(
                HostId(1),
                Priority::PerformanceCritical,
                32_768,
                Some(deadline),
            )],
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

#[cfg(test)]
mod counter_golden {
    //! The lazily registered counters and histograms, pinned byte for byte:
    //! which series exist (registration happens on the first hit) and what
    //! they count. `tests/fixtures/lazy_counters.csv` is the metrics CSV of
    //! three small runs on host 0's stack.
    use super::*;
    use aequitas::SloTarget;
    use aequitas_telemetry::{NullSink, TelemetryConfig};

    const GOLDEN: &str = include_str!("../tests/fixtures/lazy_counters.csv");

    /// The metrics CSV `run` leaves in a fresh handle.
    fn metrics_csv(run: impl FnOnce(Telemetry)) -> String {
        let tel = Telemetry::with_sink(NullSink, TelemetryConfig::default());
        run(tel.clone());
        let mut csv = Vec::new();
        tel.write_metrics_csv(&mut csv).unwrap();
        String::from_utf8(csv).unwrap()
    }

    #[test]
    fn lazy_counters_match_the_golden() {
        // An SLO no RPC can meet: the controller turns RPCs away (drop
        // excess) or downgrades them (plain Aequitas) once feedback arrives.
        let impossible = AequitasConfig::three_qos(
            SloTarget::per_mtu(SimDuration::from_ns(1), 99.0),
            SloTarget::per_mtu(SimDuration::from_ns(1), 99.0),
        );
        let script: Vec<_> = (0..300)
            .map(|i| {
                (
                    HostId(1),
                    [Priority::PerformanceCritical, Priority::NonCritical][i % 2],
                    32_768,
                )
            })
            .collect();
        let drop_excess = metrics_csv(|tel| {
            let ctl = AdmissionController::new(impossible.clone(), 7);
            tests::run_pair_traced(script.clone(), Policy::AequitasDropExcess(ctl), tel);
        });
        let downgrade = metrics_csv(|tel| {
            tests::run_pair_traced(script, Policy::aequitas(impossible, 7), tel);
        });
        // A 100 ms outage: the first RPC runs out of its three attempts, the
        // second out of its deadline; both retry first.
        let flapped = metrics_csv(|tel| {
            let retry = RetryConfig {
                max_attempts: 3,
                backoff: SimDuration::from_us(200),
                backoff_factor: 2.0,
            };
            let send = vec![
                (HostId(1), Priority::PerformanceCritical, 32_768, None),
                (
                    HostId(1),
                    Priority::NonCritical,
                    8_192,
                    Some(SimTime::from_ms(3)),
                ),
            ];
            let h = retry_tests::run_flapped_traced(SimDuration::from_ms(100), retry, send, tel);
            assert_eq!((h.done.len(), h.failed.len()), (0, 2));
        });
        let got =
            format!("# drop excess\n{drop_excess}# downgrade\n{downgrade}# flapped\n{flapped}");
        if got != GOLDEN {
            eprintln!("{got}");
        }
        assert!(
            got == GOLDEN,
            "metrics CSV differs from tests/fixtures/lazy_counters.csv (printed above)"
        );
    }
}
