//! `Spanned<A>`: a host agent that records a span around every callback of
//! the agent it wraps.
//!
//! The engine calls back into host agents (`on_start`, `on_packet`,
//! `on_timer`); everything else it does — event queue, ports, qdiscs, FIB —
//! happens between callbacks. Wrapping each agent therefore splits a run's
//! wall clock at the one layer boundary the benchmark can reach from
//! outside: Σ callback spans is the host stack's self time (`rpc` +
//! `transport` + `core` + `workloads`, or a baseline), and the advance wall
//! clock minus that sum is the fabric's (`sim-core` + `qdisc` + `netsim`).
//!
//! A run makes millions of callbacks, so spans are folded into per-kind
//! totals as they close instead of being kept one by one: the totals stay
//! in the agent (no shared state, so sharded runs need no lock) and are
//! read out after the run.

use aequitas_netsim::{HostAgent, HostCtx, Packet};
use criterion::time_once;

/// Count and summed duration of the spans of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSum {
    /// Spans closed.
    pub count: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

impl SpanSum {
    fn close(&mut self, d: std::time::Duration) {
        self.count += 1;
        self.ns += d.as_nanos() as u64;
    }

    fn merge(&mut self, other: SpanSum) {
        self.count += other.count;
        self.ns += other.ns;
    }

    /// Mean span duration in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// Span totals per callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// `on_start` spans.
    pub start: SpanSum,
    /// `on_packet` spans.
    pub packet: SpanSum,
    /// `on_timer` spans.
    pub timer: SpanSum,
}

impl SpanTotals {
    /// Add another agent's totals.
    pub fn merge(&mut self, other: SpanTotals) {
        self.start.merge(other.start);
        self.packet.merge(other.packet);
        self.timer.merge(other.timer);
    }

    /// Summed duration of all spans, seconds.
    pub fn total_s(&self) -> f64 {
        (self.start.ns + self.packet.ns + self.timer.ns) as f64 / 1e9
    }
}

/// A host agent wrapped in callback spans.
pub struct Spanned<A> {
    inner: A,
    totals: SpanTotals,
}

impl<A> Spanned<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        Spanned {
            inner,
            totals: SpanTotals::default(),
        }
    }
}

impl<A: HostAgent> HostAgent for Spanned<A> {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        let (d, ()) = time_once(|| self.inner.on_start(ctx));
        self.totals.start.close(d);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let (d, ()) = time_once(|| self.inner.on_packet(ctx, pkt));
        self.totals.packet.close(d);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        let (d, ()) = time_once(|| self.inner.on_timer(ctx, token));
        self.totals.timer.close(d);
    }
}

/// What the harvest code needs from an agent, wrapped or not: the agent
/// itself and the spans recorded around it.
pub trait Probe: HostAgent {
    /// The agent doing the work.
    type Agent;
    /// The agent doing the work.
    fn agent(&mut self) -> &mut Self::Agent;
    /// Spans recorded so far (none for an unwrapped agent).
    fn spans(&self) -> SpanTotals {
        SpanTotals::default()
    }
}

impl<A: HostAgent> Probe for Spanned<A> {
    type Agent = A;
    fn agent(&mut self) -> &mut A {
        &mut self.inner
    }
    fn spans(&self) -> SpanTotals {
        self.totals
    }
}

/// An unwrapped agent probes as itself.
macro_rules! plain_probe {
    ($($t:ty),+ $(,)?) => {$(
        impl Probe for $t {
            type Agent = $t;
            fn agent(&mut self) -> &mut $t {
                self
            }
        }
    )+};
}

plain_probe!(
    aequitas_rpc::WorkloadHost,
    crate::raw::RawBlaster,
    aequitas_baselines::DeadlineHost,
    aequitas_baselines::PfabricHost,
    aequitas_baselines::QjumpHost,
    aequitas_baselines::HomaHost,
);

#[cfg(test)]
mod tests {
    use super::*;
    use aequitas_netsim::{Engine, EngineConfig, FlowKey, HostId, LinkSpec, PacketKind, Topology};
    use aequitas_sim_core::{SimDuration, SimTime};

    /// Host 0 sends one packet at start and arms one timer; every host
    /// logs the callbacks it receives.
    #[derive(Default)]
    struct Logger {
        log: Vec<&'static str>,
    }

    impl HostAgent for Logger {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            self.log.push("start");
            if ctx.host() == HostId(0) {
                ctx.send(Packet {
                    id: 1,
                    flow: FlowKey {
                        src: HostId(0),
                        dst: HostId(1),
                        class: 0,
                    },
                    size_bytes: 1500,
                    kind: PacketKind::Data {
                        msg_id: 0,
                        seq: 0,
                        is_last: true,
                    },
                    sent_at: ctx.now(),
                    rank: 0,
                });
                ctx.set_timer(ctx.now() + SimDuration::from_us(1), 7);
            }
        }
        fn on_packet(&mut self, _ctx: &mut HostCtx, _pkt: Packet) {
            self.log.push("packet");
        }
        fn on_timer(&mut self, _ctx: &mut HostCtx, token: u64) {
            assert_eq!(token, 7);
            self.log.push("timer");
        }
    }

    #[test]
    fn forwards_every_callback_and_adds_up_spans() {
        let topo = Topology::star(2, LinkSpec::default_100g());
        let agents = vec![
            Spanned::new(Logger::default()),
            Spanned::new(Logger::default()),
        ];
        let mut eng = Engine::new(topo, agents, EngineConfig::default_3qos());
        eng.run_until(SimTime::from_ms(1));
        let mut total = SpanTotals::default();
        for a in eng.agents_mut() {
            total.merge(a.spans());
        }
        assert_eq!(eng.agents_mut()[0].agent().log, ["start", "timer"]);
        assert_eq!(eng.agents_mut()[1].agent().log, ["start", "packet"]);
        assert_eq!(
            (total.start.count, total.packet.count, total.timer.count),
            (2, 1, 1)
        );
        let ns = total.start.ns + total.packet.ns + total.timer.ns;
        assert_eq!(total.total_s(), ns as f64 / 1e9);
        assert_eq!(total.packet.mean_ns(), total.packet.ns as f64);
        assert_eq!(SpanSum::default().mean_ns(), 0.0);
    }
}
