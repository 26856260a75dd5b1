//! A minimal TOML-subset parser for fault plans.
//!
//! The workspace is fully offline (no external crates), so fault plans are
//! written in a restricted TOML dialect this module parses directly:
//!
//! * top-level `key = value` pairs,
//! * `[[table]]` array-of-tables headers,
//! * values: quoted strings, integers, floats, booleans,
//! * `#` comments and blank lines.
//!
//! Unknown keys and tables are **errors**, not warnings — a typo in a chaos
//! plan silently disabling a fault would invalidate an experiment.

use crate::{
    BurstLoss, CorruptRule, FaultPlan, GrayDegrade, JitterRule, LinkFlap, LinkSel, LossRule,
    PodLayout, PodOutage, SwitchOutage, Window,
};
use aequitas_sim_core::{SimDuration, SimTime};

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A boolean literal.
    Bool(bool),
}

impl Value {
    fn as_u64(&self, key: &str) -> Result<u64, String> {
        match self {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            _ => Err(format!("key {key:?}: expected a non-negative integer, got {self:?}")),
        }
    }

    fn as_f64(&self, key: &str) -> Result<f64, String> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(format!("key {key:?}: expected a number, got {self:?}")),
        }
    }

    fn as_u32(&self, key: &str) -> Result<u32, String> {
        let v = self.as_u64(key)?;
        u32::try_from(v).map_err(|_| format!("key {key:?}: {v} is larger than {}", u32::MAX))
    }

    /// A duration of `self` units of `ps_per_unit` picoseconds: finite,
    /// non-negative, and short enough for the picosecond clock.
    fn as_duration(&self, key: &str, ps_per_unit: f64) -> Result<f64, String> {
        let v = self.as_f64(key)?;
        // 2^64 ps is the first duration the clock cannot hold.
        if v.is_finite() && v >= 0.0 && v * ps_per_unit < 18_446_744_073_709_551_616.0 {
            Ok(v)
        } else {
            Err(format!(
                "key {key:?}: expected a finite, non-negative duration below {:.4e} ps, got {v}",
                u64::MAX as f64
            ))
        }
    }

    fn as_str(&self, key: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("key {key:?}: expected a string, got {self:?}")),
        }
    }
}

/// A flat table: the keys set in one `[[section]]` body (or at the root).
pub type Table = Vec<(String, Value)>;

/// A parsed document: root-level keys plus `[[name]]` tables in order.
#[derive(Debug, Default)]
pub struct Document {
    /// Keys set before the first `[[table]]` header.
    pub root: Table,
    /// Array-of-tables sections in file order.
    pub tables: Vec<(String, Table)>,
}

fn parse_value(raw: &str, line_no: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!("line {line_no}: escapes are not supported in strings"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(format!("line {line_no}: cannot parse value {raw:?}"))
}

/// Parse the restricted TOML dialect into a `Document`.
pub fn parse_document(text: &str) -> Result<Document, String> {
    let mut doc = Document::default();
    // Index into doc.tables of the section currently being filled.
    let mut current: Option<usize> = None;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        // Strip comments. Strings may not contain '#', so this split is safe
        // in this dialect.
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let name = header
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {line_no}: malformed table header"))?
                .trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {line_no}: bad table name {name:?}"));
            }
            doc.tables.push((name.to_string(), Table::new()));
            current = Some(doc.tables.len() - 1);
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {line_no}: plain [table] sections are not supported; use [[table]]"
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {line_no}: expected key = value"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {line_no}: bad key {key:?}"));
        }
        let value = parse_value(value, line_no)?;
        let table = match current {
            Some(idx) => &mut doc.tables[idx].1,
            None => &mut doc.root,
        };
        table.push((key.to_string(), value));
    }
    Ok(doc)
}

/// Look up a key in a table, enforcing single assignment.
fn get<'a>(table: &'a Table, key: &str) -> Result<Option<&'a Value>, String> {
    let mut found = None;
    for (k, v) in table {
        if k == key {
            if found.is_some() {
                return Err(format!("key {key:?} set more than once"));
            }
            found = Some(v);
        }
    }
    Ok(found)
}

fn require<'a>(table: &'a Table, section: &str, key: &str) -> Result<&'a Value, String> {
    get(table, key)?.ok_or_else(|| format!("[[{section}]]: missing required key {key:?}"))
}

fn reject_unknown(table: &Table, section: &str, known: &[&str]) -> Result<(), String> {
    for (k, _) in table {
        if !known.contains(&k.as_str()) {
            return Err(format!("[[{section}]]: unknown key {k:?} (known: {known:?})"));
        }
    }
    Ok(())
}

fn link_of(table: &Table, section: &str) -> Result<LinkSel, String> {
    LinkSel::parse(require(table, section, "link")?.as_str("link")?)
}

fn us_duration(table: &Table, section: &str, key: &str) -> Result<SimDuration, String> {
    let us = require(table, section, key)?.as_duration(key, 1e6)?;
    Ok(SimDuration::from_us_f64(us))
}

/// A `*_ns` duration; nanoseconds truncate to whole picoseconds.
fn ns_duration(value: &Value, key: &str) -> Result<SimDuration, String> {
    Ok(SimDuration::from_ps((value.as_duration(key, 1e3)? * 1000.0) as u64))
}

fn window_of(table: &Table, section: &str) -> Result<Window, String> {
    Ok(Window {
        start: SimTime::ZERO + us_duration(table, section, "start_us")?,
        end: SimTime::ZERO + us_duration(table, section, "end_us")?,
    })
}

/// Build a [`FaultPlan`] from fault-plan TOML. Schema (all times relative to
/// sim start):
///
/// ```toml
/// seed = 42                      # optional, default 0
/// pods = 2                       # optional pod layout for "pod:<p>" selectors
/// leaves_per_pod = 2             # and [[pod_outage]]; all three keys together,
/// spines_per_pod = 2             # mirroring Topology::clos switch-id order
///
/// [[link_flap]]
/// link = "switch:0:2"            # "any" | "host:<h>" | "switch:<s>" |
///                                # "switch:<s>:<p>" | "pod:<p>"
/// first_down_us = 1000.0
/// down_us = 200.0
/// period_us = 1000.0
/// count = 3
///
/// [[loss]]
/// link = "any"
/// prob = 0.01
/// burst_period_us = 100.0        # optional; all three burst keys together
/// burst_frac = 0.1
/// burst_prob = 0.5
///
/// [[corrupt]]
/// link = "host:0"
/// prob = 0.001
///
/// [[jitter]]
/// link = "any"
/// max_ns = 500.0
///
/// [[quota_outage]]
/// start_us = 5000.0
/// end_us = 9000.0
///
/// [[switch_outage]]              # every port of the switch blackholes
/// switch = 3
/// start_us = 4000.0
/// end_us = 8000.0
///
/// [[pod_outage]]                 # every leaf/spine of the pod blackholes;
/// pod = 1                        # requires the pod layout root keys
/// start_us = 4000.0
/// end_us = 8000.0
///
/// [[gray_degrade]]               # link runs slow, not down
/// link = "switch:1:3"
/// start_us = 4000.0
/// end_us = 8000.0
/// rate_frac = 0.25               # optional, default 1.0 (no rate change)
/// jitter_ramp_ns = 500.0         # optional, default 0: per-packet jitter cap
///                                # grows linearly from 0 to this over the window
/// ```
pub fn plan_from_toml(text: &str) -> Result<FaultPlan, String> {
    let doc = parse_document(text)?;
    reject_unknown(
        &doc.root,
        "root",
        &["seed", "pods", "leaves_per_pod", "spines_per_pod"],
    )?;
    let pod_layout = {
        let pods = get(&doc.root, "pods")?;
        let leaves = get(&doc.root, "leaves_per_pod")?;
        let spines = get(&doc.root, "spines_per_pod")?;
        match (pods, leaves, spines) {
            (None, None, None) => None,
            (Some(p), Some(l), Some(s)) => Some(PodLayout {
                pods: p.as_u64("pods")? as usize,
                leaves_per_pod: l.as_u64("leaves_per_pod")? as usize,
                spines_per_pod: s.as_u64("spines_per_pod")? as usize,
            }),
            _ => {
                return Err(
                    "pod layout requires all of pods, leaves_per_pod, spines_per_pod".to_string(),
                )
            }
        }
    };
    let mut plan = FaultPlan {
        seed: match get(&doc.root, "seed")? {
            Some(v) => v.as_u64("seed")?,
            None => 0,
        },
        pod_layout,
        ..FaultPlan::default()
    };
    for (name, table) in &doc.tables {
        match name.as_str() {
            "link_flap" => {
                reject_unknown(
                    table,
                    name,
                    &["link", "first_down_us", "down_us", "period_us", "count"],
                )?;
                plan.flaps.push(LinkFlap {
                    link: link_of(table, name)?,
                    first_down: SimTime::ZERO + us_duration(table, name, "first_down_us")?,
                    down: us_duration(table, name, "down_us")?,
                    period: us_duration(table, name, "period_us")?,
                    count: require(table, name, "count")?.as_u32("count")?,
                });
            }
            "loss" => {
                reject_unknown(
                    table,
                    name,
                    &["link", "prob", "burst_period_us", "burst_frac", "burst_prob"],
                )?;
                let burst = match get(table, "burst_period_us")? {
                    Some(p) => Some(BurstLoss {
                        period: SimDuration::from_us_f64(p.as_duration("burst_period_us", 1e6)?),
                        frac: require(table, name, "burst_frac")?.as_f64("burst_frac")?,
                        prob: require(table, name, "burst_prob")?.as_f64("burst_prob")?,
                    }),
                    None => {
                        if get(table, "burst_frac")?.is_some()
                            || get(table, "burst_prob")?.is_some()
                        {
                            return Err(
                                "[[loss]]: burst_frac/burst_prob require burst_period_us"
                                    .to_string(),
                            );
                        }
                        None
                    }
                };
                plan.loss.push(LossRule {
                    link: link_of(table, name)?,
                    prob: require(table, name, "prob")?.as_f64("prob")?,
                    burst,
                });
            }
            "corrupt" => {
                reject_unknown(table, name, &["link", "prob"])?;
                plan.corrupt.push(CorruptRule {
                    link: link_of(table, name)?,
                    prob: require(table, name, "prob")?.as_f64("prob")?,
                });
            }
            "jitter" => {
                reject_unknown(table, name, &["link", "max_ns"])?;
                plan.jitter.push(JitterRule {
                    link: link_of(table, name)?,
                    max: ns_duration(require(table, name, "max_ns")?, "max_ns")?,
                });
            }
            "quota_outage" => {
                reject_unknown(table, name, &["start_us", "end_us"])?;
                plan.quota_outages.push(window_of(table, name)?);
            }
            "switch_outage" => {
                reject_unknown(table, name, &["switch", "start_us", "end_us"])?;
                plan.switch_outages.push(SwitchOutage {
                    switch: require(table, name, "switch")?.as_u64("switch")? as usize,
                    window: window_of(table, name)?,
                });
            }
            "pod_outage" => {
                reject_unknown(table, name, &["pod", "start_us", "end_us"])?;
                plan.pod_outages.push(PodOutage {
                    pod: require(table, name, "pod")?.as_u64("pod")? as usize,
                    window: window_of(table, name)?,
                });
            }
            "gray_degrade" => {
                reject_unknown(
                    table,
                    name,
                    &["link", "start_us", "end_us", "rate_frac", "jitter_ramp_ns"],
                )?;
                plan.gray.push(GrayDegrade {
                    link: link_of(table, name)?,
                    window: window_of(table, name)?,
                    rate_frac: match get(table, "rate_frac")? {
                        Some(v) => v.as_f64("rate_frac")?,
                        None => 1.0,
                    },
                    jitter_ramp: match get(table, "jitter_ramp_ns")? {
                        Some(v) => ns_duration(v, "jitter_ramp_ns")?,
                        None => SimDuration::ZERO,
                    },
                });
            }
            other => {
                return Err(format!(
                    "unknown table [[{other}]] (known: link_flap, loss, corrupt, jitter, \
                     quota_outage, switch_outage, pod_outage, gray_degrade)"
                ))
            }
        }
    }
    plan.validated()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketFate;

    const FULL_PLAN: &str = r#"
# Chaos plan exercising every rule type.
seed = 42

[[link_flap]]
link = "switch:0:2"
first_down_us = 1000.0
down_us = 200.0
period_us = 1000.0
count = 3

[[loss]]
link = "any"
prob = 0.01
burst_period_us = 100.0
burst_frac = 0.1
burst_prob = 0.5

[[corrupt]]
link = "host:0"
prob = 0.001

[[jitter]]
link = "any"
max_ns = 500.0

[[quota_outage]]
start_us = 5000.0
end_us = 9000.0
"#;

    #[test]
    fn full_plan_round_trips() {
        let plan = plan_from_toml(FULL_PLAN).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.flaps.len(), 1);
        assert_eq!(plan.loss.len(), 1);
        assert!(plan.loss[0].burst.is_some());
        assert_eq!(plan.corrupt.len(), 1);
        assert_eq!(plan.jitter.len(), 1);
        assert_eq!(plan.quota_outages.len(), 1);
        assert!(plan.affects_fabric());
        assert!(plan.quota_server_down(SimTime::from_us(6000)));
        assert!(plan.link_down(
            crate::LinkId::SwitchPort { switch: 0, port: 2 },
            SimTime::from_us(1100)
        ));
    }

    #[test]
    fn empty_plan_is_valid_and_inert() {
        let plan = plan_from_toml("").unwrap();
        assert!(!plan.affects_fabric());
        assert_eq!(
            plan.packet_fate(crate::LinkId::HostUp(0), 1, SimTime::ZERO),
            PacketFate::Deliver
        );
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = plan_from_toml("[[loss]]\nlink = \"any\"\nprobability = 0.5\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn unknown_table_is_an_error() {
        let err = plan_from_toml("[[packet_loss]]\nprob = 0.5\n").unwrap_err();
        assert!(err.contains("unknown table"), "{err}");
    }

    #[test]
    fn missing_required_key_is_an_error() {
        let err = plan_from_toml("[[loss]]\nprob = 0.5\n").unwrap_err();
        assert!(err.contains("missing required key"), "{err}");
    }

    #[test]
    fn burst_keys_require_period() {
        let err =
            plan_from_toml("[[loss]]\nlink = \"any\"\nprob = 0.1\nburst_frac = 0.5\n").unwrap_err();
        assert!(err.contains("burst_period_us"), "{err}");
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let err = plan_from_toml("seed = 1\nseed = 2\n").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let plan = plan_from_toml("# hi\n\nseed = 9 # trailing\n").unwrap();
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn plain_table_header_rejected() {
        let err = plan_from_toml("[loss]\nprob = 0.5\n").unwrap_err();
        assert!(err.contains("[[table]]"), "{err}");
    }

    const CHAOS_PLAN: &str = r#"
seed = 7
pods = 2
leaves_per_pod = 2
spines_per_pod = 2

[[switch_outage]]
switch = 3
start_us = 4000.0
end_us = 8000.0

[[pod_outage]]
pod = 1
start_us = 5000.0
end_us = 6000.0

[[gray_degrade]]
link = "switch:1:3"
start_us = 4000.0
end_us = 8000.0
rate_frac = 0.25
jitter_ramp_ns = 500.0
"#;

    #[test]
    fn chaos_plan_round_trips() {
        let plan = plan_from_toml(CHAOS_PLAN).unwrap();
        assert_eq!(plan.switch_outages.len(), 1);
        assert_eq!(plan.pod_outages.len(), 1);
        assert_eq!(plan.gray.len(), 1);
        assert_eq!(plan.gray[0].rate_frac, 0.25);
        assert_eq!(plan.gray[0].jitter_ramp, SimDuration::from_ps(500_000));
        assert_eq!(
            plan.pod_layout,
            Some(PodLayout { pods: 2, leaves_per_pod: 2, spines_per_pod: 2 })
        );
        // Switch 3 (a leaf of pod 1) is down during its own window and the
        // pod outage alike; switch 0 (pod 0) is untouched.
        let port = |switch| crate::LinkId::SwitchPort { switch, port: 0 };
        assert!(plan.link_down(port(3), SimTime::from_us(4500)));
        assert!(plan.link_down(port(2), SimTime::from_us(5500)));
        assert!(!plan.link_down(port(2), SimTime::from_us(4500)));
        assert!(!plan.link_down(port(0), SimTime::from_us(5500)));
        assert_eq!(
            plan.gray_rate_frac(
                crate::LinkId::SwitchPort { switch: 1, port: 3 },
                SimTime::from_us(5000)
            ),
            0.25
        );
    }

    #[test]
    fn partial_pod_layout_is_an_error() {
        let err = plan_from_toml("pods = 2\n").unwrap_err();
        assert!(err.contains("pod layout requires"), "{err}");
    }

    #[test]
    fn pod_outage_without_layout_is_an_error() {
        let err =
            plan_from_toml("[[pod_outage]]\npod = 0\nstart_us = 1.0\nend_us = 2.0\n").unwrap_err();
        assert!(err.contains("pod layout"), "{err}");
    }

    #[test]
    fn validation_failures_surface_from_toml() {
        // A zero flap period used to be silently clamped; now it is a parse
        // error naming the rule.
        let err = plan_from_toml(
            "[[link_flap]]\nlink = \"any\"\nfirst_down_us = 1.0\ndown_us = 0.0\n\
             period_us = 0.0\ncount = 1\n",
        )
        .unwrap_err();
        assert!(err.contains("period must be positive"), "{err}");

        let err = plan_from_toml(
            "[[gray_degrade]]\nlink = \"any\"\nstart_us = 1.0\nend_us = 2.0\nrate_frac = 0.0\n",
        )
        .unwrap_err();
        assert!(err.contains("rate_frac"), "{err}");

        let err = plan_from_toml("[[jitter]]\nlink = \"any\"\nmax_ns = 0.0\n").unwrap_err();
        assert!(err.contains("max"), "{err}");
    }
}
