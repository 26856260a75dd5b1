//! Hostile numbers in a fault plan: every numeric key of the TOML schema,
//! set in turn to a huge, negative, infinite, NaN or zero value, must give
//! either an `Err` or a plan whose queries answer without panicking (this
//! test binary runs with overflow checks on). No input may silently change
//! meaning, so the out-of-range durations that used to saturate or clamp
//! are errors now.

use aequitas_faults::{FaultPlan, LinkFlap, LinkId, LinkSel};
use aequitas_sim_core::{SimDuration, SimTime};

/// One of every table, every key set to a sane value.
const BASE: &[(&str, &[(&str, &str)])] = &[
    (
        "",
        &[
            ("seed", "42"),
            ("pods", "2"),
            ("leaves_per_pod", "2"),
            ("spines_per_pod", "2"),
        ],
    ),
    (
        "link_flap",
        &[
            ("link", "\"switch:0:2\""),
            ("first_down_us", "1000.0"),
            ("down_us", "200.0"),
            ("period_us", "1000.0"),
            ("count", "3"),
        ],
    ),
    (
        "loss",
        &[
            ("link", "\"any\""),
            ("prob", "0.01"),
            ("burst_period_us", "100.0"),
            ("burst_frac", "0.1"),
            ("burst_prob", "0.5"),
        ],
    ),
    ("corrupt", &[("link", "\"host:0\""), ("prob", "0.001")]),
    ("jitter", &[("link", "\"any\""), ("max_ns", "500.0")]),
    (
        "quota_outage",
        &[("start_us", "5000.0"), ("end_us", "9000.0")],
    ),
    (
        "switch_outage",
        &[
            ("switch", "3"),
            ("start_us", "4000.0"),
            ("end_us", "8000.0"),
        ],
    ),
    (
        "pod_outage",
        &[("pod", "1"), ("start_us", "5000.0"), ("end_us", "6000.0")],
    ),
    (
        "gray_degrade",
        &[
            ("link", "\"switch:1:3\""),
            ("start_us", "4000.0"),
            ("end_us", "8000.0"),
            ("rate_frac", "0.25"),
            ("jitter_ramp_ns", "500.0"),
        ],
    ),
];

const HOSTILE: &[&str] = &[
    "0",
    "0.0",
    "-0.0",
    "-1",
    "-1e-9",
    "1.8e13",
    "1e19",
    "1e300",
    "-1e300",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "inf",
    "-inf",
    "nan",
];

/// The plan's TOML with `table`'s `key` (the root's when `table` is "")
/// set to `value`.
fn plan_text(table: &str, key: &str, value: &str) -> String {
    let mut text = String::new();
    for (name, keys) in BASE {
        if !name.is_empty() {
            text.push_str(&format!("[[{name}]]\n"));
        }
        for (k, v) in *keys {
            let v = if *name == table && *k == key {
                value
            } else {
                v
            };
            text.push_str(&format!("{k} = {v}\n"));
        }
    }
    text
}

/// Ask the plan everything the engine and harness ask, at instants from the
/// start of time to its end.
fn query_everything(plan: &FaultPlan) {
    let links = [
        LinkId::HostUp(0),
        LinkId::HostUp(7),
        LinkId::SwitchPort { switch: 0, port: 2 },
        LinkId::SwitchPort { switch: 1, port: 3 },
        LinkId::SwitchPort { switch: 3, port: 0 },
        LinkId::SwitchPort { switch: 9, port: 1 },
    ];
    let instants = [
        SimTime::ZERO,
        SimTime::from_us(1),
        SimTime::from_us(1_100),
        SimTime::from_us(4_500),
        SimTime::from_us(5_500),
        SimTime::from_ms(1_000),
        SimTime::from_ps(u64::MAX / 2),
        SimTime::from_ps(u64::MAX - 1),
    ];
    plan.affects_fabric();
    for now in instants {
        plan.quota_server_down(now);
        for link in links {
            plan.link_down(link, now);
            plan.link_up_at(link, now);
            plan.gray_rate_frac(link, now);
            for pkt in [0, 1, u64::MAX] {
                plan.packet_fate(link, pkt, now);
                plan.extra_delay(link, pkt, now);
            }
        }
    }
}

#[test]
fn the_base_plan_is_valid() {
    let plan = FaultPlan::from_toml_str(&plan_text("", "", "")).expect("base plan parses");
    assert_eq!(plan.flaps.len(), 1);
    assert_eq!(plan.gray.len(), 1);
    query_everything(&plan);
}

#[test]
fn every_numeric_key_survives_every_hostile_number() {
    let mut accepted = 0;
    let mut rejected = 0;
    for (table, keys) in BASE {
        for (key, sane) in *keys {
            if sane.starts_with('"') {
                continue; // a link selector, not a number
            }
            for value in HOSTILE {
                match FaultPlan::from_toml_str(&plan_text(table, key, value)) {
                    Ok(plan) => {
                        accepted += 1;
                        query_everything(&plan);
                    }
                    Err(e) => {
                        rejected += 1;
                        assert!(!e.is_empty(), "[[{table}]] {key} = {value}: empty error");
                    }
                }
            }
        }
    }
    // Both outcomes occur: zero is a valid seed or count, infinity never is.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn out_of_range_durations_are_errors_not_clamps() {
    for (key, value) in [
        ("down_us", "1e19"),
        ("down_us", "inf"),
        ("down_us", "18446744073709551615"),
        ("down_us", "-5"),
        ("first_down_us", "nan"),
        ("period_us", "-inf"),
    ] {
        let err = FaultPlan::from_toml_str(&plan_text("link_flap", key, value))
            .expect_err(&format!("{key} = {value} must be rejected"));
        assert!(err.contains(key), "{key} = {value}: {err}");
    }
    for (table, key) in [("jitter", "max_ns"), ("gray_degrade", "jitter_ramp_ns")] {
        let err = FaultPlan::from_toml_str(&plan_text(table, key, "-1")).unwrap_err();
        assert!(err.contains(key), "{err}");
    }
    let err = FaultPlan::from_toml_str(&plan_text("link_flap", "count", "4294967296")).unwrap_err();
    assert!(err.contains("count"), "{err}");
}

#[test]
fn a_flap_ending_past_the_clock_is_rejected_by_name() {
    // The first window fits the clock, the later ones end past u64::MAX
    // ps: wrapping, such a flap reported the link up while it was down.
    let plan = FaultPlan {
        flaps: vec![LinkFlap {
            link: LinkSel::HostUp(0),
            first_down: SimTime::from_us(1),
            down: SimDuration::from_ps(u64::MAX / 2),
            period: SimDuration::from_ps(u64::MAX / 2),
            count: 3,
        }],
        ..FaultPlan::default()
    };
    let err = plan.validated().unwrap_err();
    assert!(
        err.contains("[[link_flap]] #0") && err.contains("last down window"),
        "{err}"
    );

    // The same flap with the count that fits is accepted and down at once.
    let plan = FaultPlan {
        flaps: vec![LinkFlap {
            link: LinkSel::HostUp(0),
            first_down: SimTime::from_us(1),
            down: SimDuration::from_ps(u64::MAX / 2),
            period: SimDuration::from_ps(u64::MAX / 2),
            count: 1,
        }],
        ..FaultPlan::default()
    }
    .validated()
    .expect("one window fits the clock");
    assert!(plan.link_down(LinkId::HostUp(0), SimTime::from_us(2)));
    assert!(plan.link_down(LinkId::HostUp(0), SimTime::from_ms(1_000)));
}

#[test]
fn extra_delays_that_cannot_be_added_are_rejected() {
    let text = "[[jitter]]\nlink = \"any\"\nmax_ns = 1e16\n\
                [[jitter]]\nlink = \"any\"\nmax_ns = 1e16\n";
    let err = FaultPlan::from_toml_str(text).unwrap_err();
    assert!(err.contains("extra delays"), "{err}");

    let text = "[[gray_degrade]]\nlink = \"any\"\nstart_us = 1.0\nend_us = 1.8e13\n\
                jitter_ramp_ns = 1e15\n";
    let err = FaultPlan::from_toml_str(text).unwrap_err();
    assert!(
        err.contains("[[gray_degrade]] #0") && err.contains("jitter ramp"),
        "{err}"
    );
}
