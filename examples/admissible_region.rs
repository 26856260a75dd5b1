//! Operator tool: explore the WFQ admissible region and pick SLOs.
//!
//! The paper ships its simulator partly so that "datacenter operators...
//! define the admissible region and set the right SLOs" (§6.1). This
//! example does that analytically: given WFQ weights and a load profile it
//! prints the per-class delay-bound curves, the priority-inversion boundary
//! (Lemma 1), the guaranteed admitted share (§5.2), and the admissible
//! QoSh-share for a range of SLOs.
//!
//! Run with: `cargo run --release --example admissible_region`
//! Optionally: `... -- <phi_h> <phi_m> <phi_l> <mu> <rho>`

#![allow(clippy::print_stdout, reason = "an example prints its results")]

use aequitas_analysis::{
    admissible_share_for_slo, fluid_delays, guaranteed_share, inversion_free, FluidSpec,
};

fn main() {
    let args: Vec<f64> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let (weights, mu, rho) = if args.len() >= 5 {
        (vec![args[0], args[1], args[2]], args[3], args[4])
    } else {
        (vec![8.0, 4.0, 1.0], 0.8, 1.4)
    };
    println!("WFQ weights {weights:?}, average load mu={mu}, burst load rho={rho}\n");

    // Delay-bound profile: QoSm:QoSl fixed at 2:1 as QoSh-share sweeps.
    println!(
        "{:>10} {:>10} {:>10} {:>10}  (normalized worst-case delay)",
        "QoSh-share", "QoSh", "QoSm", "QoSl"
    );
    let mut boundary = None;
    for pct in (5..=95).step_by(5) {
        let x = pct as f64 / 100.0;
        let shares = vec![x, (1.0 - x) * 2.0 / 3.0, (1.0 - x) / 3.0];
        let d = fluid_delays(&FluidSpec {
            weights: weights.clone(),
            shares: shares.clone(),
            mu,
            rho,
        });
        let ok = inversion_free(&weights, &shares, mu, rho);
        if !ok && boundary.is_none() {
            boundary = Some(pct);
        }
        println!(
            "{:>9}% {:>10.4} {:>10.4} {:>10.4}{}",
            pct,
            d[0],
            d[1],
            d[2],
            if ok { "" } else { "   <- priority inversion" }
        );
    }
    if let Some(b) = boundary {
        println!("\npriority inversion begins near QoSh-share {b}% (Lemma 1)");
    }

    println!("\nguaranteed admitted share per class (Sec 5.2):");
    for (i, _) in weights.iter().enumerate().take(weights.len() - 1) {
        println!(
            "  QoS{}: {:.1}% of line rate",
            i,
            100.0 * guaranteed_share(1.0, &weights, i, mu, rho)
        );
    }

    println!("\nmax QoSh-share admissible for a given normalized delay SLO:");
    for slo in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let share = admissible_share_for_slo(&weights, 0, &[2.0, 1.0], mu, rho, slo);
        println!(
            "  SLO {slo:>5.2} of a period -> QoSh-share <= {:.1}%",
            share * 100.0
        );
    }
}
