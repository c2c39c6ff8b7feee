//! Smoke + shape checks for every experiment the harness regenerates:
//! each of the paper's tables and figures runs end-to-end at miniature
//! scale and exhibits the trend the paper reports.

use spinamm_bench::{experiments, Scale};

fn quick() -> Scale {
    Scale::quick()
}

#[test]
fn e1_fig3a_downsizing_degrades_accuracy() {
    let rows = experiments::fig3a(&quick()).unwrap();
    assert!(rows.len() >= 3);
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(first.parameter > last.parameter, "sweep orders big → small");
    assert!(
        first.ideal > last.ideal + 0.2,
        "ideal accuracy must collapse"
    );
    assert!(first.hardware > last.hardware, "hardware follows");
}

#[test]
fn e2_fig3b_resolution_degrades_accuracy() {
    let rows = experiments::fig3b(&quick()).unwrap();
    let low = rows.first().unwrap();
    let high = rows.last().unwrap();
    assert!(high.parameter > low.parameter);
    assert!(
        high.hardware >= low.hardware,
        "more WTA bits cannot hurt: {} vs {}",
        high.hardware,
        low.hardware
    );
}

#[test]
fn e3_fig5b_threshold_scales_with_area() {
    let rows = experiments::fig5b(&[0.5, 1.0, 2.0]).unwrap();
    // I_c ∝ cross-section (factor²).
    assert!((rows[0].analytic / rows[1].analytic - 0.25).abs() < 1e-9);
    assert!((rows[2].analytic / rows[1].analytic - 4.0).abs() < 1e-9);
    for r in &rows {
        assert!(
            (r.simulated - r.analytic).abs() / r.analytic < 0.25,
            "ODE threshold {} vs analytic {}",
            r.simulated,
            r.analytic
        );
    }
}

#[test]
fn e4_fig5c_switching_faster_with_current_and_scaling() {
    let rows = experiments::fig5c(&[1.0, 0.5], &[2.0, 4.0, 8.0]).unwrap();
    let t = |factor: f64, current: f64| {
        rows.iter()
            .find(|r| {
                (r.factor - factor).abs() < 1e-9 && (r.current - current * 1e-6).abs() < 1e-12
            })
            .and_then(|r| r.time)
            .unwrap()
    };
    assert!(t(1.0, 2.0) > t(1.0, 4.0));
    assert!(t(1.0, 4.0) > t(1.0, 8.0));
    assert!(t(0.5, 4.0) < t(1.0, 4.0), "smaller device switches faster");
}

#[test]
fn e5_fig7a_hysteresis_loop() {
    let study = experiments::fig7a(41);
    let half = study.hysteresis.len() / 2;
    let at_zero_up = study.hysteresis[..half]
        .iter()
        .min_by(|a, b| a.current.0.abs().total_cmp(&b.current.0.abs()))
        .unwrap()
        .output;
    let at_zero_down = study.hysteresis[half..]
        .iter()
        .min_by(|a, b| a.current.0.abs().total_cmp(&b.current.0.abs()))
        .unwrap()
        .output;
    assert!(
        at_zero_up < 0.0 && at_zero_down > 0.0,
        "loop must be open at 0"
    );
    // Thermal curve is a smooth monotone ramp.
    for w in study.thermal.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-12);
    }
}

#[test]
fn e6_fig8b_inl_vs_load() {
    let curves = experiments::fig8b(&[100.0, 2.0, 0.5]).unwrap();
    assert!(curves[0].inl < 0.01, "light loading is near-linear");
    assert!(curves[2].inl > 0.15, "heavy loading compresses hard");
}

#[test]
fn e7_fig9a_margin_penalized_at_high_r() {
    let points = experiments::fig9a(&quick(), &[1.0, 20.0]).unwrap();
    assert!(
        points[1].margin < points[0].margin,
        "high-R window margin {} must fall below paper window {}",
        points[1].margin,
        points[0].margin
    );
}

#[test]
fn e8_fig9b_margin_penalized_at_low_dv() {
    let points = experiments::fig9b(&quick(), &[30.0, 4.0]).unwrap();
    assert!(
        points[1].margin <= points[0].margin + 0.05,
        "4 mV margin {} should not beat 30 mV margin {}",
        points[1].margin,
        points[0].margin
    );
}

#[test]
fn e9_fig13a_power_decomposition() {
    let rows = experiments::fig13a(&quick(), &[0.5, 2.0]).unwrap();
    // Static component scales with the DWN threshold; dynamic stays flat.
    assert!(rows[1].static_power > 2.0 * rows[0].static_power);
    assert!(rows[1].dynamic_power < 2.0 * rows[0].dynamic_power);
    for r in &rows {
        assert!(r.total() > 0.0 && r.total() < 1e-3);
    }
}

#[test]
fn e10_fig13b_variation_ratio_grows() {
    let rows = experiments::fig13b(&quick(), &[5.0, 25.0]).unwrap();
    assert!(rows[1].ratio_andreou > 10.0 * rows[0].ratio_andreou);
    assert!(rows[1].ratio_dlugosz > 10.0 * rows[0].ratio_dlugosz);
    assert!(rows[0].ratio_andreou > 1.0 && rows[0].ratio_dlugosz > 1.0);
}

#[test]
fn e11_table1_orderings() {
    let rows = experiments::table1(&quick(), &[5, 4, 3]).unwrap();
    for r in &rows {
        // The proposed design is the lowest-power and lowest-energy option.
        assert!(r.spin_power < r.dlugosz_power);
        assert!(r.spin_power < r.andreou_power);
        assert!(r.spin_power < r.digital_power);
        assert!(r.energy_ratios.iter().all(|&x| x > 1.0));
        // Digital pays the most energy per recognition (Table 1's striking
        // column).
        assert!(r.energy_ratios[2] > r.energy_ratios[0]);
        assert!(r.energy_ratios[2] > r.energy_ratios[1]);
    }
    // Power grows with resolution for every implementation.
    assert!(rows[0].spin_power > rows[2].spin_power);
    assert!(rows[0].dlugosz_power > rows[2].dlugosz_power);
    assert!(rows[0].digital_power > rows[2].digital_power);
}

#[test]
fn e12_table2_canonical_parameters() {
    let s = experiments::table2();
    for needle in ["16x8", "5-bit", "100 MHz", "30 mV", "Ic = 1", "20 kT"] {
        assert!(s.contains(needle), "Table 2 must list {needle}: {s}");
    }
}

#[test]
fn e13_yield_mitigation_halves_the_drop() {
    let rows = experiments::yield_study(&quick()).unwrap();
    assert!(rows.len() >= 4);
    for pair in rows.windows(2) {
        assert!(pair[0].fault_rate < pair[1].fault_rate);
    }
    let zero = &rows[0];
    assert_eq!(zero.fault_rate, 0.0);
    assert_eq!(zero.remapped, 0, "a pristine map must not trigger remaps");
    let five = rows
        .iter()
        .find(|r| (r.fault_rate - 0.05).abs() < 1e-12)
        .expect("the 5 % point is the acceptance anchor");
    let unmit_drop = zero.unmitigated_accuracy - five.unmitigated_accuracy;
    let mit_drop = zero.mitigated_accuracy - five.mitigated_accuracy;
    assert!(unmit_drop > 0.0, "5 % stuck cells must hurt");
    assert!(
        mit_drop <= 0.5 * unmit_drop,
        "remapping must keep at least half the drop: {mit_drop} vs {unmit_drop}"
    );
}

#[test]
fn e20_lifetime_maintenance_holds_accuracy() {
    let study = experiments::lifetime_study(&quick()).unwrap();
    assert_eq!(study.arms.len(), 4, "2 corners x maintained/unmaintained");
    for arm in &study.arms {
        assert!(!arm.points.is_empty());
        let qs: Vec<f64> = arm.points.iter().map(|p| p.queries).collect();
        assert!(qs.windows(2).all(|w| w[0] < w[1]), "checkpoints ascend");
        assert_eq!(*qs.last().unwrap(), study.horizon_queries);
        if arm.maintained {
            // The maintenance contract: hold accuracy within two points
            // of fresh over the whole horizon at no more than 10 % of
            // the horizon's recall energy in refresh writes.
            assert!(
                arm.final_accuracy >= arm.fresh_accuracy - 0.02,
                "{} maintained fell to {} from fresh {}",
                arm.corner,
                arm.final_accuracy,
                arm.fresh_accuracy
            );
            assert!(
                arm.refresh_overhead <= 0.10,
                "{} refresh overhead {}",
                arm.corner,
                arm.refresh_overhead
            );
        } else {
            assert_eq!(arm.refreshes, 0, "the control arm never intervenes");
        }
    }
    let maintained = study
        .arms
        .iter()
        .find(|a| a.corner == "aggressive" && a.maintained)
        .unwrap();
    let control = study
        .arms
        .iter()
        .find(|a| a.corner == "aggressive" && !a.maintained)
        .unwrap();
    assert!(
        maintained.refreshes > 0,
        "aggressive drift must trigger refreshes"
    );
    assert!(
        control.final_accuracy < control.fresh_accuracy - 0.02,
        "unmaintained aggressive must visibly degrade: {} vs fresh {}",
        control.final_accuracy,
        control.fresh_accuracy
    );
}

#[test]
fn extension_hierarchy_study() {
    let rows = experiments::hierarchy_study(&quick(), &[1, 2]).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.energy > 0.0));
    assert!(rows[0].accuracy >= rows[1].accuracy - 0.3);
}

#[test]
fn experiments_binary_rejects_unknown_arguments() {
    let report = std::env::temp_dir().join(format!(
        "experiments-unknown-argument-{}.json",
        std::process::id()
    ));
    let report_arg = report.to_str().unwrap();
    // A misspelt study selects nothing and a misspelt flag would fall back
    // to full scale: each must stop with a usage error before any study
    // runs (and before any report is written).
    for (args, unknown) in [
        (vec!["--quick", "fig3"], "fig3"),
        (vec!["--quick", "--json", report_arg, "fig3"], "fig3"),
        (vec!["--qiuck", "fig3b"], "--qiuck"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a study");
        assert!(
            stderr.contains(&format!("`{unknown}`")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
    assert!(!report.exists(), "a rejected run wrote a report");
}
