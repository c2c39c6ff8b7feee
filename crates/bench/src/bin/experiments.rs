//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--quick] [--json <path>]
//!             [fig3a|fig3b|fig5b|fig5c|fig7a|fig8b|fig9a|fig9b|
//!              fig13a|fig13b|table1|table2|hierarchy|ablations|settling|
//!              drift|write-precision|disturb|noise|yield|conformance|
//!              capacity|lifetime|all]
//! ```
//!
//! Without arguments, runs `all` at full (paper) scale. `--quick` runs the
//! miniature configuration used by the test suite. An unknown study name or
//! flag prints the usage line and exits 2 before any study runs. `--json
//! <path>` also writes every selected study's rows — plus a telemetry
//! snapshot from an instrumented parasitic-fidelity recognition run — as one
//! machine-readable JSON report (see README.md, "Observability"). Simulator
//! speed is timed by the repository benchmark (`perfbench/`, compared in
//! interleaved pairs by `ci/bench_pairs.py`), not here.

use spinamm_bench::report::{eng, Table};
use spinamm_bench::{experiments, Scale};
use spinamm_telemetry::json::{self, JsonValue};
use std::process::ExitCode;

/// One rendered study: the printable text and its structured twin.
struct Section {
    text: String,
    json: JsonValue,
}

impl Section {
    fn table(t: &Table) -> Self {
        Self {
            text: t.render(),
            json: t.to_json(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path = None;
    let mut wanted: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => match rest.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("--json requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            name => wanted.push(name),
        }
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };

    // Report order; the JSON report lists studies in this order too.
    let sections: [(&str, &dyn Fn() -> Rendered); 23] = [
        ("table2", &render_table2),
        ("fig3a", &|| render_fig3a(&scale)),
        ("fig3b", &|| render_fig3b(&scale)),
        ("fig5b", &render_fig5b),
        ("fig5c", &render_fig5c),
        ("fig7a", &render_fig7a),
        ("fig8b", &render_fig8b),
        ("fig9a", &|| render_fig9a(&scale)),
        ("fig9b", &|| render_fig9b(&scale)),
        ("fig13a", &|| render_fig13a(&scale)),
        ("fig13b", &|| render_fig13b(&scale)),
        ("table1", &|| render_table1(&scale)),
        ("hierarchy", &|| render_hierarchy(&scale)),
        ("ablations", &|| render_ablations(&scale)),
        ("settling", &render_settling),
        ("drift", &|| render_drift(&scale)),
        ("write-precision", &|| render_write_precision(&scale)),
        ("disturb", &render_disturb),
        ("noise", &|| render_noise(&scale)),
        ("yield", &|| render_yield(&scale)),
        ("conformance", &|| render_conformance(&scale)),
        ("capacity", &|| render_capacity(&scale)),
        ("lifetime", &|| render_lifetime(&scale)),
    ];
    if let Some(unknown) = wanted
        .iter()
        .find(|w| **w != "all" && sections.iter().all(|(name, _)| name != *w))
    {
        let names: Vec<&str> = sections.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown argument `{unknown}`\nusage: experiments [--quick] [--json <path>] [all|{}]...",
            names.join("|")
        );
        return ExitCode::from(2);
    }

    let all = wanted.is_empty() || wanted.contains(&"all");
    let mut failures = 0;
    let mut studies: Vec<(&str, JsonValue)> = Vec::new();
    for (name, render) in sections {
        if !all && !wanted.contains(&name) {
            continue;
        }
        match render() {
            Ok(section) => {
                println!("{}", section.text);
                studies.push((name, section.json));
            }
            Err(e) => {
                eprintln!("{name}: FAILED: {e}");
                failures += 1;
            }
        }
    }

    if let Some(path) = json_path {
        match write_json_report(&path, &scale, quick, studies) {
            Ok(()) => println!("wrote JSON report to {path}"),
            Err(e) => {
                eprintln!("--json {path}: FAILED: {e}");
                failures += 1;
            }
        }
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Assembles and writes the machine-readable report: every rendered study
/// plus a telemetry snapshot from an instrumented recognition workload.
///
/// Schema history: v1 had `studies[].{name, report}`; v2 adds per-study and
/// total wall-clock fields; v3 adds the `yield` study, whose report
/// carries numeric `rows[]` (fault rates, unmitigated/mitigated accuracy
/// and margin, fault counters) instead of rendered table cells; v4 adds
/// the `engine-scale` study (E14); v5 adds the `conformance` study (E15),
/// a flat numeric object (cases, checks, `unwaived_divergences`,
/// `injected_caught`, observed divergence maxima, cross-decomposition
/// agreement rates) from the cross-fidelity differential sweep plus
/// committed-corpus replay; v6 adds the `profile` study (E16); v7 adds the
/// `plan` study (E17); v8 adds the `capacity` study (E18) with numeric
/// `rows[]` over the templates × k sweep (throughput, energy per query, the
/// `topk_matches_oracle` / `top1_matches_wta` verdicts and the
/// engine-identity pair CI gates on) and extends the `conformance` report
/// with `flat_tiled_agreement`; v9 adds the `serve` study (E19) with one
/// numeric row per tenant of the serving mix (closed-loop saturation qps,
/// open-loop p50/p99/p999/mean latency measured from scheduled arrivals,
/// per-tenant queue-wait p99, the served/429/503 admission split and the
/// `served_identical` bit-identity verdict CI gates on) plus run context
/// (`host_cpus`, `loader_threads`, `total_queries`, `wall_seconds`); v10
/// adds the `lifetime` study (E20) with one object per
/// drift-corner × maintenance arm (fresh/final threshold-respecting
/// accuracy, refresh counts split by trigger, wear-leveled migrations,
/// refresh-energy overhead relative to recall energy — the quantities
/// `check_lifetime` gates on) and log-spaced `points[]` over the virtual
/// traffic horizon (10⁶ queries quick, 10⁹-equivalent full); v11 drops
/// the plan study's f32-tier fields; v12 drops the `engine-scale`,
/// `profile` and `plan` studies and the wall-clock fields, since the
/// repository benchmark (`perfbench/`) times the simulator; v13 drops the
/// capacity study's `wall_seconds`, `throughput_qps` and `host_cpus`; v14
/// drops the `serve` study and the telemetry `spans`, the report's last
/// wall times, so a report is a function of the commit and scale alone
/// (`ci/regression_gate.py` compares every value); v15 drops the lifetime
/// arms' two per-trigger refresh counts, since every refresh is
/// margin-triggered and `refreshes` counts them all.
fn write_json_report(
    path: &str,
    scale: &Scale,
    quick: bool,
    studies: Vec<(&str, JsonValue)>,
) -> Result<(), Box<dyn std::error::Error>> {
    // Span series are wall times: the report keeps the counters, gauges,
    // histograms and events, which repeat exactly.
    let telemetry = match experiments::telemetry_capture(scale)?.to_json_value() {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .into_iter()
                .filter(|(key, _)| key != "spans")
                .collect(),
        ),
        other => other,
    };
    let document = JsonValue::object([
        ("schema_version", JsonValue::Uint(15)),
        (
            "scale",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        (
            "studies",
            JsonValue::Array(
                studies
                    .into_iter()
                    .map(|(name, report)| {
                        JsonValue::object([
                            ("name", JsonValue::Str(name.to_string())),
                            ("report", report),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("telemetry", telemetry),
    ]);
    let rendered = document.render();
    json::validate(&rendered)?;
    std::fs::write(path, rendered)?;
    Ok(())
}

type Rendered = Result<Section, spinamm_core::CoreError>;

fn render_table2() -> Rendered {
    let text = format!(
        "== Table 2: design parameters ==\n{}",
        experiments::table2()
    );
    let json = JsonValue::object([
        (
            "title",
            JsonValue::Str("Table 2: design parameters".to_string()),
        ),
        ("text", JsonValue::Str(experiments::table2())),
    ]);
    Ok(Section { text, json })
}

fn render_fig3a(scale: &Scale) -> Rendered {
    let rows = experiments::fig3a(scale)?;
    let mut t = Table::new(
        "Fig 3a: accuracy vs image down-sizing (5-bit pixels)",
        &["size", "pixels", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{}", r.parameter as usize),
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig3b(scale: &Scale) -> Rendered {
    let rows = experiments::fig3b(scale)?;
    let mut t = Table::new(
        "Fig 3b: accuracy vs WTA resolution (16x8 templates)",
        &["resolution", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig5b() -> Rendered {
    let rows = experiments::fig5b(&[0.5, 0.75, 1.0, 1.5, 2.0])?;
    let mut t = Table::new(
        "Fig 5b: DWM critical current vs device scaling",
        &["scale", "analytic Ic", "simulated Ic"],
    );
    for r in rows {
        t.row(&[
            format!("{:.2}x", r.factor),
            eng(r.analytic, "A"),
            eng(r.simulated, "A"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig5c() -> Rendered {
    let rows = experiments::fig5c(&[1.0, 0.75, 0.5], &[1.5, 2.0, 3.0, 4.0, 6.0, 8.0])?;
    let mut t = Table::new(
        "Fig 5c: switching time vs write current",
        &["scale", "current", "t_switch"],
    );
    for r in rows {
        t.row(&[
            format!("{:.2}x", r.factor),
            eng(r.current, "A"),
            r.time
                .map_or_else(|| "no switch".to_string(), |t| eng(t, "s")),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig7a() -> Rendered {
    let study = experiments::fig7a(61);
    let mut t = Table::new(
        "Fig 7a: DWN transfer characteristic (hysteresis, Eb = 20 kT)",
        &["leg", "current", "output", "P(switch, thermal)"],
    );
    // Print a decimated view: every 6th point of each leg.
    let half = study.hysteresis.len() / 2;
    for (k, p) in study.hysteresis.iter().enumerate().step_by(6) {
        let leg = if k < half { "up" } else { "down" };
        let thermal = study
            .thermal
            .iter()
            .min_by(|a, b| {
                (a.0 - p.current.0.abs())
                    .abs()
                    .total_cmp(&(b.0 - p.current.0.abs()).abs())
            })
            .map_or(0.0, |x| x.1);
        t.row(&[
            leg.to_string(),
            eng(p.current.0, "A"),
            format!("{:+.0}", p.output),
            format!("{thermal:.3}"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig8b() -> Rendered {
    let curves = experiments::fig8b(&[100.0, 10.0, 2.0, 0.5])?;
    let mut t = Table::new(
        "Fig 8b: DTCS-DAC non-linearity vs row load G_TS",
        &[
            "G_TS / G_T(max)",
            "INL (frac of FS)",
            "I(code 8)",
            "I(code 16)",
            "I(code 31)",
        ],
    );
    for c in curves {
        let at = |code: u32| {
            c.transfer
                .iter()
                .find(|(k, _)| *k == code)
                .map_or(0.0, |(_, i)| *i)
        };
        t.row(&[
            format!("{:.1}", c.load_ratio),
            format!("{:.4}", c.inl),
            eng(at(8), "A"),
            eng(at(16), "A"),
            eng(at(31), "A"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig9a(scale: &Scale) -> Rendered {
    let points = experiments::fig9a(scale, &[0.05, 0.2, 1.0, 5.0, 20.0])?;
    let mut t = Table::new(
        "Fig 9a: detection margin vs memristor conductance window",
        &["window scale (xR)", "R range", "margin (LSB)"],
    );
    for p in points {
        t.row(&[
            format!("{:.2}", p.parameter),
            format!(
                "{} - {}",
                eng(1e3 * p.parameter, "Ω"),
                eng(32e3 * p.parameter, "Ω")
            ),
            format!("{:.2}", p.margin),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig9b(scale: &Scale) -> Rendered {
    let points = experiments::fig9b(scale, &[60.0, 30.0, 15.0, 8.0, 4.0])?;
    let mut t = Table::new(
        "Fig 9b: detection margin vs crossbar bias ΔV",
        &["ΔV", "margin (LSB)"],
    );
    for p in points {
        t.row(&[eng(p.parameter, "V"), format!("{:.2}", p.margin)]);
    }
    Ok(Section::table(&t))
}

fn render_fig13a(scale: &Scale) -> Rendered {
    let rows = experiments::fig13a(scale, &[0.25, 0.5, 1.0, 1.5, 2.0])?;
    let mut t = Table::new(
        "Fig 13a: proposed-design power vs DWN threshold",
        &["I_th", "static", "dynamic", "total"],
    );
    for r in rows {
        t.row(&[
            eng(r.threshold, "A"),
            eng(r.static_power, "W"),
            eng(r.dynamic_power, "W"),
            eng(r.total(), "W"),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_fig13b(scale: &Scale) -> Rendered {
    let rows = experiments::fig13b(scale, &[5.0, 10.0, 15.0, 20.0, 25.0])?;
    let mut t = Table::new(
        "Fig 13b: PD-product ratio (MS-CMOS / proposed) vs σVT",
        &["σVT", "ratio [17]", "ratio [18]"],
    );
    for r in rows {
        t.row(&[
            eng(r.sigma_vt, "V"),
            format!("{:.0}", r.ratio_andreou),
            format!("{:.0}", r.ratio_dlugosz),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_table1(scale: &Scale) -> Rendered {
    let rows = experiments::table1(scale, &[5, 4, 3])?;
    let mut t = Table::new(
        "Table 1: power / frequency / energy comparison",
        &[
            "bits",
            "spin-CMOS",
            "[18]",
            "[17]",
            "digital",
            "E ratio [18]",
            "E ratio [17]",
            "E ratio digital",
        ],
    );
    for r in rows {
        t.row(&[
            format!("{}-bit", r.bits),
            eng(r.spin_power, "W"),
            eng(r.dlugosz_power, "W"),
            eng(r.andreou_power, "W"),
            eng(r.digital_power, "W"),
            format!("{:.0}", r.energy_ratios[0]),
            format!("{:.0}", r.energy_ratios[1]),
            format!("{:.0}", r.energy_ratios[2]),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "frequencies: spin-CMOS {} | MS-CMOS {} | digital {}\n",
        eng(experiments::SPIN_FREQUENCY, "Hz"),
        eng(experiments::ANALOG_FREQUENCY, "Hz"),
        eng(experiments::DIGITAL_FREQUENCY, "Hz"),
    ));
    if let JsonValue::Object(pairs) = &mut section.json {
        pairs.push((
            "frequencies_hz".to_string(),
            JsonValue::object([
                ("spin_cmos", JsonValue::Num(experiments::SPIN_FREQUENCY)),
                ("ms_cmos", JsonValue::Num(experiments::ANALOG_FREQUENCY)),
                ("digital", JsonValue::Num(experiments::DIGITAL_FREQUENCY)),
            ]),
        ));
    }
    Ok(section)
}

fn render_ablations(scale: &Scale) -> Rendered {
    let rows = experiments::ablation_study(scale)?;
    let mut t = Table::new(
        "Ablations: G_TS equalization and gain calibration",
        &["variant", "accuracy", "margin (LSB)", "tracker agreement"],
    );
    for r in rows {
        t.row(&[
            r.variant,
            format!("{:.3}", r.accuracy),
            format!("{:.2}", r.margin),
            format!("{:.2}", r.tracker_agreement),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_settling() -> Rendered {
    let rows = experiments::settling_study()?;
    let mut t = Table::new(
        "Crossbar RC settling vs the 10 ns SAR cycle",
        &["analysis", "time", "within cycle"],
    );
    for r in rows {
        t.row(&[
            r.label,
            eng(r.time, "s"),
            if r.within_cycle { "yes" } else { "NO" }.to_string(),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_drift(scale: &Scale) -> Rendered {
    let rows = experiments::drift_study(scale, &[1.0, 1e4, 1e6, 1e8])?;
    let mut t = Table::new(
        "Retention: accuracy vs template age (aggressive Ag-Si corner)",
        &["age", "accuracy", "after refresh"],
    );
    for r in rows {
        t.row(&[
            eng(r.age, "s"),
            format!("{:.3}", r.accuracy),
            format!("{:.3}", r.refreshed_accuracy),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_write_precision(scale: &Scale) -> Rendered {
    let rows = experiments::write_precision_study(scale, &[0.003, 0.01, 0.03, 0.1, 0.3])?;
    let mut t = Table::new(
        "Write-precision trade-off (paper §2: why 3 %)",
        &["tolerance", "accuracy", "mean pulses/cell"],
    );
    for r in rows {
        t.row(&[
            format!("{:.1} %", r.tolerance * 100.0),
            format!("{:.3}", r.accuracy),
            format!("{:.1}", r.mean_pulses),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_noise(scale: &Scale) -> Rendered {
    let rows = experiments::noise_robustness_study(scale, &[1, 4, 8, 12, 16])?;
    let mut t = Table::new(
        "Input-noise robustness (norm-equalized random workload)",
        &["jitter magnitude (levels)", "ideal", "hardware"],
    );
    for r in rows {
        t.row(&[
            format!("±{}", r.magnitude),
            format!("{:.3}", r.ideal),
            format!("{:.3}", r.hardware),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_disturb() -> Rendered {
    let rows = experiments::disturb_study(16, 10)?;
    let mut t = Table::new(
        "Programming disturb under V/2 biasing (16x10 array)",
        &[
            "scheme",
            "half-select pulses/cell",
            "max error",
            "corrupted cells",
        ],
    );
    for r in rows {
        t.row(&[
            r.label,
            format!("{:.0}", r.exposure),
            format!("{:.4}", r.max_error),
            format!("{}", r.corrupted_cells),
        ]);
    }
    Ok(Section::table(&t))
}

fn render_yield(scale: &Scale) -> Rendered {
    let rows = experiments::yield_study(scale)?;
    let mut t = Table::new(
        "Yield: accuracy vs stuck-cell rate (unmitigated vs spares+masking)",
        &[
            "stuck rate",
            "accuracy (raw)",
            "accuracy (mitigated)",
            "margin raw (LSB)",
            "margin mit. (LSB)",
            "remapped",
            "masked",
            "unrecoverable",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{:.0} %", r.fault_rate * 100.0),
            format!("{:.3}", r.unmitigated_accuracy),
            format!("{:.3}", r.mitigated_accuracy),
            format!("{:.2}", r.unmitigated_margin),
            format!("{:.2}", r.mitigated_margin),
            format!("{}", r.remapped),
            format!("{}", r.masked),
            format!("{}", r.unrecoverable),
        ]);
    }
    // The JSON twin keeps numbers numeric so the CI smoke test (and any
    // downstream tooling) can assert on them without parsing table cells.
    let json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "Yield: accuracy vs stuck-cell rate (unmitigated vs spares+masking)".to_string(),
            ),
        ),
        (
            "rows",
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        JsonValue::object([
                            ("fault_rate", JsonValue::Num(r.fault_rate)),
                            (
                                "unmitigated_accuracy",
                                JsonValue::Num(r.unmitigated_accuracy),
                            ),
                            ("mitigated_accuracy", JsonValue::Num(r.mitigated_accuracy)),
                            ("unmitigated_margin", JsonValue::Num(r.unmitigated_margin)),
                            ("mitigated_margin", JsonValue::Num(r.mitigated_margin)),
                            ("spare_columns", JsonValue::Uint(r.spare_columns as u64)),
                            ("remapped", JsonValue::Uint(r.remapped)),
                            ("masked", JsonValue::Uint(r.masked)),
                            ("unrecoverable", JsonValue::Uint(r.unrecoverable)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Section {
        text: t.render(),
        json,
    })
}

/// Directory fresh divergence repros are persisted to (uploaded by CI as
/// a failure artifact).
const FRESH_REPRO_DIR: &str = "conformance-repros";

fn render_conformance(scale: &Scale) -> Rendered {
    let study = experiments::conformance_study(scale)?;

    // Persist any fresh shrunk repros so a failing CI run leaves behind
    // committable, replayable evidence.
    if !study.fresh_repros.is_empty() {
        if std::fs::create_dir_all(FRESH_REPRO_DIR).is_ok() {
            for (k, (check, json_text)) in study.fresh_repros.iter().enumerate() {
                let _ = std::fs::write(format!("{FRESH_REPRO_DIR}/{k:02}-{check}.json"), json_text);
            }
        }
        eprintln!(
            "conformance: {} fresh divergence repro(s) written to {FRESH_REPRO_DIR}/",
            study.fresh_repros.len()
        );
    }

    let mut t = Table::new(
        "E15: cross-fidelity conformance (differential oracle + corpus replay)",
        &["metric", "value"],
    );
    t.row(&["fresh cases".to_string(), format!("{}", study.cases)]);
    t.row(&["ledger checks".to_string(), format!("{}", study.checks)]);
    t.row(&[
        "unwaived divergences".to_string(),
        format!("{}", study.unwaived_divergences),
    ]);
    t.row(&[
        "injected divergence caught".to_string(),
        if study.injected_caught { "yes" } else { "NO" }.to_string(),
    ]);
    t.row(&[
        "corpus repros replayed".to_string(),
        format!("{}", study.corpus_repros_replayed),
    ]);
    t.row(&[
        "observed ideal<->driven |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_ideal_driven_dom_lsb),
    ]);
    t.row(&[
        "observed driven<->parasitic |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_driven_parasitic_dom_lsb),
    ]);
    t.row(&[
        "observed permutation |dDOM| (LSB)".to_string(),
        format!("{}", study.observed_permutation_dom_lsb),
    ]);
    t.row(&[
        "flat<->partitioned agreement".to_string(),
        format!("{:.3}", study.flat_partitioned_agreement),
    ]);
    t.row(&[
        "flat<->hierarchical agreement".to_string(),
        format!("{:.3}", study.flat_hierarchical_agreement),
    ]);
    t.row(&[
        "flat<->tiled agreement".to_string(),
        format!("{:.3}", study.flat_tiled_agreement),
    ]);
    let mut section = Section::table(&t);
    // The JSON twin is a flat numeric object (no `rows`): the CI gate
    // asserts on these fields directly, and the agreement rates stay out
    // of the accuracy-cell comparison by construction.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str(
                "E15: cross-fidelity conformance (differential oracle + corpus replay)".to_string(),
            ),
        ),
        ("cases", JsonValue::Uint(study.cases)),
        ("checks", JsonValue::Uint(study.checks)),
        (
            "unwaived_divergences",
            JsonValue::Uint(study.unwaived_divergences),
        ),
        ("injected_caught", JsonValue::Bool(study.injected_caught)),
        (
            "corpus_repros_replayed",
            JsonValue::Uint(study.corpus_repros_replayed),
        ),
        (
            "observed_ideal_driven_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_ideal_driven_dom_lsb)),
        ),
        (
            "observed_driven_parasitic_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_driven_parasitic_dom_lsb)),
        ),
        (
            "observed_permutation_dom_lsb",
            JsonValue::Uint(u64::from(study.observed_permutation_dom_lsb)),
        ),
        (
            "flat_partitioned_agreement",
            JsonValue::Num(study.flat_partitioned_agreement),
        ),
        (
            "flat_hierarchical_agreement",
            JsonValue::Num(study.flat_hierarchical_agreement),
        ),
        (
            "flat_tiled_agreement",
            JsonValue::Num(study.flat_tiled_agreement),
        ),
    ]);
    Ok(section)
}

fn render_capacity(scale: &Scale) -> Rendered {
    let study = experiments::capacity_study(scale)?;
    let mut t = Table::new(
        "E18: tiled capacity (templates x k, top-k ranked recall)",
        &[
            "templates",
            "k",
            "tiles",
            "compiled",
            "queries",
            "energy/query",
            "topk==oracle",
            "top1==wta",
            "engine",
        ],
    );
    for r in &study.rows {
        t.row(&[
            format!("{}", r.templates),
            format!("{}", r.k),
            format!("{}", r.tiles),
            format!("{}", r.compiled_tiles),
            format!("{}", r.queries),
            eng(r.energy_per_query_j, "J"),
            if r.topk_matches_oracle { "yes" } else { "NO" }.to_string(),
            if r.top1_matches_wta { "yes" } else { "NO" }.to_string(),
            if r.engine_identical {
                "identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }
    let mut section = Section::table(&t);
    section
        .text
        .push_str(&format!("tile capacity: {}\n", study.tile_capacity));
    // The JSON twin keeps numbers numeric so check_capacity can assert the
    // oracle/WTA/engine verdicts without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str("E18: tiled capacity (templates x k, top-k ranked recall)".to_string()),
        ),
        ("tile_capacity", JsonValue::Uint(study.tile_capacity as u64)),
        (
            "rows",
            JsonValue::Array(
                study
                    .rows
                    .iter()
                    .map(|r| {
                        JsonValue::object([
                            ("templates", JsonValue::Uint(r.templates as u64)),
                            ("k", JsonValue::Uint(r.k as u64)),
                            ("tiles", JsonValue::Uint(r.tiles as u64)),
                            ("compiled_tiles", JsonValue::Uint(r.compiled_tiles as u64)),
                            ("queries", JsonValue::Uint(r.queries as u64)),
                            ("energy_per_query_j", JsonValue::Num(r.energy_per_query_j)),
                            (
                                "topk_matches_oracle",
                                JsonValue::Bool(r.topk_matches_oracle),
                            ),
                            ("top1_matches_wta", JsonValue::Bool(r.top1_matches_wta)),
                            ("engine_identical", JsonValue::Bool(r.engine_identical)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_lifetime(scale: &Scale) -> Rendered {
    let study = experiments::lifetime_study(scale)?;
    let mut t = Table::new(
        "E20: lifetime maintenance (virtual-time traffic horizon)",
        &[
            "corner",
            "maintained",
            "fresh",
            "final",
            "refreshes",
            "migrations",
            "pulses",
            "refresh energy",
            "overhead",
        ],
    );
    for a in &study.arms {
        let last = a.points.last().expect("non-empty");
        t.row(&[
            a.corner.clone(),
            if a.maintained { "yes" } else { "no" }.to_string(),
            format!("{:.3}", a.fresh_accuracy),
            format!("{:.3}", a.final_accuracy),
            format!("{}", a.refreshes),
            format!("{}", a.migrations),
            format!("{}", last.refresh_pulses),
            eng(last.refresh_energy_j, "J"),
            format!("{:.1} %", a.refresh_overhead * 100.0),
        ]);
    }
    let mut section = Section::table(&t);
    section.text.push_str(&format!(
        "horizon: {} queries at {} per query | dom threshold: {} | stuck rate: {:.0} %\n",
        eng(study.horizon_queries, "").trim(),
        eng(study.query_period_s, "s"),
        study.dom_threshold,
        study.fault_rate * 100.0
    ));
    // Numeric JSON twin so check_lifetime can gate on the accuracy-hold /
    // degradation / overhead invariants without parsing table cells.
    section.json = JsonValue::object([
        (
            "title",
            JsonValue::Str("E20: lifetime maintenance (virtual-time traffic horizon)".to_string()),
        ),
        ("query_period_s", JsonValue::Num(study.query_period_s)),
        ("horizon_queries", JsonValue::Num(study.horizon_queries)),
        (
            "dom_threshold",
            JsonValue::Uint(u64::from(study.dom_threshold)),
        ),
        ("fault_rate", JsonValue::Num(study.fault_rate)),
        (
            "arms",
            JsonValue::Array(
                study
                    .arms
                    .iter()
                    .map(|a| {
                        JsonValue::object([
                            ("corner", JsonValue::Str(a.corner.clone())),
                            ("maintained", JsonValue::Bool(a.maintained)),
                            ("fresh_accuracy", JsonValue::Num(a.fresh_accuracy)),
                            ("final_accuracy", JsonValue::Num(a.final_accuracy)),
                            (
                                "recall_energy_per_query_j",
                                JsonValue::Num(a.recall_energy_per_query_j),
                            ),
                            ("refresh_overhead", JsonValue::Num(a.refresh_overhead)),
                            ("checks", JsonValue::Uint(a.checks)),
                            ("refreshes", JsonValue::Uint(a.refreshes)),
                            ("migrations", JsonValue::Uint(a.migrations)),
                            (
                                "points",
                                JsonValue::Array(
                                    a.points
                                        .iter()
                                        .map(|p| {
                                            JsonValue::object([
                                                ("queries", JsonValue::Num(p.queries)),
                                                (
                                                    "virtual_seconds",
                                                    JsonValue::Num(p.virtual_seconds),
                                                ),
                                                ("accuracy", JsonValue::Num(p.accuracy)),
                                                ("refreshes", JsonValue::Uint(p.refreshes)),
                                                (
                                                    "refresh_pulses",
                                                    JsonValue::Uint(p.refresh_pulses),
                                                ),
                                                (
                                                    "refresh_energy_j",
                                                    JsonValue::Num(p.refresh_energy_j),
                                                ),
                                                ("worn_cells", JsonValue::Uint(p.worn_cells)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(section)
}

fn render_hierarchy(scale: &Scale) -> Rendered {
    let rows = experiments::hierarchy_study(scale, &[1, 2, 4, 8])?;
    let mut t = Table::new(
        "Extension (paper §5): hierarchical / clustered AMM",
        &["clusters", "energy per recognition", "accuracy"],
    );
    for r in rows {
        t.row(&[
            format!("{}", r.clusters),
            eng(r.energy, "J"),
            format!("{:.3}", r.accuracy),
        ]);
    }
    Ok(Section::table(&t))
}
