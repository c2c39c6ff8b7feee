//! What a run measured, and how it is printed.

use crate::spans::SpanLog;
use crate::stats::{cpu_model, json_num, json_str, nproc, peak_rss_mb, CpuTimes};

/// The end-to-end metrics every workload reports untraced, with units.
/// Each workload maps its own figures onto these names (see README).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_cost_ref", "ref"),
    ("side_cost_ref", "ref"),
    ("sim_accuracy", "share"),
    ("sim_energy_pj", "pJ"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports traced. Layer times that
/// only some workloads load appear here as `ledger.*` shares of the
/// decomposed end-to-end median (zero where the workload bypasses the
/// layer); their absolute µs are printed in the run's detail lines.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("core.build_s", "s"),
    ("core.evaluate_us", "us"),
    ("core.select_us", "us"),
    ("core.sar_convert_us", "us"),
    ("core.wta_select_us", "us"),
    ("ledger.crossbar", "share"),
    ("ledger.core_evaluate", "share"),
    ("ledger.core_select", "share"),
    ("ledger.engine", "share"),
    ("ledger.telemetry", "share"),
    ("ledger.server", "share"),
    ("ledger.net", "share"),
    ("ledger.residual", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("adc.sar_cycles", "count"),
    ("wta.dl_transitions", "count"),
    ("spin.dwn_switch_events", "count"),
    ("circuit.cg_iterations", "count"),
    ("circuit.warm_start_saved", "count"),
    ("circuit.factorization_reuse_share", "share"),
    ("engine.worker_utilization", "share"),
    ("server.rejected", "count"),
];

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Self-test scale: tiny set-ups and a handful of operations.
    pub tiny: bool,
    /// Self-test only: corrupt one response before the oracle sees it.
    pub corrupt: bool,
}

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (recalls, writes, requests, oracle checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or disagreed with the oracle.
    pub failed: u64,
    /// Figures under the `BENCHMARK.json` names ([`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub metrics: Vec<Metric>,
    /// The workload's own figures and ledger rows, printed above the
    /// result line.
    pub detail: Vec<Metric>,
    /// Run context (host, toolchain, seed, generator lag, …).
    pub context: Vec<(String, String)>,
    /// The traced pass's spans.
    pub spans: Option<SpanLog>,
    /// Host CPU accounting when the run started.
    pub steal: CpuTimes,
}

impl Report {
    /// Records a `BENCHMARK.json` metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a workload figure shown in the detail lines.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a context entry.
    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    /// Counts one checked operation, failing it when `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds the figures every workload shares: peak memory, the failed
    /// share and the run context.
    pub fn finish(&mut self, workload: &str, run: &Run) {
        if !run.trace {
            self.metric("peak_rss_mb", peak_rss_mb());
            self.detail("peak_rss_mb", peak_rss_mb(), "MB");
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        self.detail("failed_share", failed_share, "share");
        let mut context = vec![
            ("workload".to_owned(), workload.to_owned()),
            ("seed".to_owned(), run.seed.to_string()),
            ("seconds".to_owned(), run.seconds.to_string()),
            ("trace".to_owned(), u8::from(run.trace).to_string()),
            ("nproc".to_owned(), nproc().to_string()),
            ("cpu_model".to_owned(), cpu_model()),
            ("rustc".to_owned(), env!("PERFBENCH_RUSTC").to_owned()),
            (
                "steal_share".to_owned(),
                format!("{:.4}", self.steal.steal_share()),
            ),
        ];
        context.append(&mut self.context);
        self.context = context;
    }

    /// The final result line.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the context, the detail lines, and the result line last.
    /// Writes the traced pass's spans under `.bench_out/`.
    pub fn print(&self, workload: &str, run: &Run) {
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"context\": {{{}}}}}", context.join(", "));
        for m in &self.detail {
            println!(
                "{workload:>14}  {:<34} {:>16.6} {}",
                m.name, m.value, m.unit
            );
        }
        if let Some(spans) = &self.spans {
            let path = std::path::PathBuf::from(".bench_out")
                .join(format!("{workload}-seed{}.spans.jsonl", run.seed));
            match spans.write_jsonl(&path) {
                Ok(()) => println!(
                    "spans: {} written to {}",
                    spans.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
            }
        }
        println!("{}", self.result_json());
    }
}

/// The ledger: layer rows (µs per operation) that add up, with the
/// residual, to the untraced end-to-end median they decompose.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Adds a layer row.
    pub fn row(&mut self, layer: &'static str, us: f64) {
        self.rows.push((layer, us));
    }

    /// Emits every row as µs detail lines and as `ledger.*` shares of
    /// `end_to_end_us`, with the residual that closes the sum.
    pub fn emit(&self, report: &mut Report, end_to_end_us: f64) {
        let mut covered = 0.0;
        for layer in [
            "crossbar",
            "core_evaluate",
            "core_select",
            "engine",
            "telemetry",
            "server",
            "net",
        ] {
            let us: f64 = self
                .rows
                .iter()
                .filter(|(l, _)| *l == layer)
                .fold(0.0, |sum, (_, v)| sum + v);
            covered += us;
            report.metric(&format!("ledger.{layer}"), us / end_to_end_us);
            report.detail(&format!("ledger.{layer}_us"), us, "us");
        }
        let residual = end_to_end_us - covered;
        report.metric("ledger.residual", residual / end_to_end_us);
        report.detail("ledger.residual_us", residual, "us");
        report.detail("ledger.end_to_end_us", end_to_end_us, "us");
    }
}
