#!/usr/bin/env python3
"""Planted-case tests of ci/regression_gate.py.

    python3 ci/test_regression_gate.py

Each committed baseline must pass against itself. A planted copy that
changes one value in its last digit or drops one study must fail the exact
comparison and name the path. A planted copy that breaks one contract or
one of the paper's shapes must fail that check by name even when it is
compared with itself, so the check, not the comparison, catches it.
"""

import contextlib
import copy
import io
import json
import tempfile
import unittest
from pathlib import Path

import regression_gate

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ("BENCH_baseline.json", "BENCH_full.json")


def report(doc, name):
    return next(s["report"] for s in doc["studies"] if s["name"] == name)


def set_cell(doc, study, first, column, text):
    """Sets `column` of the table row whose first cell reads `first`."""
    table = report(doc, study)
    row = next(r for r in table["rows"] if r[0] == first)
    row[table["columns"].index(column)] = text


def get_cell(doc, study, first, column):
    table = report(doc, study)
    row = next(r for r in table["rows"] if r[0] == first)
    return row[table["columns"].index(column)]


def bump_last_digit(text):
    """`text` with the last digit of its mantissa raised by one (9 wraps)."""
    mantissa, e, exponent = text.partition("e")
    i = max(k for k, c in enumerate(mantissa) if c.isdigit())
    return f"{mantissa[:i]}{(int(mantissa[i]) + 1) % 10}{mantissa[i + 1:]}{e}{exponent}"


def arm(doc, corner, maintained):
    return next(
        a
        for a in report(doc, "lifetime")["arms"]
        if a["corner"] == corner and a["maintained"] == maintained
    )


def fig9b_sag(doc):
    """Every margin from 30 mV down drops to 0.50 LSB: still monotone."""
    for bias in ("30.000 mV", "15.000 mV", "8.000 mV", "4.000 mV"):
        set_cell(doc, "fig9b", bias, "margin (LSB)", "0.50")


# (what the planted copy breaks, how, the path the gate must print). Each is
# compared with itself, so only its check can fail it.
BROKEN_CHECKS = [
    (
        "conformance cases",
        lambda d: report(d, "conformance").update(cases=0),
        "conformance.cases",
    ),
    (
        "conformance divergences",
        lambda d: report(d, "conformance").update(unwaived_divergences=1),
        "conformance.unwaived_divergences",
    ),
    (
        "conformance injected repro",
        lambda d: report(d, "conformance").update(injected_caught=False),
        "conformance.injected_caught",
    ),
    (
        "capacity oracle",
        lambda d: report(d, "capacity")["rows"][0].update(topk_matches_oracle=False),
        "capacity[1000t k=1].topk_matches_oracle",
    ),
    (
        "capacity legacy WTA",
        lambda d: report(d, "capacity")["rows"][0].update(top1_matches_wta=False),
        "capacity[1000t k=1].top1_matches_wta",
    ),
    (
        "capacity engine",
        lambda d: report(d, "capacity")["rows"][0].update(engine_identical=False),
        "capacity[1000t k=1].engine_identical",
    ),
    (
        "capacity sweep",
        lambda d: [r.update(templates=1000) for r in report(d, "capacity")["rows"]],
        "capacity.rows",
    ),
    (
        "lifetime arms",
        lambda d: report(d, "lifetime")["arms"].pop(),
        "lifetime.arms",
    ),
    (
        "lifetime maintained accuracy",
        lambda d: arm(d, "typical", True).update(final_accuracy=0.0),
        "lifetime[typical maintained].final_accuracy",
    ),
    (
        "lifetime refresh overhead",
        lambda d: arm(d, "aggressive", True).update(refresh_overhead=0.5),
        "lifetime[aggressive maintained].refresh_overhead",
    ),
    (
        "lifetime refreshes",
        lambda d: arm(d, "aggressive", True).update(refreshes=0),
        "lifetime[aggressive maintained].refreshes",
    ),
    (
        "lifetime control",
        lambda d: arm(d, "aggressive", False).update(
            final_accuracy=arm(d, "aggressive", False)["fresh_accuracy"]
        ),
        "lifetime[aggressive unmaintained].final_accuracy",
    ),
    (
        "Table 1 spin-CMOS power",
        lambda d: set_cell(
            d, "table1", "5-bit", "[18]", get_cell(d, "table1", "5-bit", "spin-CMOS")
        ),
        "table1[5-bit] spin_lowest_power",
    ),
    (
        "Table 1 digital energy ratio",
        lambda d: set_cell(d, "table1", "5-bit", "E ratio digital", "99"),
        "table1[5-bit] digital_energy_ratio",
    ),
    (
        "Fig 13a power",
        lambda d: set_cell(
            d, "fig13a", "2.000 µA", "total", get_cell(d, "fig13a", "250.000 nA", "total")
        ),
        "fig13a power_rises_with_threshold",
    ),
    (
        "Fig 13b ratios",
        lambda d: set_cell(d, "fig13b", "25.000 mV", "ratio [17]", "1"),
        "fig13b[ratio [17]] ratios_rise_with_variation",
    ),
    (
        "Fig 3a ideal floor",
        lambda d: set_cell(d, "fig3a", "16x8", "ideal", "0.940"),
        "fig3a[16x8] ideal_holds_to_128_pixels",
    ),
    (
        "Fig 3a downsizing",
        lambda d: set_cell(d, "fig3a", "8x4", "ideal", get_cell(d, "fig3a", "16x8", "ideal")),
        "fig3a[8x4] downsizing_costs_accuracy",
    ),
    (
        "Fig 9a optimum (a tie)",
        lambda d: set_cell(
            d, "fig9a", "5.00", "margin (LSB)", get_cell(d, "fig9a", "1.00", "margin (LSB)")
        ),
        "fig9a[1.00x] margin_peaks_at_paper_window",
    ),
    (
        "Fig 9b monotone",
        lambda d: set_cell(d, "fig9b", "4.000 mV", "margin (LSB)", "9.99"),
        "fig9b margin_does_not_rise_as_bias_shrinks",
    ),
    ("Fig 9b 30 mV", fig9b_sag, "fig9b[30 mV] margin_holds_to_30mv"),
]


class RegressionGateTest(unittest.TestCase):
    def setUp(self):
        self.scratch = tempfile.TemporaryDirectory()
        self.addCleanup(self.scratch.cleanup)

    def gate(self, baseline, fresh):
        """Runs the gate on two documents; returns (exit code, output)."""
        paths = []
        for k, doc in enumerate((baseline, fresh)):
            path = Path(self.scratch.name) / f"{k}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = regression_gate.main(*paths)
        return code, out.getvalue()

    def baselines(self):
        for name in BASELINES:
            with self.subTest(baseline=name):
                yield json.loads((ROOT / name).read_text())

    def assert_fails_naming(self, baseline, fresh, *paths):
        code, out = self.gate(baseline, fresh)
        self.assertEqual(code, 1, out)
        for path in paths:
            self.assertIn(path, out)

    def test_each_baseline_passes_against_itself(self):
        for doc in self.baselines():
            code, out = self.gate(doc, doc)
            self.assertEqual(code, 0, out)

    def test_a_table_cell_changed_in_its_last_digit_fails(self):
        for doc in self.baselines():
            fresh = copy.deepcopy(doc)
            rows = report(fresh, "fig3b")["rows"]
            rows[-1][2] = bump_last_digit(rows[-1][2])
            path = f"studies[fig3b].report.rows[{len(rows) - 1}][2]"
            self.assert_fails_naming(doc, fresh, path)

    def test_a_number_changed_in_its_last_digit_fails(self):
        # (the path the gate must print, the object holding the number, its key)
        numbers = (
            ("studies[conformance].report.checks", lambda d: report(d, "conformance"), "checks"),
            (
                "studies[capacity].report.rows[0].energy_per_query_j",
                lambda d: report(d, "capacity")["rows"][0],
                "energy_per_query_j",
            ),
            (
                "telemetry.counters.adc.sar_cycles",
                lambda d: d["telemetry"]["counters"],
                "adc.sar_cycles",
            ),
        )
        for doc in self.baselines():
            for path, holder, key in numbers:
                fresh = copy.deepcopy(doc)
                number = holder(fresh)[key]
                holder(fresh)[key] = json.loads(bump_last_digit(json.dumps(number)))
                self.assertNotEqual(holder(fresh)[key], number)
                self.assert_fails_naming(doc, fresh, path)

    def test_a_removed_study_fails(self):
        for doc in self.baselines():
            fresh = copy.deepcopy(doc)
            fresh["studies"] = [s for s in fresh["studies"] if s["name"] != "fig13a"]
            self.assert_fails_naming(doc, fresh, "studies length", '"fig13a"')

    def test_each_broken_check_fails_by_name(self):
        for doc in self.baselines():
            for what, plant, path in BROKEN_CHECKS:
                with self.subTest(broken=what):
                    planted = copy.deepcopy(doc)
                    plant(planted)
                    self.assert_fails_naming(planted, planted, path, "0 differing paths, 1 broken")


if __name__ == "__main__":
    unittest.main()
