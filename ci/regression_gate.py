#!/usr/bin/env python3
"""Regression gate: a fresh experiment report must equal its committed
baseline exactly.

    regression_gate.py BASELINE FRESH

The quick-scale baseline is BENCH_baseline.json (``experiments --quick
--json``); the full-scale one is BENCH_full.json (``experiments --json``).
Both documents are walked together in full: every key, list element,
string, boolean and number must be equal, ``scale`` included, and list
elements that carry a ``name`` are paired by it. Every differing path is
printed with both values.

The fresh report must also keep three contracts: conformance (E15),
capacity (E18) and lifetime (E20), and the paper's headline shapes
(``check_shapes``: Fig 3a, Fig 9a, Fig 9b, Fig 13a, Fig 13b, Table 1 and
the crossbar's RC settling).
They keep a regenerated baseline honest: a change that moves a number on
purpose regenerates the baseline, and these must still hold.

Nothing here gates on time, and the report holds no wall time. The
simulator's speed is gated by ``ci/bench_pairs.py``, which runs the
repository benchmark (BENCHMARK.json) for the parent and the change in
interleaved pairs. ``ci/test_regression_gate.py`` plants a broken copy of
each baseline for every check here.
"""

import json
import sys

# Engineering-notation prefixes of the report's unit cells ("318.120 µW").
SI_PREFIXES = {
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "µ": 1e-6,
    "m": 1e-3,
    "": 1.0,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
}

# Table 1: the digital design spends at least this many times the
# spin-CMOS energy per recognition at every resolution.
DIGITAL_ENERGY_RATIO_FLOOR = 100

# Fig 3a: ideal accuracy holds at or above this floor down to 128 pixels.
FIG3A_IDEAL_FLOOR = 0.95
FIG3A_PIXELS_FLOOR = 128

# Fig 9a: the paper picks the 1-32 kOhm window, the 1.00x row.
FIG9A_PAPER_WINDOW = "1.00"

# Fig 9b: the margin at 30 mV keeps at least this share of the 60 mV one.
FIG9B_30MV_SHARE = 0.9

# Settling: the paper's 100 MHz operation gives each SAR cycle 10 ns, and
# every crossbar settling row must fit inside one.
SAR_CYCLE_S = 10e-9

# E20 contract: maintained arms hold accuracy to within two points of fresh
# at the end of the traffic horizon while spending at most 10 % of the
# horizon's recall energy on refresh writes; the unmaintained aggressive
# control must degrade past the band or the study has lost its contrast.
LIFETIME_ACCURACY_DROP = 0.02
LIFETIME_OVERHEAD_LIMIT = 0.10


def keyed(items):
    """A list's elements by key. An element that carries a ``name`` is keyed
    by it and by how often the name came before; any other element by its
    index among those."""
    seen, out = {}, {}
    for item in items:
        name = item.get("name") if isinstance(item, dict) else None
        k = seen[name] = seen.get(name, -1) + 1
        out[name, k] = item
    return out


def label(key):
    """``fig3b`` for a named element, ``name#1`` for its first repeat, the
    index for an unnamed one."""
    name, k = key
    return str(k) if name is None else name if k == 0 else f"{name}#{k}"


def differences(base, fresh, path=""):
    """Yields (path, baseline value, fresh value) for every place the two
    documents differ. List elements are paired by ``keyed``, so studies
    read as ``studies[fig3b]``: a missing or an extra element is reported
    once, and so is a change of order."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(base.keys() | fresh.keys()):
            here = f"{path}.{key}" if path else key
            if key not in fresh:
                yield here, base[key], "<missing>"
            elif key not in base:
                yield here, "<missing>", fresh[key]
            else:
                yield from differences(base[key], fresh[key], here)
    elif isinstance(base, list) and isinstance(fresh, list):
        ours, theirs = keyed(base), keyed(fresh)
        for key, b in ours.items():
            here = f"{path}[{label(key)}]"
            if key in theirs:
                yield from differences(b, theirs[key], here)
            else:
                yield here, b, "<missing>"
        for key, f in theirs.items():
            if key not in ours:
                yield f"{path}[{label(key)}]", "<missing>", f
        before = [label(key) for key in ours if key in theirs]
        after = [label(key) for key in theirs if key in ours]
        if before != after:
            yield f"{path} order", before, after
    # bool is an int in Python; a flipped type must not compare equal.
    elif type(base) is not type(fresh) or base != fresh:
        yield path, base, fresh


def check_conformance(studies, failures):
    """E15: zero unwaived ledger violations across the cross-fidelity
    sweep, and the committed intentionally-perturbed repro still caught (a
    clean replay of it means the detector itself regressed)."""
    report = studies.get("conformance")
    if report is None:
        return
    if not report.get("cases", 0) > 0:
        failures.append(("conformance.cases", "> 0", report.get("cases")))
    if report.get("unwaived_divergences") != 0:
        failures.append(
            ("conformance.unwaived_divergences", 0, report.get("unwaived_divergences"))
        )
    if report.get("injected_caught") is not True:
        failures.append(("conformance.injected_caught", "true", report.get("injected_caught")))


def check_capacity(studies, failures):
    """E18: every cell's top-k equals the full argsort oracle, its first
    match reproduces the legacy single-winner WTA rule, and the engine's
    responses are bit-identical to sequential recall."""
    report = studies.get("capacity")
    if report is None:
        return
    rows = report.get("rows", [])
    if len({r.get("templates") for r in rows}) < 2:
        failures.append(("capacity.rows", ">= 2 template counts", len(rows)))
    for row in rows:
        cell = f"capacity[{row.get('templates')}t k={row.get('k')}]"
        for verdict in ("topk_matches_oracle", "top1_matches_wta", "engine_identical"):
            if row.get(verdict) is not True:
                failures.append((f"{cell}.{verdict}", "true", row.get(verdict)))


def check_lifetime(studies, failures):
    """E20: drift-aware refresh holds every maintained arm within
    LIFETIME_ACCURACY_DROP of fresh accuracy over the full traffic horizon,
    at a refresh-energy overhead of at most LIFETIME_OVERHEAD_LIMIT, while
    the unmaintained aggressive control visibly degrades (losing the
    contrast means the corners no longer stress retention)."""
    report = studies.get("lifetime")
    if report is None:
        return
    arms = report.get("arms", [])
    if len(arms) < 4:
        failures.append(("lifetime.arms", ">= 4", len(arms)))
    for arm in arms:
        corner = arm.get("corner", "?")
        maintained = arm.get("maintained")
        label = f"lifetime[{corner} {'maintained' if maintained else 'unmaintained'}]"
        fresh_acc = arm.get("fresh_accuracy", 0.0)
        final_acc = arm.get("final_accuracy", 0.0)
        floor = fresh_acc - LIFETIME_ACCURACY_DROP
        if maintained:
            if not final_acc >= floor:
                failures.append((f"{label}.final_accuracy", f">= {floor:.3f}", final_acc))
            overhead = arm.get("refresh_overhead", 0.0)
            if not overhead <= LIFETIME_OVERHEAD_LIMIT:
                failures.append(
                    (f"{label}.refresh_overhead", f"<= {LIFETIME_OVERHEAD_LIMIT}", overhead)
                )
            if corner == "aggressive" and not arm.get("refreshes", 0) > 0:
                failures.append((f"{label}.refreshes", "> 0", arm.get("refreshes")))
        elif corner == "aggressive" and not final_acc < floor:
            failures.append(
                (f"{label}.final_accuracy", f"< {floor:.3f} (control must degrade)", final_acc)
            )


def value(cell):
    """A report cell as a number in base units: ``"0.975"`` and ``"115"``
    read as written, ``"318.120 µW"`` as 3.1812e-4. Every unit in the
    report is one letter, so what precedes it is the prefix. A non-finite
    number prints as ``"n/a <unit>"`` or ``"NaN"`` and reads as NaN, which
    every check below fails: each compares with the passing side of the
    condition, so a NaN never slips through."""
    number, _, unit = cell.partition(" ")
    if number == "n/a":
        return float("nan")
    return float(number) * SI_PREFIXES[unit[:-1]] if unit else float(number)


def table_rows(report):
    """A table study's rows as dicts keyed by column header."""
    return [dict(zip(report["columns"], row)) for row in report["rows"]]


def rises(rows, x, y):
    """Whether column ``y`` strictly rises with column ``x``, whose values
    are distinct."""
    points = sorted((value(row[x]), value(row[y])) for row in rows)
    return all(a[0] < b[0] and a[1] < b[1] for a, b in zip(points, points[1:]))


def check_shapes(studies, failures):
    """The paper's headline claims (arXiv:1304.2281), as named checks of
    who wins and which way a curve runs on the fresh report. They turn
    EXPERIMENTS.md's "Reproduced" verdicts into gates. Only Fig 9a and
    Fig 9b read parasitic-fidelity cells, and only the settling check reads
    a transient solve.

    - spin_lowest_power (Table 1): spin-CMOS draws the least power at
      every resolution.
    - digital_energy_ratio (Table 1): the digital design spends at least
      DIGITAL_ENERGY_RATIO_FLOOR times spin-CMOS's energy.
    - power_rises_with_threshold (Fig 13a): total power rises with I_th.
    - ratios_rise_with_variation (Fig 13b): both PD-product ratios rise
      with sigma_VT.
    - ideal_holds_to_128_pixels (Fig 3a): ideal accuracy is at least
      FIG3A_IDEAL_FLOOR at every size of FIG3A_PIXELS_FLOOR pixels or more.
    - downsizing_costs_accuracy (Fig 3a): ideal accuracy at 8x4 is lower
      than at 16x8.
    - margin_peaks_at_paper_window (Fig 9a): the margin at
      FIG9A_PAPER_WINDOW is above every other window's.
    - margin_does_not_rise_as_bias_shrinks (Fig 9b): the margin never
      grows as the bias voltage falls.
    - margin_holds_to_30mv (Fig 9b): the 30 mV margin is at least
      FIG9B_30MV_SHARE of the 60 mV one.
    - settles_within_cycle (settling): every row, the transient solve and
      the Elmore bounds, settles in under SAR_CYCLE_S and reads "yes".
    """
    if "table1" in studies:
        for row in table_rows(studies["table1"]):
            label = f"table1[{row['bits']}]"
            spin = value(row["spin-CMOS"])
            others = {c: row[c] for c in ("[18]", "[17]", "digital")}
            if not all(spin < value(other) for other in others.values()):
                wanted = f"all above spin-CMOS's {row['spin-CMOS']}"
                failures.append((f"{label} spin_lowest_power", wanted, others))
            ratio = value(row["E ratio digital"])
            if not ratio >= DIGITAL_ENERGY_RATIO_FLOOR:
                failures.append(
                    (f"{label} digital_energy_ratio", f">= {DIGITAL_ENERGY_RATIO_FLOOR}", ratio)
                )

    if "fig13a" in studies:
        rows = table_rows(studies["fig13a"])
        if not rises(rows, "I_th", "total"):
            curve = [[row["I_th"], row["total"]] for row in rows]
            failures.append(("fig13a power_rises_with_threshold", "rising", curve))

    if "fig13b" in studies:
        rows = table_rows(studies["fig13b"])
        for column in ("ratio [17]", "ratio [18]"):
            if not rises(rows, "σVT", column):
                curve = [[row["σVT"], row[column]] for row in rows]
                failures.append(
                    (f"fig13b[{column}] ratios_rise_with_variation", "rising", curve)
                )

    if "fig3a" in studies:
        rows = {row["size"]: row for row in table_rows(studies["fig3a"])}
        for size, row in rows.items():
            ideal = value(row["ideal"])
            if value(row["pixels"]) >= FIG3A_PIXELS_FLOOR and not ideal >= FIG3A_IDEAL_FLOOR:
                failures.append(
                    (f"fig3a[{size}] ideal_holds_to_128_pixels", f">= {FIG3A_IDEAL_FLOOR}", ideal)
                )
        small, large = value(rows["8x4"]["ideal"]), value(rows["16x8"]["ideal"])
        if not small < large:
            failures.append(("fig3a[8x4] downsizing_costs_accuracy", f"< {large}", small))

    if "fig9a" in studies:
        rows = table_rows(studies["fig9a"])
        margins = {row["window scale (xR)"]: value(row["margin (LSB)"]) for row in rows}
        paper = margins.pop(FIG9A_PAPER_WINDOW)
        if not all(other < paper for other in margins.values()):
            curve = [[row["window scale (xR)"], row["margin (LSB)"]] for row in rows]
            failures.append(
                (f"fig9a[{FIG9A_PAPER_WINDOW}x] margin_peaks_at_paper_window", "the maximum", curve)
            )

    if "fig9b" in studies:
        rows = table_rows(studies["fig9b"])
        points = sorted((value(row["ΔV"]), value(row["margin (LSB)"])) for row in rows)
        if not all(a[1] <= b[1] for a, b in zip(points, points[1:])):
            curve = [[row["ΔV"], row["margin (LSB)"]] for row in rows]
            failures.append(
                ("fig9b margin_does_not_rise_as_bias_shrinks", "non-decreasing in ΔV", curve)
            )
        margins = {row["ΔV"]: value(row["margin (LSB)"]) for row in rows}
        floor = FIG9B_30MV_SHARE * margins["60.000 mV"]
        if not margins["30.000 mV"] >= floor:
            failures.append(
                ("fig9b[30 mV] margin_holds_to_30mv", f">= {floor:.3f}", margins["30.000 mV"])
            )

    if "settling" in studies:
        for row in table_rows(studies["settling"]):
            # A run that never settles prints its time as "n/a s".
            time = row["time"]
            if not (value(time) < SAR_CYCLE_S and row["within cycle"] == "yes"):
                failures.append(
                    (
                        f"settling[{row['analysis']}] settles_within_cycle",
                        f"< {SAR_CYCLE_S:g} s and yes",
                        [time, row["within cycle"]],
                    )
                )


def main(baseline_path, fresh_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    diffs = list(differences(baseline, fresh))
    failures = []
    studies = {s["name"]: s["report"] for s in fresh.get("studies", [])}
    for check in (check_conformance, check_capacity, check_lifetime, check_shapes):
        check(studies, failures)

    for path, base_value, fresh_value in diffs:
        print(f"  {path}: baseline {json.dumps(base_value)} fresh {json.dumps(fresh_value)}")
    for path, wanted, found in failures:
        print(f"  {path}: wanted {wanted}, found {json.dumps(found)}")
    if diffs or failures:
        print(
            f"regression gate FAILED: {len(diffs)} differing paths, "
            f"{len(failures)} broken contracts ({fresh_path} against {baseline_path})"
        )
        return 1
    print(f"regression gate passed: {fresh_path} equals {baseline_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
