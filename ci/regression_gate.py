#!/usr/bin/env python3
"""Regression gate: diff a fresh quick-scale experiment report against the
committed baseline (BENCH_baseline.json).

Checks, per study matched by name:

* every accuracy-like number (table columns whose header mentions
  "accuracy", "ideal" or "hardware", plus the yield study's numeric
  ``*_accuracy`` fields) stays within +/-0.02 absolute of the baseline;
* no study present in the baseline disappears;
* the conformance study (E15) reports zero unwaived tolerance-ledger
  violations and still catches the committed intentionally-perturbed
  repro (``injected_caught``);
* the capacity study (E18) keeps every (templates, k) cell's ranked
  matches equal to the full argsort oracle, keeps the first match equal
  to the legacy single-winner WTA rule, reports positive throughput at
  every template count, and stays engine-bit-identical wherever the
  engine comparison ran;
* the serve study (E19) keeps every served tenant bit-identical to
  direct engine submission (``served_identical``), keeps the admission
  accounting exact (served + 429 + 503 == offered), keeps latency
  percentiles monotone, reports positive saturation throughput for
  every tenant, and keeps quota enforcement live: the quota-limited
  tenant sees over-quota rejections while unlimited tenants see none.
  Latency magnitudes are host-dependent and never gated;
* the lifetime study (E20) keeps maintenance worth running: every
  maintained arm ends within ``LIFETIME_ACCURACY_DROP`` of its fresh
  accuracy at the full traffic horizon, the unmaintained aggressive
  control visibly degrades below that band (otherwise the study proves
  nothing), the aggressive maintained arm actually refreshed, and the
  total refresh write energy stays at or under
  ``LIFETIME_OVERHEAD_LIMIT`` of the recall energy spent over the same
  horizon.

The baseline-independent invariant checks (conformance, capacity, serve,
lifetime) are also importable via ``invariant_failures(fresh_doc)`` so the
nightly full-scale workflow can gate without a full-scale baseline.

Nothing here gates on time. The simulator's speed is gated by
``ci/bench_pairs.py``, which runs the repository benchmark (BENCHMARK.json)
for the parent and the change in interleaved pairs.

Failures print as a table of study / field / baseline / fresh / delta and
exit non-zero.

Usage: regression_gate.py BASELINE FRESH
"""

import json
import sys

ACCURACY_TOLERANCE = 0.02
ACCURACY_HEADERS = ("accuracy", "ideal", "hardware")

# E20 lifetime gates. Maintained arms must hold accuracy to within two
# points of fresh at the end of the traffic horizon while spending at most
# 10 % of the horizon's recall energy on refresh writes; the unmaintained
# aggressive control must degrade past the band or the study has lost its
# contrast and the drift corners need retuning.
LIFETIME_ACCURACY_DROP = 0.02
LIFETIME_OVERHEAD_LIMIT = 0.10


def accuracy_cells(report):
    """Yields (field_label, value) for accuracy-like numbers in a study
    report: rendered-table columns by header, or numeric fields whose name
    ends in _accuracy (the yield study's structured rows)."""
    columns = report.get("columns")
    rows = report.get("rows", [])
    if columns:
        wanted = [
            (k, h)
            for k, h in enumerate(columns)
            if any(n in h.lower() for n in ACCURACY_HEADERS)
        ]
        for r, row in enumerate(rows):
            for k, header in wanted:
                try:
                    yield f"row {r} [{header}]", float(row[k])
                except (ValueError, IndexError):
                    continue
    else:
        for r, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            for key, value in row.items():
                if key.endswith("_accuracy") and isinstance(value, (int, float)):
                    yield f"row {r} [{key}]", float(value)


CONFORMANCE_STUDY = "conformance"


def check_conformance(fresh_by_name, failures):
    """The conformance study (E15) gates on zero unwaived ledger
    violations across the cross-fidelity differential sweep, and on the
    committed intentionally-perturbed repro still being caught: a clean
    replay of that repro means the detector itself regressed."""
    study = fresh_by_name.get(CONFORMANCE_STUDY)
    if study is None:
        return
    report = study["report"]
    if not report.get("cases", 0) > 0:
        failures.append(
            (CONFORMANCE_STUDY, "cases", "> 0", str(report.get("cases")), "")
        )
    unwaived = report.get("unwaived_divergences")
    if unwaived != 0:
        failures.append(
            (CONFORMANCE_STUDY, "unwaived_divergences", "0", str(unwaived), "")
        )
    if report.get("injected_caught") is not True:
        failures.append(
            (
                CONFORMANCE_STUDY,
                "injected_caught",
                "true",
                str(report.get("injected_caught")),
                "",
            )
        )


CAPACITY_STUDY = "capacity"


def check_capacity(fresh_by_name, failures):
    """The capacity study (E18) gates on ranking correctness, not speed:
    every cell's top-k must equal the full argsort oracle, its first match
    must reproduce the legacy single-winner WTA rule, throughput must be
    positive at every template count, and wherever the engine comparison
    ran it must be bit-identical to sequential recall."""
    study = fresh_by_name.get(CAPACITY_STUDY)
    if study is None:
        return
    rows = study["report"].get("rows", [])
    if not rows:
        failures.append((CAPACITY_STUDY, "rows", ">= 1", "0", ""))
    template_counts = sorted({r.get("templates") for r in rows})
    if len(template_counts) < 2:
        failures.append(
            (
                CAPACITY_STUDY,
                "template counts",
                ">= 2 scales",
                str(template_counts),
                "",
            )
        )
    for row in rows:
        cell = f"{row.get('templates')}t k={row.get('k')}"
        for verdict in ("topk_matches_oracle", "top1_matches_wta"):
            if row.get(verdict) is not True:
                failures.append(
                    (CAPACITY_STUDY, f"{cell} [{verdict}]", "true", str(row.get(verdict)), "")
                )
        throughput = row.get("throughput_qps", 0)
        if not throughput > 0:
            failures.append(
                (CAPACITY_STUDY, f"{cell} [throughput_qps]", "> 0", str(throughput), "")
            )
        if row.get("engine_checked") and row.get("engine_identical") is not True:
            failures.append(
                (
                    CAPACITY_STUDY,
                    f"{cell} [engine_identical]",
                    "true",
                    str(row.get("engine_identical")),
                    "",
                )
            )


SERVE_STUDY = "serve"


def check_serve(fresh_by_name, failures):
    """The serve study (E19) gates on the serving contract, not speed:
    every tenant's served responses must be bit-identical to direct
    engine submission, admission accounting must be exact, percentiles
    monotone, saturation positive, and the token-bucket quota must
    actually reject (quota tenants see 429s, unlimited tenants none)."""
    study = fresh_by_name.get(SERVE_STUDY)
    if study is None:
        return
    rows = study["report"].get("rows", [])
    if not rows:
        failures.append((SERVE_STUDY, "rows", ">= 1", "0", ""))
    for row in rows:
        tenant = row.get("tenant", "?")
        if row.get("served_identical") is not True:
            failures.append(
                (
                    SERVE_STUDY,
                    f"{tenant} [served_identical]",
                    "true",
                    str(row.get("served_identical")),
                    "",
                )
            )
        offered = row.get("offered", 0)
        accounted = (
            row.get("served", 0)
            + row.get("rejected_over_quota", 0)
            + row.get("rejected_saturated", 0)
        )
        if accounted != offered:
            failures.append(
                (
                    SERVE_STUDY,
                    f"{tenant} [admission accounting]",
                    str(offered),
                    str(accounted),
                    "",
                )
            )
        if not row.get("served", 0) > 0:
            failures.append(
                (SERVE_STUDY, f"{tenant} [served]", "> 0", str(row.get("served")), "")
            )
        quantiles = [row.get(f, 0.0) for f in ("p50_us", "p99_us", "p999_us")]
        if not all(a <= b for a, b in zip(quantiles, quantiles[1:])):
            failures.append(
                (SERVE_STUDY, f"{tenant} [percentiles]", "monotone", str(quantiles), "")
            )
        saturation = row.get("saturation_qps", 0)
        if not saturation > 0:
            failures.append(
                (
                    SERVE_STUDY,
                    f"{tenant} [saturation_qps]",
                    "> 0",
                    str(saturation),
                    "",
                )
            )
        over_quota = row.get("rejected_over_quota", 0)
        if row.get("quota_qps", 0) > 0:
            if not over_quota > 0:
                failures.append(
                    (
                        SERVE_STUDY,
                        f"{tenant} [rejected_over_quota]",
                        "> 0 (quota tenant)",
                        str(over_quota),
                        "",
                    )
                )
        elif over_quota != 0:
            failures.append(
                (
                    SERVE_STUDY,
                    f"{tenant} [rejected_over_quota]",
                    "0 (unlimited tenant)",
                    str(over_quota),
                    "",
                )
            )


LIFETIME_STUDY = "lifetime"


def check_lifetime(fresh_by_name, failures):
    """The lifetime study (E20) gates on the maintenance contract: drift-
    aware refresh holds every maintained arm within LIFETIME_ACCURACY_DROP
    of fresh accuracy over the full traffic horizon, at a refresh-energy
    overhead of at most LIFETIME_OVERHEAD_LIMIT of the recall energy spent
    over that horizon, while the unmaintained aggressive control visibly
    degrades — losing the contrast means the corners no longer stress
    retention and the study is vacuous."""
    study = fresh_by_name.get(LIFETIME_STUDY)
    if study is None:
        return
    arms = study["report"].get("arms", [])
    if len(arms) < 4:
        failures.append((LIFETIME_STUDY, "arms", ">= 4", str(len(arms)), ""))
    for arm in arms:
        corner = arm.get("corner", "?")
        maintained = arm.get("maintained")
        label = f"{corner} {'maintained' if maintained else 'unmaintained'}"
        fresh_acc = arm.get("fresh_accuracy", 0.0)
        final_acc = arm.get("final_accuracy", 0.0)
        floor = fresh_acc - LIFETIME_ACCURACY_DROP
        if maintained:
            if final_acc < floor:
                failures.append(
                    (
                        LIFETIME_STUDY,
                        f"{label} [final_accuracy]",
                        f">= {floor:.3f}",
                        f"{final_acc:.3f}",
                        f"{final_acc - fresh_acc:+.3f}",
                    )
                )
            overhead = arm.get("refresh_overhead", 0.0)
            if overhead > LIFETIME_OVERHEAD_LIMIT:
                failures.append(
                    (
                        LIFETIME_STUDY,
                        f"{label} [refresh_overhead]",
                        f"<= {LIFETIME_OVERHEAD_LIMIT:.2f}",
                        f"{overhead:.3f}",
                        "",
                    )
                )
            if corner == "aggressive" and not arm.get("refreshes", 0) > 0:
                failures.append(
                    (
                        LIFETIME_STUDY,
                        f"{label} [refreshes]",
                        "> 0",
                        str(arm.get("refreshes")),
                        "",
                    )
                )
        elif corner == "aggressive" and final_acc >= floor:
            failures.append(
                (
                    LIFETIME_STUDY,
                    f"{label} [final_accuracy]",
                    f"< {floor:.3f} (control must degrade)",
                    f"{final_acc:.3f}",
                    f"{final_acc - fresh_acc:+.3f}",
                )
            )


def invariant_failures(fresh):
    """Baseline-independent invariant checks over a fresh report: the
    bit-identity / oracle / ledger gates that hold at any scale on any
    host. Used by main() alongside the baseline diff, and by the nightly
    workflow where no full-scale baseline exists."""
    failures = []
    fresh_by_name = {s["name"]: s for s in fresh["studies"]}
    check_conformance(fresh_by_name, failures)
    check_capacity(fresh_by_name, failures)
    check_serve(fresh_by_name, failures)
    check_lifetime(fresh_by_name, failures)
    return failures


def render_table(failures):
    """Renders failures as the aligned study/field/baseline/fresh/delta
    table main() prints; reused by the nightly job summary."""
    table = [HEADER] + failures
    widths = [max(len(str(row[k])) for row in table) for k in range(5)]
    return "\n".join(
        "  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in table
    )


def main(baseline_path, fresh_path):
    baseline = json.load(open(baseline_path))
    fresh = json.load(open(fresh_path))
    failures = []

    fresh_by_name = {s["name"]: s for s in fresh["studies"]}
    for base_study in baseline["studies"]:
        name = base_study["name"]
        fresh_study = fresh_by_name.get(name)
        if fresh_study is None:
            failures.append((name, "<study>", "present", "MISSING", ""))
            continue
        base_cells = dict(accuracy_cells(base_study["report"]))
        fresh_cells = dict(accuracy_cells(fresh_study["report"]))
        for field, base_value in base_cells.items():
            fresh_value = fresh_cells.get(field)
            if fresh_value is None:
                failures.append((name, field, f"{base_value:.3f}", "MISSING", ""))
                continue
            delta = fresh_value - base_value
            if abs(delta) > ACCURACY_TOLERANCE:
                failures.append(
                    (name, field, f"{base_value:.3f}", f"{fresh_value:.3f}", f"{delta:+.3f}")
                )

    failures.extend(invariant_failures(fresh))

    if failures:
        print("regression gate FAILED:")
        print(render_table(failures))
        return 1

    checked = sum(
        len(dict(accuracy_cells(s["report"]))) for s in baseline["studies"]
    )
    print(
        f"regression gate passed: {checked} accuracy cells within "
        f"+/-{ACCURACY_TOLERANCE}"
    )
    return 0


HEADER = ("study", "field", "baseline", "fresh", "delta")

if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
