#!/usr/bin/env python3
"""Regression gate: a fresh experiment report must equal its committed
baseline exactly.

    regression_gate.py BASELINE FRESH

The quick-scale baseline is BENCH_baseline.json (``experiments --quick
--json``); the full-scale one is BENCH_full.json (``experiments --json``).
Both documents are walked together: every key, list length, string, boolean
and number must be equal, ``scale`` included. Only the two paths in
``SKIPPED`` are left out, the E19 ``serve`` study and the telemetry spans,
each for the reason given there. Every differing path is printed with both
values.

The fresh report must also keep four contracts: conformance (E15),
capacity (E18), serve (E19) and lifetime (E20). At full scale they are the
only named shape checks, and they keep a regenerated baseline honest: a
change that moves a number on purpose regenerates the baseline, and these
must still hold.

Nothing here gates on time. The simulator's speed is gated by
``ci/bench_pairs.py``, which runs the repository benchmark (BENCHMARK.json)
for the parent and the change in interleaved pairs.
"""

import json
import sys

# The two paths the exact comparison skips, each because it differs between
# runs of one binary on one host. Everything else, the telemetry counters,
# gauges, histograms and events included, must repeat exactly.
SKIPPED = {
    # E19 sets each quota tenant's rate from its measured saturation, so
    # `served`, `rejected_over_quota` and `mean_energy_j` move between runs
    # along with every latency. check_serve gates its contract instead.
    "studies[serve]",
    # Span series are wall times.
    "telemetry.spans",
}

# E20 contract: maintained arms hold accuracy to within two points of fresh
# at the end of the traffic horizon while spending at most 10 % of the
# horizon's recall energy on refresh writes; the unmaintained aggressive
# control must degrade past the band or the study has lost its contrast.
LIFETIME_ACCURACY_DROP = 0.02
LIFETIME_OVERHEAD_LIMIT = 0.10


def differences(base, fresh, path=""):
    """Yields (path, baseline value, fresh value) for every place the two
    documents differ. A list element that carries a ``name`` is labelled by
    it, so studies read as ``studies[fig3b]``."""
    if path in SKIPPED:
        return
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
        if len(base) != len(fresh):
            yield f"{path} length", len(base), len(fresh)
        for k, (b, f) in enumerate(zip(base, fresh)):
            label = b.get("name") if isinstance(b, dict) else None
            if label is not None and isinstance(f, dict) and f.get("name") != label:
                yield f"{path}[{k}].name", label, f.get("name")
                continue
            yield from differences(b, f, f"{path}[{label if label else k}]")
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
    match reproduces the legacy single-winner WTA rule, and wherever the
    engine comparison ran it is bit-identical to sequential recall."""
    report = studies.get("capacity")
    if report is None:
        return
    rows = report.get("rows", [])
    if len({r.get("templates") for r in rows}) < 2:
        failures.append(("capacity.rows", ">= 2 template counts", len(rows)))
    for row in rows:
        cell = f"capacity[{row.get('templates')}t k={row.get('k')}]"
        for verdict in ("topk_matches_oracle", "top1_matches_wta"):
            if row.get(verdict) is not True:
                failures.append((f"{cell}.{verdict}", "true", row.get(verdict)))
        if row.get("engine_checked") and row.get("engine_identical") is not True:
            failures.append((f"{cell}.engine_identical", "true", row.get("engine_identical")))


def check_serve(studies, failures):
    """E19: every tenant's served responses are bit-identical to direct
    engine submission, admission accounting is exact, percentiles are
    monotone, saturation is positive, and the token-bucket quota rejects
    (quota tenants see 429s, unlimited tenants none). Latency magnitudes
    are host-dependent and never gated."""
    report = studies.get("serve")
    if report is None:
        return
    rows = report.get("rows", [])
    if not rows:
        failures.append(("serve.rows", ">= 1", 0))
    for row in rows:
        tenant = f"serve[{row.get('tenant', '?')}]"
        if row.get("served_identical") is not True:
            failures.append((f"{tenant}.served_identical", "true", row.get("served_identical")))
        accounted = (
            row.get("served", 0)
            + row.get("rejected_over_quota", 0)
            + row.get("rejected_saturated", 0)
        )
        if accounted != row.get("offered", 0):
            failures.append((f"{tenant} served + 429 + 503", row.get("offered"), accounted))
        if not row.get("served", 0) > 0:
            failures.append((f"{tenant}.served", "> 0", row.get("served")))
        quantiles = [row.get(f, 0.0) for f in ("p50_us", "p99_us", "p999_us")]
        if not all(a <= b for a, b in zip(quantiles, quantiles[1:])):
            failures.append((f"{tenant} p50 <= p99 <= p999", "monotone", quantiles))
        if not row.get("saturation_qps", 0) > 0:
            failures.append((f"{tenant}.saturation_qps", "> 0", row.get("saturation_qps")))
        over_quota = row.get("rejected_over_quota", 0)
        if row.get("quota_qps", 0) > 0:
            if not over_quota > 0:
                failures.append((f"{tenant}.rejected_over_quota", "> 0 (quota tenant)", over_quota))
        elif over_quota != 0:
            failures.append((f"{tenant}.rejected_over_quota", "0 (unlimited tenant)", over_quota))


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
            if final_acc < floor:
                failures.append((f"{label}.final_accuracy", f">= {floor:.3f}", final_acc))
            overhead = arm.get("refresh_overhead", 0.0)
            if overhead > LIFETIME_OVERHEAD_LIMIT:
                failures.append(
                    (f"{label}.refresh_overhead", f"<= {LIFETIME_OVERHEAD_LIMIT}", overhead)
                )
            if corner == "aggressive" and not arm.get("refreshes", 0) > 0:
                failures.append((f"{label}.refreshes", "> 0", arm.get("refreshes")))
        elif corner == "aggressive" and final_acc >= floor:
            failures.append(
                (f"{label}.final_accuracy", f"< {floor:.3f} (control must degrade)", final_acc)
            )


def main(baseline_path, fresh_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    diffs = list(differences(baseline, fresh))
    failures = []
    studies = {s["name"]: s["report"] for s in fresh.get("studies", [])}
    for check in (check_conformance, check_capacity, check_serve, check_lifetime):
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
    print(
        f"regression gate passed: {fresh_path} equals {baseline_path} "
        f"outside {', '.join(sorted(SKIPPED))}"
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
