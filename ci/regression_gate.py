#!/usr/bin/env python3
"""Regression gate: diff a fresh quick-scale experiment report against the
committed baseline (BENCH_baseline.json).

Checks, per study matched by name:

* every accuracy-like number (table columns whose header mentions
  "accuracy", "ideal" or "hardware", plus the yield study's numeric
  ``*_accuracy`` fields) stays within +/-0.02 absolute of the baseline;
* total wall clock stays within 3x of the baseline total (machines differ;
  a 3x blowup means an algorithmic regression, not noise);
* no study present in the baseline disappears;
* the engine-scale study (E14) stays bit-identical to sequential recall in
  every sweep cell, with positive throughput. Its timing columns depend on
  the measuring host's core count and are never compared against the
  baseline;
* the conformance study (E15) reports zero unwaived tolerance-ledger
  violations and still catches the committed intentionally-perturbed
  repro (``injected_caught``);
* the profile study (E16) stays bit-identical with every request sampled,
  keeps its latency percentiles monotone, keeps p99 latency within
  ``P99_FACTOR`` x the baseline row at the same worker count (with an
  absolute floor -- hosts differ), and keeps the disabled-tracer overhead
  ratio at or under ``NOOP_OVERHEAD_LIMIT`` (with a noise escape against
  the baseline's own measured ratio);
* the plan study (E17) keeps module recall through the compiled kernel
  bit-identical to the interpreted oracle in every fidelity row, and
  keeps the driven-fidelity kernel-over-oracle speedup at or above
  ``PLAN_MIN_SPEEDUP`` (an interleaved min-of-N ratio on the same host,
  so it is host-independent enough to gate);
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

The baseline-independent invariant checks (engine-scale, conformance,
profile percentile sanity, plan, capacity, serve) are also importable via
``invariant_failures(fresh_doc)`` so the nightly full-scale workflow can
gate without a full-scale baseline.

Failures print as a table of study / field / baseline / fresh / delta and
exit non-zero.

Usage: regression_gate.py BASELINE FRESH
"""

import json
import sys

ACCURACY_TOLERANCE = 0.02
WALL_CLOCK_FACTOR = 3.0
ACCURACY_HEADERS = ("accuracy", "ideal", "hardware")

# E16 tracing gates. The disabled tracer is the production default and must
# be free: <= 2 % on an interleaved min-of-N comparison. Sub-microsecond
# jitter can still trip a ratio on a noisy shared runner, so a fresh ratio
# also passes when it is within NOOP_NOISE_ESCAPE of what the committed
# baseline itself measured. p99 latency is host-dependent: gate at a loose
# multiple of the baseline with an absolute floor.
NOOP_OVERHEAD_LIMIT = 1.02
NOOP_NOISE_ESCAPE = 0.05
P99_FACTOR = 5.0
P99_FLOOR_US = 1000.0

# E17 compiled-kernel gate. The speedup is the interpreted oracle over
# module recall, a ratio of two interleaved min-of-N passes on the same
# host, so it cancels machine speed; the driven (analytic) fidelity is the
# gated row because there the flat kernel is the entire query. The parasitic row is informational -- both
# sides share the cached nodal solve, which dominates that fidelity.
PLAN_MIN_SPEEDUP = 5.0

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


ENGINE_STUDY = "engine-scale"


def check_engine_scale(fresh_by_name, failures):
    """The engine study's gated invariant is bit-identity, not speed: a
    False cell means concurrent recall diverged from the sequential RNG
    order, which is a correctness bug regardless of the host."""
    study = fresh_by_name.get(ENGINE_STUDY)
    if study is None:
        return
    rows = study["report"].get("rows", [])
    if not rows:
        failures.append((ENGINE_STUDY, "rows", ">= 1", "0", ""))
    for k, row in enumerate(rows):
        if row.get("bit_identical") is not True:
            failures.append(
                (
                    ENGINE_STUDY,
                    f"row {k} [bit_identical]",
                    "true",
                    str(row.get("bit_identical")),
                    "",
                )
            )
        throughput = row.get("throughput_qps", 0)
        if not throughput > 0:
            failures.append(
                (ENGINE_STUDY, f"row {k} [throughput_qps]", "> 0", str(throughput), "")
            )


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


PROFILE_STUDY = "profile"


def check_profile(baseline_by_name, fresh_by_name, failures):
    """The profile study (E16) gates on three things: tracing never
    perturbs results (bit-identity at sample rate 1.0), the latency
    histogram is sane (monotone percentiles), and observability stays
    cheap (p99 within a loose multiple of the baseline, disabled-tracer
    overhead at or under NOOP_OVERHEAD_LIMIT)."""
    study = fresh_by_name.get(PROFILE_STUDY)
    if study is None:
        return
    report = study["report"]
    base_study = baseline_by_name.get(PROFILE_STUDY)
    base_report = base_study["report"] if base_study else {}
    base_p99 = {
        row.get("workers"): row.get("p99_us", 0.0)
        for row in base_report.get("rows", [])
    }

    rows = report.get("rows", [])
    if not rows:
        failures.append((PROFILE_STUDY, "rows", ">= 1", "0", ""))
    for k, row in enumerate(rows):
        if row.get("bit_identical") is not True:
            failures.append(
                (
                    PROFILE_STUDY,
                    f"row {k} [bit_identical]",
                    "true",
                    str(row.get("bit_identical")),
                    "",
                )
            )
        if row.get("sampled") != row.get("queries"):
            failures.append(
                (
                    PROFILE_STUDY,
                    f"row {k} [sampled]",
                    str(row.get("queries")),
                    str(row.get("sampled")),
                    "",
                )
            )
        quantiles = [row.get(f, 0.0) for f in ("p50_us", "p90_us", "p99_us", "p999_us")]
        if not all(a <= b for a, b in zip(quantiles, quantiles[1:])):
            failures.append(
                (
                    PROFILE_STUDY,
                    f"row {k} [percentiles]",
                    "monotone",
                    str(quantiles),
                    "",
                )
            )
        base = base_p99.get(row.get("workers"))
        if base:
            limit = max(P99_FACTOR * base, P99_FLOOR_US)
            p99 = row.get("p99_us", 0.0)
            if p99 > limit:
                failures.append(
                    (
                        PROFILE_STUDY,
                        f"row {k} [p99_us]",
                        f"<= {limit:.0f}",
                        f"{p99:.0f}",
                        f"x{p99 / base:.2f}",
                    )
                )

    noop = report.get("noop_overhead_ratio")
    if noop is None:
        failures.append((PROFILE_STUDY, "noop_overhead_ratio", "present", "MISSING", ""))
    else:
        base_noop = base_report.get("noop_overhead_ratio", 1.0)
        limit = max(NOOP_OVERHEAD_LIMIT, base_noop + NOOP_NOISE_ESCAPE)
        if noop > limit:
            failures.append(
                (
                    PROFILE_STUDY,
                    "noop_overhead_ratio",
                    f"<= {limit:.3f}",
                    f"{noop:.3f}",
                    f"{noop - 1.0:+.3f}",
                )
            )


PLAN_STUDY = "plan"


def check_plan(fresh_by_name, failures):
    """The plan study (E17) gates on the compiled-kernel contract: module
    recall is bit-identical to the interpreted oracle (a False cell is a
    correctness bug, not noise), and the driven-fidelity kernel keeps its
    headline speedup over the oracle."""
    study = fresh_by_name.get(PLAN_STUDY)
    if study is None:
        return
    report = study["report"]
    rows = report.get("rows", [])
    if not rows:
        failures.append((PLAN_STUDY, "rows", ">= 1", "0", ""))
    driven_speedup = None
    for row in rows:
        fidelity = row.get("fidelity", "?")
        if row.get("bit_identical") is not True:
            failures.append(
                (
                    PLAN_STUDY,
                    f"{fidelity} [bit_identical]",
                    "true",
                    str(row.get("bit_identical")),
                    "",
                )
            )
        if fidelity == "driven":
            driven_speedup = row.get("speedup", 0.0)
    if driven_speedup is None:
        failures.append((PLAN_STUDY, "driven row", "present", "MISSING", ""))
    elif driven_speedup < PLAN_MIN_SPEEDUP:
        failures.append(
            (
                PLAN_STUDY,
                "driven [speedup]",
                f">= {PLAN_MIN_SPEEDUP:.1f}",
                f"{driven_speedup:.2f}",
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
    check_engine_scale(fresh_by_name, failures)
    check_conformance(fresh_by_name, failures)
    check_plan(fresh_by_name, failures)
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

    baseline_by_name = {s["name"]: s for s in baseline["studies"]}
    failures.extend(invariant_failures(fresh))
    check_profile(baseline_by_name, fresh_by_name, failures)

    base_wall = baseline["total_wall_clock_seconds"]
    fresh_wall = fresh["total_wall_clock_seconds"]
    if fresh_wall > WALL_CLOCK_FACTOR * base_wall:
        failures.append(
            (
                "<total>",
                "wall_clock_seconds",
                f"{base_wall:.2f}",
                f"{fresh_wall:.2f}",
                f"x{fresh_wall / base_wall:.2f}",
            )
        )

    if failures:
        print("regression gate FAILED:")
        print(render_table(failures))
        return 1

    checked = sum(
        len(dict(accuracy_cells(s["report"]))) for s in baseline["studies"]
    )
    print(
        f"regression gate passed: {checked} accuracy cells within "
        f"+/-{ACCURACY_TOLERANCE}, wall clock {fresh_wall:.2f}s vs "
        f"baseline {base_wall:.2f}s (limit x{WALL_CLOCK_FACTOR})"
    )
    return 0


HEADER = ("study", "field", "baseline", "fresh", "delta")

if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
