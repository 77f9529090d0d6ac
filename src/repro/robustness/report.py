"""Yield reports: distributions, robust Pareto ranking and the golden name.

The engine (:mod:`repro.robustness.engine`) produces one JSON-safe *yield
record* per Monte Carlo run; this module wraps records in
:class:`YieldReport` / :class:`RobustnessSuiteResult` result objects and
renders them:

* :func:`robustness_report_json` — canonical JSON (records only, no
  timings), byte-identical at every ``jobs`` value and across warm-cache
  re-runs;
* :func:`robustness_report_markdown` — the human-readable suite table,
  Pareto-ranked by the robustness-aware objectives
  (:data:`repro.explore.pareto.ROBUST_OBJECTIVES`: P99-confidence SNR and
  power instead of nominal values);
* :func:`robustness_golden_name` — the golden-record name under which
  ``python -m repro robustness check`` diffs a fresh pinned run through
  :func:`repro.scenarios.golden.check_record`
  (``src/repro/scenarios/goldens/robustness-<scenario>.json``), with the
  same tolerance policy as the scenario checker.

A saved JSON report re-renders through
:func:`repro.explore.report.render_report_from_json` (the CLI's
``report`` subcommand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.spec import canonical_json
from repro.explore.pareto import ROBUST_OBJECTIVES, pareto_rank

__all__ = [
    "ROBUSTNESS_SCHEMA_VERSION",
    "distribution_stats",
    "YieldReport",
    "RobustnessSuiteResult",
    "robustness_report_json",
    "robustness_report_markdown",
    "robustness_golden_name",
]

#: Schema version of the yield records and the suite JSON report payload.
ROBUSTNESS_SCHEMA_VERSION = 1

#: Percentile keys recorded for every metric distribution.
_PERCENTILES = (1, 5, 50, 95, 99)


def distribution_stats(values) -> dict:
    """Summary statistics of one metric distribution (JSON-safe floats).

    Records mean, standard deviation, extremes and the percentiles
    ``p01/p05/p50/p95/p99`` (NumPy linear interpolation — deterministic for
    equal populations, independent of executor or sharding).
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    stats = {
        "mean": float(np.mean(data)),
        "std": float(np.std(data)),
        "min": float(np.min(data)),
        "max": float(np.max(data)),
    }
    for q in _PERCENTILES:
        stats[f"p{q:02d}"] = float(np.percentile(data, q))
    return stats


@dataclass
class YieldReport:
    """Outcome of one Monte Carlo robustness run: identity and record."""

    #: Scenario name the run perturbed.
    scenario: str
    #: The JSON-safe yield record (see ``docs/ROBUSTNESS.md`` for layout).
    record: dict
    #: Content-hash key of the run in the on-disk result cache.
    cache_key: str = ""
    #: Whether the record came from the on-disk cache (not serialized into
    #: reports, so cached re-runs stay byte-identical).
    from_cache: bool = False

    @property
    def n_samples(self) -> int:
        """Number of Monte Carlo samples in the run."""
        return int(self.record["run"]["n_samples"])

    @property
    def yield_fraction(self) -> float:
        """Fraction of samples passing every mask (stability + frequency
        mask + SNR limit)."""
        return float(self.record["yield"]["pass_rate"])

    @property
    def passed(self) -> bool:
        """Whether the distribution-level verification checks all passed."""
        return bool(self.record["yield"]["passed"])

    @property
    def nominal_snr_db(self) -> float:
        """End-to-end SNR of the unperturbed chain."""
        return float(self.record["nominal"]["snr_db"])

    @property
    def snr_p99_db(self) -> float:
        """SNR exceeded by 99 % of the perturbed samples (the low tail)."""
        return float(self.record["distributions"]["snr_db"]["p01"])

    @property
    def power_p99_mw(self) -> float:
        """Power that 99 % of the corner samples stay below (high tail)."""
        return float(self.record["distributions"]["power_mw"]["p99"])

    @property
    def area_p99_mm2(self) -> float:
        """Area that 99 % of the corner samples stay below (high tail)."""
        return float(self.record["distributions"]["area_mm2"]["p99"])

    @property
    def worst_case_snr_db(self) -> float:
        """SNR of the worst Monte Carlo sample."""
        return float(self.record["worst_case"]["snr_db"])

    def metrics_row(self) -> Dict[str, object]:
        """Flat metrics row consumed by the robust Pareto ranking.

        Carries the :data:`~repro.explore.pareto.ROBUST_OBJECTIVES` keys
        (``snr_p99_db``, ``power_p99_mw``, ``yield_fraction``,
        ``gate_count``) plus the nominal values for side-by-side reports.
        """
        return {
            "name": self.scenario,
            "n_samples": self.n_samples,
            "yield_fraction": self.yield_fraction,
            "snr_db": self.nominal_snr_db,
            "snr_p99_db": self.snr_p99_db,
            "worst_snr_db": self.worst_case_snr_db,
            "power_mw": float(self.record["nominal"]["power_mw"]),
            "power_p99_mw": self.power_p99_mw,
            "area_mm2": float(self.record["nominal"]["area_mm2"]),
            "area_p99_mm2": self.area_p99_mm2,
            "gate_count": int(self.record["nominal"]["gate_count"]),
            "passed": self.passed,
        }


@dataclass
class RobustnessSuiteResult:
    """All yield reports of one robustness run plus run provenance."""

    reports: List[YieldReport]
    elapsed_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def by_name(self) -> Dict[str, YieldReport]:
        """Reports keyed by scenario name."""
        return {r.scenario: r for r in self.reports}

    def metrics_rows(self) -> List[Dict[str, object]]:
        """Per-run metric rows, in run order."""
        return [r.metrics_row() for r in self.reports]

    def robust_ranks(self) -> List[int]:
        """Pareto rank of every run under the robustness-aware objectives
        (1 = on the front), in run order."""
        return pareto_rank(self.metrics_rows(), ROBUST_OBJECTIVES)

    def ranked(self) -> List[YieldReport]:
        """Reports sorted by (robust Pareto rank, P99 power, name)."""
        ranks = self.robust_ranks()
        order = sorted(range(len(self.reports)),
                       key=lambda i: (ranks[i], self.reports[i].power_p99_mw,
                                      self.reports[i].scenario))
        return [self.reports[i] for i in order]


def _suite_payload(suite: RobustnessSuiteResult) -> dict:
    """The JSON-serializable report payload (deterministic content only)."""
    return {
        "schema": ROBUSTNESS_SCHEMA_VERSION,
        "num_runs": len(suite),
        "runs": [{"name": report.scenario, "record": report.record}
                 for report in suite.reports],
    }


def robustness_report_json(suite: RobustnessSuiteResult) -> str:
    """Canonical JSON report of a robustness run (byte-identical at every
    ``jobs`` value and across warm-cache re-runs)."""
    return canonical_json(_suite_payload(suite))


def robustness_report_markdown(suite: RobustnessSuiteResult) -> str:
    """Markdown yield report, Pareto-ranked by the robust objectives."""
    return _markdown_from_payload(_suite_payload(suite))


def _rows_from_payload(payload: dict) -> List[Dict[str, object]]:
    """Rebuild the metric rows (and their ranks) from a report payload."""
    reports = [YieldReport(scenario=entry["name"], record=entry["record"])
               for entry in payload["runs"]]
    rows = [r.metrics_row() for r in reports]
    ranks = pareto_rank(rows, ROBUST_OBJECTIVES) if rows else []
    for row, rank in zip(rows, ranks):
        row["robust_rank"] = rank
    return rows


def _markdown_from_payload(payload: dict) -> str:
    lines: List[str] = []
    lines.append("# Monte Carlo robustness report")
    lines.append("")
    lines.append(f"- Runs: {payload['num_runs']}")
    lines.append("")
    rows = _rows_from_payload(payload)
    lines.append("| Scenario | N | Yield | SNR nom (dB) | SNR P99 (dB) "
                 "| Worst SNR | Power P99 (mW) | Area P99 (mm2) | Rank "
                 "| Verdict |")
    lines.append("|---|---|---|---|---|---|---|---|---|---|")
    for row in sorted(rows, key=lambda r: (r["robust_rank"],
                                           float(r["power_p99_mw"]),
                                           str(r["name"]))):
        lines.append(
            f"| {row['name']} | {row['n_samples']} "
            f"| {100.0 * float(row['yield_fraction']):.1f}% "
            f"| {float(row['snr_db']):.2f} | {float(row['snr_p99_db']):.2f} "
            f"| {float(row['worst_snr_db']):.2f} "
            f"| {float(row['power_p99_mw']):.4f} "
            f"| {float(row['area_p99_mm2']):.6f} | {row['robust_rank']} "
            f"| {'PASS' if row['passed'] else 'FAIL'} |")
    failing = [str(row["name"]) for row in rows if not row["passed"]]
    lines.append("")
    lines.append("All runs meet their yield targets." if not failing else
                 f"Runs failing their yield targets: {', '.join(failing)}")
    return "\n".join(lines)


def robustness_golden_name(scenario: str) -> str:
    """Golden-record name of a scenario's pinned Monte Carlo run."""
    return f"robustness-{scenario}"
