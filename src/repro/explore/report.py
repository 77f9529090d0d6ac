"""Markdown and JSON reports over design-space sweep results.

The JSON report is the canonical, machine-readable artefact (stable key
order, fixed float repr): running the same sweep twice — the second time
entirely from the cache — produces byte-identical output.  The markdown
report renders the same data as a Pareto-ranked table for humans.
:func:`render_report_from_json` (the CLI's ``report`` subcommand)
regenerates either format from a saved sweep, scenario or robustness JSON
report without re-running anything.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.core.spec import canonical_json
from repro.explore.pareto import DEFAULT_OBJECTIVES, Objective
from repro.explore.runner import SweepResult
from repro.explore.sweep import SWEEP_AXES

#: Schema version of the JSON report payload.
REPORT_SCHEMA_VERSION = 1

def _report_payload(result: SweepResult,
                    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> dict:
    """The JSON-serializable report payload (deterministic content only)."""
    ranks = result.pareto_ranks(objectives)
    points = []
    for res, rank in zip(result.points, ranks):
        row = res.metrics_row()
        row["pareto_rank"] = rank
        points.append(row)
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "flow_settings": result.flow_settings,
        "num_points": len(result.points),
        "axes": result.metadata.get("axes", {}),
        "objectives": [{"name": o.name, "maximize": o.maximize}
                       for o in objectives],
        "points": points,
    }


def sweep_report_json(result: SweepResult,
                      objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> str:
    """Canonical JSON report of a sweep (byte-identical across cached re-runs)."""
    return canonical_json(_report_payload(result, objectives))


def sweep_report_markdown(result: SweepResult,
                          objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> str:
    """Full markdown report: grid summary, objectives and the ranked table."""
    return _markdown_from_payload(_report_payload(result, objectives))


def render_report_from_json(text: str, fmt: str = "markdown") -> str:
    """Re-render a saved run report without re-running.

    The report kind is read from the payload: a ``schema`` 1 payload with
    exactly one of the top-level lists ``points`` (``sweep --json``),
    ``scenarios`` (``scenario run --json``) or ``runs`` (``robustness run
    --json``) renders through that kind's markdown renderer.

    Parameters
    ----------
    text:
        The saved JSON report text.
    fmt:
        ``"markdown"`` for the human-readable report, ``"json"`` to
        re-canonicalize the payload.  Both formats render the markdown, so
        they accept exactly the same inputs.

    Raises :class:`ValueError` for any other payload or format; a payload
    whose fields are missing or of the wrong type raises the renderer's
    :class:`KeyError`, :class:`TypeError` or :class:`AttributeError`.
    """
    from repro.robustness.report import (
        _markdown_from_payload as robustness_markdown)
    from repro.scenarios.report import (
        _markdown_from_payload as scenario_markdown)

    if fmt not in ("markdown", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    payload = json.loads(text)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {schema!r} "
                         f"(expected {REPORT_SCHEMA_VERSION})")
    renderers = {"points": _markdown_from_payload,
                 "scenarios": scenario_markdown,
                 "runs": robustness_markdown}
    kinds = [kind for kind in renderers if isinstance(payload.get(kind), list)]
    if len(kinds) != 1:
        raise ValueError("not a run report: expected exactly one of the "
                         "top-level lists 'points', 'scenarios' or 'runs'")
    markdown = renderers[kinds[0]](payload)
    return markdown if fmt == "markdown" else canonical_json(payload)


def _markdown_from_payload(payload: dict) -> str:
    lines: List[str] = []
    lines.append("# Design-space sweep report")
    lines.append("")
    lines.append(f"- Points: {payload['num_points']}")
    axes = payload.get("axes") or {}
    # Fixed axis order, so markdown re-rendered from the (key-sorted) JSON
    # report matches the directly-rendered markdown byte for byte.
    axis_order = sorted(axes, key=lambda n: (
        SWEEP_AXES.index(n) if n in SWEEP_AXES else len(SWEEP_AXES), n))
    for name in axis_order:
        lines.append(f"- Axis `{name}`: {_format_axis_values(axes[name])}")
    objectives = ", ".join(
        f"{o['name']} ({'max' if o['maximize'] else 'min'})"
        for o in payload["objectives"])
    lines.append(f"- Objectives: {objectives}")
    flow = payload.get("flow_settings") or {}
    if flow:
        snr_mode = ("simulated" if flow.get("include_snr")
                    else "predicted (linear model)")
        lines.append(f"- SNR column: {snr_mode}; library: {flow.get('library')}")
    lines.append("")
    lines.append("## Pareto-ranked designs")
    lines.append("")
    lines.append(_table_from_rows(payload["points"]))
    front = [row["label"] for row in _ranked_rows(payload["points"])
             if row["pareto_rank"] == 1]
    lines.append("")
    lines.append(f"Pareto front ({len(front)} designs): " + ", ".join(front))
    return "\n".join(lines)


def _ranked_rows(rows: Sequence[Dict]) -> List[Dict]:
    return sorted(rows, key=lambda r: (r["pareto_rank"], r["power_mw"], r["label"]))


def _table_from_rows(rows: Sequence[Dict]) -> str:
    lines = ["| Rank | Design | SNR (dB) | Power (mW) | Area (mm2) | Gates | Meets spec |",
             "|---|---|---|---|---|---|---|"]
    for row in _ranked_rows(rows):
        lines.append(
            f"| {row['pareto_rank']} | {row['label']} "
            f"| {row['snr_db']:.2f} | {row['power_mw']:.4f} "
            f"| {row['area_mm2']:.6f} | {row['gate_count']} "
            f"| {'yes' if row['meets_spec'] else 'no'} |")
    return "\n".join(lines)


def _format_axis_values(values: Sequence) -> str:
    parts = []
    for value in values:
        if isinstance(value, list):
            parts.append("-".join(str(v) for v in value))
        else:
            parts.append(f"{value:g}" if isinstance(value, float) else str(value))
    return ", ".join(parts)
