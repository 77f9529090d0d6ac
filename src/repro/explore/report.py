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
from typing import Dict, List, Optional, Sequence

from repro.core.spec import canonical_json
from repro.explore.pareto import DEFAULT_OBJECTIVES, Objective, pareto_rank
from repro.explore.runner import SweepResult
from repro.explore.sweep import SWEEP_AXES

#: Schema version of the JSON report payload.
REPORT_SCHEMA_VERSION = 1

#: Schema tag of a sharded-sweep fragment (``repro sweep --shard i/N``);
#: deliberately not an integer so a fragment fed to the full-report
#: renderer fails loudly instead of rendering a subset as if it were the
#: whole grid.
SHARD_REPORT_SCHEMA = "sweep-shard-v1"


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


def sweep_table_markdown(result: SweepResult,
                         objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> str:
    """Pareto-ranked markdown table of every sweep point."""
    payload = _report_payload(result, objectives)
    return _table_from_rows(payload["points"])


def sweep_report_markdown(result: SweepResult,
                          objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> str:
    """Full markdown report: grid summary, objectives and the ranked table."""
    return _markdown_from_payload(_report_payload(result, objectives))


def sweep_shard_json(result: SweepResult) -> str:
    """Canonical JSON fragment of one sharded sweep (``--shard i/N``).

    The fragment carries everything :func:`merge_shard_reports` needs to
    reassemble the unsharded report byte-identically: the run's flow
    settings and axes, the full grid size, the shard coordinates and this
    shard's metric rows tagged with their expansion indices.  Pareto ranks
    are *not* computed here — ranking is a whole-grid property and happens
    at merge time.
    """
    shard = result.metadata.get("shard")
    if not shard:
        raise ValueError("sweep_shard_json needs a sharded result "
                         "(run_sweep(shard=(i, n)))")
    points = []
    for res in result.points:
        row = res.metrics_row()
        row["index"] = res.point.index
        points.append(row)
    return canonical_json({
        "schema": SHARD_REPORT_SCHEMA,
        "shard": {"index": int(shard["index"]), "count": int(shard["count"])},
        "num_points_total": int(result.metadata["num_points_total"]),
        "flow_settings": result.flow_settings,
        "axes": result.metadata.get("axes", {}),
        "points": points,
    })


def merge_shard_reports(texts: Sequence[str],
                        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
                        ) -> str:
    """Combine shard fragments into the full canonical sweep report.

    Validates that the fragments belong to one run (identical flow
    settings, axes and grid size), that every shard of the declared count
    is present exactly once, and that the point indices are disjoint and
    cover the whole grid — then recomputes the Pareto ranks over the
    reassembled rows and emits the same payload as
    :func:`sweep_report_json`, byte-identical to the unsharded run.
    """
    if not texts:
        raise ValueError("no shard reports to merge")
    fragments = []
    for text in texts:
        payload = json.loads(text)
        if payload.get("schema") != SHARD_REPORT_SCHEMA:
            raise ValueError(
                f"not a sweep shard report (schema "
                f"{payload.get('schema')!r}; expected {SHARD_REPORT_SCHEMA!r})")
        fragments.append(payload)

    first = fragments[0]
    count = int(first["shard"]["count"])
    seen_shards = set()
    rows_by_index: Dict[int, dict] = {}
    for fragment in fragments:
        for field in ("flow_settings", "axes", "num_points_total"):
            if fragment[field] != first[field]:
                raise ValueError(
                    f"shard reports disagree on {field}: they come from "
                    f"different runs and cannot be merged")
        shard = fragment["shard"]
        if int(shard["count"]) != count:
            raise ValueError(f"shard reports disagree on the shard count "
                             f"({shard['count']} vs {count})")
        index = int(shard["index"])
        if index in seen_shards:
            raise ValueError(f"duplicate shard {index}/{count}")
        seen_shards.add(index)
        for row in fragment["points"]:
            point_index = int(row["index"])
            if point_index in rows_by_index:
                raise ValueError(
                    f"point index {point_index} appears in more than one "
                    f"shard report")
            rows_by_index[point_index] = row

    missing_shards = sorted(set(range(1, count + 1)) - seen_shards)
    if missing_shards:
        raise ValueError(
            f"missing shard report(s) "
            f"{', '.join(f'{i}/{count}' for i in missing_shards)}")
    total = int(first["num_points_total"])
    if sorted(rows_by_index) != list(range(total)):
        covered = len(rows_by_index)
        raise ValueError(
            f"shard reports cover {covered} of {total} grid points; "
            f"the union must be exactly the full grid")

    rows = []
    for index in range(total):
        row = dict(rows_by_index[index])
        row.pop("index")
        rows.append(row)
    for row, rank in zip(rows, pareto_rank(rows, objectives)):
        row["pareto_rank"] = rank
    return canonical_json({
        "schema": REPORT_SCHEMA_VERSION,
        "flow_settings": first["flow_settings"],
        "num_points": total,
        "axes": first["axes"],
        "objectives": [{"name": o.name, "maximize": o.maximize}
                       for o in objectives],
        "points": rows,
    })


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
