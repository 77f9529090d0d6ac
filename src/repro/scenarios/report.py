"""Reports over scenario suite runs, and the generated scenario catalog.

Mirrors :mod:`repro.explore.report`: the JSON report is the canonical,
machine-readable artefact (stable key order, deterministic content only —
no timings or cache counters), so a warm-cache re-run or a different
``jobs`` value reproduces it byte-identically; the markdown report renders the
same data for humans and can be regenerated from a saved JSON report
without re-running anything.

:func:`scenario_catalog_markdown` renders ``docs/SCENARIOS.md`` from the
registry plus the committed golden records — the catalog is generated, and
``tools/check_scenarios_doc.py`` fails CI when the committed file drifts
from the registry.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.core.spec import canonical_json
from repro.scenarios.golden import load_golden
from repro.scenarios.registry import Scenario, all_scenarios
from repro.scenarios.runner import ScenarioSuiteResult

__all__ = [
    "SCENARIO_REPORT_SCHEMA_VERSION",
    "scenario_report_json",
    "scenario_report_markdown",
    "scenario_table_markdown",
    "render_scenario_report_from_json",
    "scenario_list_markdown",
    "scenario_catalog_markdown",
]

#: Schema version of the scenario suite JSON report payload.
SCENARIO_REPORT_SCHEMA_VERSION = 1


def _suite_payload(suite: ScenarioSuiteResult) -> dict:
    """The JSON-serializable report payload (deterministic content only)."""
    return {
        "schema": SCENARIO_REPORT_SCHEMA_VERSION,
        "num_scenarios": len(suite),
        "scenarios": [
            {"name": result.name, "record": result.record}
            for result in suite.results
        ],
    }


def scenario_report_json(suite: ScenarioSuiteResult) -> str:
    """Canonical JSON report of a suite run (byte-identical across
    cached re-runs and ``jobs`` values)."""
    return canonical_json(_suite_payload(suite))


def scenario_report_markdown(suite: ScenarioSuiteResult) -> str:
    """Full markdown report: the suite table plus per-scenario verdicts."""
    return _markdown_from_payload(_suite_payload(suite))


def scenario_table_markdown(suite: ScenarioSuiteResult) -> str:
    """Markdown comparison table of every scenario in the suite."""
    return _table_from_rows([_payload_row(entry)
                             for entry in _suite_payload(suite)["scenarios"]])


def render_scenario_report_from_json(text: str, fmt: str = "markdown") -> str:
    """Re-render a saved JSON report (``scenario run --json``).

    Parameters
    ----------
    text:
        JSON report text produced by :func:`scenario_report_json`.
    fmt:
        ``"markdown"`` for the human-readable report, ``"json"`` to
        re-canonicalize the payload.
    """
    payload = json.loads(text)
    if payload.get("schema") != SCENARIO_REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported scenario report schema {payload.get('schema')!r} "
            f"(expected {SCENARIO_REPORT_SCHEMA_VERSION})")
    if fmt == "markdown":
        return _markdown_from_payload(payload)
    if fmt == "json":
        return canonical_json(payload)
    raise ValueError(f"unknown report format {fmt!r}")


def _payload_row(entry: dict) -> Dict[str, object]:
    """Flatten one payload scenario entry into a report table row."""
    record = entry["record"]
    spec = record["spec"]
    simulated = record.get("simulated_snr_db")
    return {
        "name": entry["name"],
        "fs_mhz": spec["modulator"]["sample_rate_hz"] / 1e6,
        "decimation": int(round(spec["modulator"]["osr"])),
        "output_bits": spec["decimator"]["output_bits"],
        "snr_db": float(simulated if simulated is not None
                        else record["predicted_snr_db"]),
        "power_mw": float(record["summary"]["total_power_mw"]),
        "area_mm2": float(record["summary"]["total_area_mm2"]),
        "gate_count": int(record["gate_count"]),
        "meets_spec": bool(record["summary"]["meets_spec"]),
    }


def _table_from_rows(rows: Sequence[Dict[str, object]]) -> str:
    lines = ["| Scenario | fs (MHz) | ÷ | Bits | SNR (dB) | Power (mW) "
             "| Area (mm2) | Gates | Meets spec |",
             "|---|---|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append(
            f"| {row['name']} | {row['fs_mhz']:g} | {row['decimation']} "
            f"| {row['output_bits']} | {row['snr_db']:.2f} "
            f"| {row['power_mw']:.4f} | {row['area_mm2']:.6f} "
            f"| {row['gate_count']} "
            f"| {'yes' if row['meets_spec'] else 'no'} |")
    return "\n".join(lines)


def _markdown_from_payload(payload: dict) -> str:
    lines: List[str] = []
    lines.append("# Scenario suite report")
    lines.append("")
    lines.append(f"- Scenarios: {payload['num_scenarios']}")
    lines.append("")
    lines.append(_table_from_rows([_payload_row(entry)
                                   for entry in payload["scenarios"]]))
    failing = [entry["name"] for entry in payload["scenarios"]
               if not entry["record"]["summary"]["meets_spec"]]
    lines.append("")
    lines.append("All scenarios meet their specification masks."
                 if not failing else
                 f"Scenarios failing their mask: {', '.join(failing)}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Registry catalog (docs/SCENARIOS.md and `scenario list`)
# ----------------------------------------------------------------------
def scenario_list_markdown(scenarios: Sequence[Scenario] = ()) -> str:
    """Compact registry table (the ``scenario list`` CLI output)."""
    scenarios = list(scenarios) or all_scenarios()
    lines = ["| Name | Standard | BW | OSR | fs | Output | SNR target "
             "| Rate conv. |",
             "|---|---|---|---|---|---|---|---|"]
    for s in scenarios:
        row = s.summary_row()
        resample = ", ".join(_format_rate(r) for r in row["resample_rates_hz"])
        lines.append(
            f"| {row['name']} | {row['standard']} "
            f"| {_format_rate(row['bandwidth_hz'])} | {row['osr']} "
            f"| {_format_rate(row['sample_rate_hz'])} "
            f"| {row['output_bits']} b @ {_format_rate(row['output_rate_hz'])} "
            f"| {row['target_snr_db']:g} dB | {resample or '—'} |")
    return "\n".join(lines)


def scenario_catalog_markdown() -> str:
    """The full generated scenario catalog (the ``docs/SCENARIOS.md`` body).

    One section per registered scenario: description, specification table,
    verification mask, stimulus, expected golden-record results and the
    CLI invocations that reproduce and check them.  Generated from the
    registry + goldens so the document cannot drift from the code.
    """
    lines: List[str] = []
    lines.append("# Scenario catalog")
    lines.append("")
    lines.append("<!-- GENERATED FILE - do not edit by hand.")
    lines.append("     Regenerate with: python tools/check_scenarios_doc.py --write -->")
    lines.append("")
    lines.append(
        "Every workload below is a registered scenario in "
        "`repro.scenarios`: a declarative bundle of standard profile, "
        "design options, stimulus and verification mask with a committed "
        "golden record under `../src/repro/scenarios/goldens/`. "
        "Run one with `python -m repro scenario run <name>`, the whole "
        "suite with `python -m repro scenario run --all`, and compare "
        "against the golden records with `python -m repro scenario check` "
        "(see [GUIDE.md](GUIDE.md) for the workflow).")
    lines.append("")
    lines.append("## Registry overview")
    lines.append("")
    lines.append(scenario_list_markdown())
    for scenario in all_scenarios():
        lines.append("")
        lines.extend(_catalog_section(scenario))
    lines.append("")
    return "\n".join(lines)


def _catalog_section(scenario: Scenario) -> List[str]:
    mod = scenario.spec.modulator
    dec = scenario.spec.decimator
    stim = scenario.stimulus
    lines = [f"## `{scenario.name}` — {scenario.title}", ""]
    lines.append(scenario.description)
    if scenario.paper_anchor:
        lines.append("")
        lines.append(f"*Paper anchor:* {scenario.paper_anchor}.")
    lines.append("")
    lines.append("| Parameter | Value |")
    lines.append("|---|---|")
    lines.append(f"| Modulator | order {mod.order}, {mod.quantizer_bits}-bit, "
                 f"OSR {mod.osr}, fs {_format_rate(mod.sample_rate_hz)} |")
    lines.append(f"| Signal bandwidth | {_format_rate(mod.bandwidth_hz)} |")
    lines.append(f"| Output | {dec.output_bits} bit @ "
                 f"{_format_rate(dec.output_rate_hz)} |")
    sinc = scenario.options.sinc_orders
    lines.append(f"| Sinc order split | "
                 f"{'designer choice' if sinc is None else '-'.join(str(o) for o in sinc)} |")
    lines.append(f"| Mask | ripple ≤ {dec.passband_ripple_db:g} dB to "
                 f"{_format_rate(dec.passband_edge_hz)}, attenuation ≥ "
                 f"{dec.stopband_attenuation_db:g} dB from "
                 f"{_format_rate(dec.stopband_edge_hz)} |")
    lines.append(f"| SNR target | {dec.target_snr_db:g} dB "
                 f"(check limit {dec.target_snr_db - 3.0:g} dB) |")
    lines.append(f"| Stimulus | {_format_rate(stim.tone_hz)} tone, "
                 f"amplitude {stim.amplitude:g}, {stim.n_samples} samples |")
    if scenario.resample_rates_hz:
        rates = ", ".join(_format_rate(r) for r in scenario.resample_rates_hz)
        lines.append(f"| Rate converter | Farrow resample to {rates} |")
    golden = load_golden(scenario.name)
    if golden is not None:
        summary = golden["summary"]
        simulated = golden.get("simulated_snr_db")
        snr = (f"{simulated:.1f} dB measured" if simulated is not None
               else f"{golden['predicted_snr_db']:.1f} dB predicted")
        lines.append(f"| Golden record | SNR {snr}, "
                     f"{summary['total_power_mw']:.3f} mW, "
                     f"{summary['total_area_mm2']:.4f} mm2, "
                     f"{golden['gate_count']} gates, mask "
                     f"{'PASS' if summary['meets_spec'] else 'FAIL'} |")
    lines.append("")
    lines.append("```bash")
    lines.append(f"python -m repro scenario run {scenario.name}")
    lines.append(f"python -m repro scenario check {scenario.name}")
    lines.append("```")
    return lines


def _format_rate(value: object) -> str:
    """Human-readable Hz formatting (kHz/MHz/GHz as appropriate)."""
    rate = float(value)
    for unit, scale in (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3)):
        if abs(rate) >= scale:
            return f"{rate / scale:g} {unit}"
    return f"{rate:g} Hz"
