"""Textual and markdown reports of flow runs (the paper's tables as text).

Every formatter accepts either a single :class:`~repro.flow.pipeline.FlowResult`
or a sequence of them (a batch, e.g. the per-point results of a design-space
sweep).  Single results render exactly the paper's tables; batches gain a
leading *Design* column labelling each row with the design it came from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.flow.pipeline import FlowResult

ResultOrBatch = Union[FlowResult, Sequence[FlowResult]]


def _as_labelled_results(result: ResultOrBatch,
                         labels: Optional[Sequence[str]] = None,
                         ) -> Tuple[List[Tuple[str, FlowResult]], bool]:
    """Normalize single-or-batch input to ``[(label, result), ...]``.

    Returns the labelled list and whether the input was a batch (which
    decides whether the *Design* column is rendered).  Labels default to
    ``design-0``, ``design-1``, … and must match the batch length.
    """
    if isinstance(result, FlowResult):
        results = [result]
        batch = False
    else:
        results = list(result)
        batch = True
        if not results:
            raise ValueError("cannot render a report for an empty batch")
    if labels is None:
        labels = [f"design-{i}" for i in range(len(results))]
    elif len(labels) != len(results):
        raise ValueError(f"got {len(labels)} labels for {len(results)} results")
    return list(zip(labels, results)), batch


def verification_table_markdown(result: ResultOrBatch,
                                labels: Optional[Sequence[str]] = None) -> str:
    """Table I compliance as a markdown table (batches gain a leading
    *Design* column)."""
    labelled, batch = _as_labelled_results(result, labels)
    header = "| Check | Measured | Requirement | Status |"
    separator = "|---|---|---|---|"
    if batch:
        header = "| Design " + header
        separator = "|---" + separator
    lines = [header, separator]
    for label, res in labelled:
        prefix = f"| {label} " if batch else ""
        for check in res.verification.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{prefix}| {check.name} | {check.measured:.2f} {check.unit} "
                         f"| {check.comparison} {check.limit:g} {check.unit} | {status} |")
    return "\n".join(lines)


def flow_report_text(result: ResultOrBatch,
                     labels: Optional[Sequence[str]] = None) -> str:
    """Human-readable report covering design, verification, power and area.

    Batch input renders one full report section per design, each headed by
    its label.
    """
    labelled, batch = _as_labelled_results(result, labels)
    sections = []
    for label, res in labelled:
        sections.append(_single_report_text(res, label if batch else None))
    return "\n\n".join(sections)


def _single_report_text(result: FlowResult, label: Optional[str]) -> str:
    chain = result.chain
    lines: List[str] = []
    lines.append("=" * 72)
    title = "Decimation filter rapid design and synthesis flow — report"
    if label is not None:
        title += f" [{label}]"
    lines.append(title)
    lines.append("=" * 72)
    summary = chain.summary()
    lines.append("Design summary:")
    for key, value in summary.items():
        lines.append(f"  {key:<28} {value}")
    lines.append("")
    lines.append("Specification verification:")
    for check in result.verification.checks:
        lines.append("  " + str(check))
    lines.append(f"  Overall: {'PASS' if result.verification.passed else 'FAIL'}")
    if result.simulated_snr_db is not None:
        lines.append(f"  Simulated end-to-end SNR: {result.simulated_snr_db:.1f} dB")
    lines.append("")
    lines.append(str(result.synthesis.power))
    lines.append("")
    lines.append(str(result.synthesis.area))
    lines.append("")
    lines.append("=" * 72)
    return "\n".join(lines)
