"""The rapid design-and-synthesis flow (the paper's 'process flow').

One call — :func:`run_design_flow` — performs every step of the paper's
methodology: specification → chain design → mask verification → optional
end-to-end SNR simulation → power/area estimation, and
returns a single :class:`FlowResult` whose report renders the same artefacts
the paper presents (Table I compliance, Table II power, Figs. 8–13 data).
"""

from repro.flow.artifacts import ArtifactStore
from repro.flow.pipeline import (
    FlowResult,
    json_sanitize,
    run_design_flow,
    warm_flow_artifacts,
)
from repro.flow.reports import (
    flow_report_text,
    verification_table_markdown,
)

__all__ = [
    "ArtifactStore",
    "FlowResult",
    "json_sanitize",
    "run_design_flow",
    "warm_flow_artifacts",
    "flow_report_text",
    "verification_table_markdown",
]
