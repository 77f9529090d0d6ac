"""Design-space exploration: declarative sweeps over the rapid design flow.

The paper's flow designs, verifies and synthesis-estimates **one** chain per
call; this package turns that into a batch explorer:

* :class:`~repro.explore.sweep.SweepSpec` — a declarative grid (OSR,
  bandwidth, Sinc splits, word widths, halfband attenuation) expanded into
  deterministic :class:`~repro.explore.sweep.SweepPoint` lists.
* :func:`~repro.explore.runner.run_sweep` — parallel batch execution via
  ``concurrent.futures`` over the content-addressed on-disk store
  (:class:`~repro.explore.store.ArtifactCAS`, one local directory), with
  grid resume (``resume=``).
* :mod:`~repro.explore.pareto` — Pareto-front computation and ranking over
  (SNR, power, area, gate count).
* :mod:`~repro.explore.report` — Pareto-ranked markdown and canonical JSON
  reports; cached re-runs reproduce them byte-identically.

Quickstart::

    from repro.explore import SweepSpec, run_sweep, sweep_report_markdown

    sweep = SweepSpec(output_bits=(12, 14, 16), sinc_orders=((4, 4, 6), (3, 3, 5)))
    result = run_sweep(sweep, jobs=4, cache_dir=".repro-cache")
    print(sweep_report_markdown(result))
"""

from repro.explore.store import (
    CACHE_SCHEMA_VERSION,
    MAX_VALIDATE_BYTES,
    SHARD_PREFIX_LEN,
    TMP_GRACE_S,
    ArtifactCAS,
    LocalDirBackend,
    open_store,
)
from repro.explore.pareto import (
    DEFAULT_OBJECTIVES,
    ROBUST_OBJECTIVES,
    Objective,
    dominates,
    pareto_front,
    pareto_rank,
)
from repro.explore.report import (
    REPORT_SCHEMA_VERSION,
    render_report_from_json,
    sweep_report_json,
    sweep_report_markdown,
)
from repro.explore.runner import (
    SweepPointResult,
    SweepResult,
    run_sweep,
)
from repro.explore.sweep import (
    AUTO_SINC_ORDERS,
    HALFBAND_DESIGN_MARGIN_DB,
    SWEEP_AXES,
    SweepPoint,
    SweepSpec,
)

__all__ = [
    "AUTO_SINC_ORDERS",
    "ArtifactCAS",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_OBJECTIVES",
    "HALFBAND_DESIGN_MARGIN_DB",
    "LocalDirBackend",
    "MAX_VALIDATE_BYTES",
    "Objective",
    "REPORT_SCHEMA_VERSION",
    "ROBUST_OBJECTIVES",
    "SHARD_PREFIX_LEN",
    "SWEEP_AXES",
    "TMP_GRACE_S",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "SweepSpec",
    "dominates",
    "open_store",
    "pareto_front",
    "pareto_rank",
    "render_report_from_json",
    "run_sweep",
    "sweep_report_json",
    "sweep_report_markdown",
]
