"""Monte Carlo robustness & yield analysis of designed decimation chains.

The paper's flow designs and verifies a chain at its *nominal* coefficients
and corner; this package asks the production question: what is the design's
**yield** under coefficient quantization error, CSD term dropout, component
mismatch, sampling-clock jitter and PVT corner shifts?

* :mod:`~repro.robustness.model` — the declarative
  :class:`~repro.robustness.model.PerturbationModel` with five composable
  axes, and its seeded, executor-independent draw tables.
* :mod:`~repro.robustness.engine` — the batched Monte Carlo engine: each
  chain variant's samples in blocks of ``ROW_BLOCK`` rows, whose
  full-rate stages (``simulate_batch`` and the Hogenauer stages) run in
  groups of four rows and whose decimated-rate stages and tone analysis
  run once per block, corner-scaled power/area from the nominal
  synthesis — never a per-sample Python simulation loop.
* :mod:`~repro.robustness.report` — per-sample metric distributions,
  :class:`~repro.robustness.report.YieldReport` (pass-rate against the
  spec masks, percentile SNR, worst-case sample), robust Pareto ranking by
  P99-confidence metrics, and the golden-record name its regression check
  diffs against.

Quickstart::

    from repro.robustness import default_model, run_robustness

    report = run_robustness("lte-20", model=default_model(),
                            n_samples=256, seed=2011)
    print(f"yield {report.yield_fraction:.1%}, "
          f"P99 SNR {report.snr_p99_db:.1f} dB")

From the shell: ``python -m repro robustness run lte-20 --samples 256``;
see ``docs/ROBUSTNESS.md`` for the model of each perturbation axis.
"""

from repro.robustness.engine import (
    GOLDEN_RUN_SETTINGS,
    MIN_ANALYSIS_OUTPUTS,
    execute_robustness_payload,
    run_robustness,
    run_robustness_suite,
)
from repro.robustness.model import (
    ClockJitter,
    CoefficientDither,
    CSDDropout,
    InputMismatch,
    PerturbationModel,
    default_model,
)
from repro.robustness.report import (
    ROBUSTNESS_SCHEMA_VERSION,
    RobustnessSuiteResult,
    YieldReport,
    distribution_stats,
    robustness_golden_name,
    robustness_report_json,
    robustness_report_markdown,
)

__all__ = [
    "GOLDEN_RUN_SETTINGS",
    "MIN_ANALYSIS_OUTPUTS",
    "ROBUSTNESS_SCHEMA_VERSION",
    "CSDDropout",
    "ClockJitter",
    "CoefficientDither",
    "InputMismatch",
    "PerturbationModel",
    "RobustnessSuiteResult",
    "YieldReport",
    "default_model",
    "distribution_stats",
    "execute_robustness_payload",
    "robustness_golden_name",
    "robustness_report_json",
    "robustness_report_markdown",
    "run_robustness",
    "run_robustness_suite",
]
