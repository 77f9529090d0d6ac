"""Scenario suite: declarative multi-standard workloads with golden records.

The paper's central claim is reconfigurability — one design flow serving
standards from voice band to wideband LTE.  This package makes each such
workload a first-class, named *scenario*: a declarative bundle of standard
profile (:class:`~repro.core.spec.ChainSpec`), design options, SNR
stimulus, verification mask and (optionally) Farrow rate-converter output
rates, registered under a stable name and paired with a committed golden
record of its full design-flow outcome.

* :mod:`~repro.scenarios.registry` — the :class:`Scenario` dataclass and
  the name → scenario registry.
* :mod:`~repro.scenarios.profiles` — the built-in standard profiles
  (LTE-20/10/5, WCDMA, NB-IoT, audio 48k/96k, voice band,
  instrumentation, fractional-rate SDR), registered on import.
* :mod:`~repro.scenarios.runner` — :func:`run_scenario` /
  :func:`run_scenario_suite` over the shared memoized flow harness
  (same ``jobs`` semantics and result store as :mod:`repro.explore`).
* :mod:`~repro.scenarios.golden` — committed golden records and the
  field-by-field regression checker with tolerance policy.
* :mod:`~repro.scenarios.report` — suite reports and the generated
  ``docs/SCENARIOS.md`` catalog.

From the shell: ``python -m repro scenario list|run|report|check``.
"""

from repro.scenarios.registry import (
    Scenario,
    Stimulus,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    scenarios_by_standard,
)
from repro.scenarios.profiles import register_builtin_scenarios
from repro.scenarios.runner import (
    ScenarioRunResult,
    ScenarioSuiteResult,
    run_scenario,
    run_scenario_suite,
)
from repro.scenarios.golden import (
    DEFAULT_TOLERANCE,
    FieldDiff,
    TolerancePolicy,
    check_record,
    diff_records,
    golden_path,
    load_golden,
    write_golden,
)
from repro.scenarios.report import (
    scenario_catalog_markdown,
    scenario_list_markdown,
    scenario_report_json,
    scenario_report_markdown,
    scenario_table_markdown,
)

register_builtin_scenarios()

__all__ = [
    "Scenario",
    "Stimulus",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "scenarios_by_standard",
    "ScenarioRunResult",
    "ScenarioSuiteResult",
    "run_scenario",
    "run_scenario_suite",
    "TolerancePolicy",
    "DEFAULT_TOLERANCE",
    "FieldDiff",
    "check_record",
    "diff_records",
    "golden_path",
    "load_golden",
    "write_golden",
    "scenario_report_json",
    "scenario_report_markdown",
    "scenario_table_markdown",
    "scenario_list_markdown",
    "scenario_catalog_markdown",
    "register_builtin_scenarios",
]
