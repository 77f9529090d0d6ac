"""Filter design library.

Every filter class the paper's decimation chain uses is designed and
modelled here:

* :mod:`~repro.filters.sinc` / :mod:`~repro.filters.hogenauer` — Sinc^K
  (CIC) stages: design-level responses plus the bit-true multirate
  Hogenauer implementation with retiming and pipelining (Section IV).
* :mod:`~repro.filters.halfband` — Saramäki tapped-cascade halfband filter
  design with CSD coefficient search, plus a conventional equiripple
  halfband used as baseline (Section V).
* :mod:`~repro.filters.fir` / :mod:`~repro.filters.equalizer` —
  Parks–McClellan / least-squares FIR design and the droop equalizer
  (Section VI).
* :mod:`~repro.filters.scaling` — the MSA-recovery scaling stage
  implemented with CSD and Horner's rule (Section VI).
* :mod:`~repro.filters.polyphase` — the strided-matmul (polyphase)
  engine shared by the bit-true FIR-shaped stages.
* :mod:`~repro.filters.response` / :mod:`~repro.filters.cascade` —
  frequency-response evaluation, alias-band analysis and multirate cascade
  composition (the machinery behind Figs. 8–11).
"""

from repro.filters.response import (
    FrequencyResponse,
    fir_frequency_response,
    default_frequency_grid,
    alias_bands_for_decimation,
)
from repro.filters.sinc import (
    SincFilterSpec,
    SincFilter,
    SincCascadeSpec,
    SincCascade,
)
from repro.filters.hogenauer import (
    HogenauerConfig,
    HogenauerDecimator,
    HogenauerTrace,
)
from repro.filters.halfband import (
    SaramakiHalfband,
    SaramakiHalfbandDesigner,
    HalfbandDecimator,
    design_halfband_remez,
    halfband_zero_phase_response,
)
from repro.filters.fir import (
    FIRFilterFixedPoint,
    design_lowpass_remez,
    design_arbitrary_response_ls,
    fir_response,
)
from repro.filters.equalizer import (
    EqualizerDesign,
    design_droop_equalizer,
    compensated_response,
    residual_ripple_db,
)
from repro.filters.scaling import ScalingStage
from repro.filters.polyphase import convolve_strided_matmul
from repro.filters.cascade import (
    CascadeStageDescription,
    MultirateCascade,
)
from repro.filters.rate_converter import (
    FarrowRateConverter,
)

__all__ = [
    "FrequencyResponse",
    "fir_frequency_response",
    "default_frequency_grid",
    "alias_bands_for_decimation",
    "SincFilterSpec",
    "SincFilter",
    "SincCascadeSpec",
    "SincCascade",
    "HogenauerConfig",
    "HogenauerDecimator",
    "HogenauerTrace",
    "SaramakiHalfband",
    "SaramakiHalfbandDesigner",
    "HalfbandDecimator",
    "design_halfband_remez",
    "halfband_zero_phase_response",
    "FIRFilterFixedPoint",
    "design_lowpass_remez",
    "design_arbitrary_response_ls",
    "fir_response",
    "EqualizerDesign",
    "design_droop_equalizer",
    "compensated_response",
    "residual_ripple_db",
    "ScalingStage",
    "convolve_strided_matmul",
    "CascadeStageDescription",
    "MultirateCascade",
    "FarrowRateConverter",
]
