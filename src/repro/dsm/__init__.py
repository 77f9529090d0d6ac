"""Delta-sigma modulator substrate.

This package provides everything the decimation-filter flow needs from the
"analog side" of the ADC in Fig. 1 of the paper:

* :mod:`~repro.dsm.ntf` — noise transfer function synthesis (the
  ``synthesizeNTF`` step of the original MATLAB flow).
* :mod:`~repro.dsm.quantizer` — internal multi-bit quantizer models.
* :mod:`~repro.dsm.modulator` — discrete-time simulation of the loop,
  bit-stream generation, MSA estimation (the ``simulateDSM`` step).
* :mod:`~repro.dsm.ct_loopfilter` — mapping of the NTF onto the
  continuous-time feed-forward Active-RC loop filter of Figs. 2–3.
* :mod:`~repro.dsm.spectrum` — PSD/SQNR/ENOB analysis used by Fig. 4 and the
  end-to-end SNR measurements.
* :mod:`~repro.dsm.signals` — coherent-tone and wideband test stimuli.
"""

from repro.dsm.ntf import (
    NoiseTransferFunction,
    NTFSynthesisError,
    synthesize_ntf,
    optimal_zero_frequencies,
)
from repro.dsm.quantizer import MultibitQuantizer, BinaryQuantizer, quantizer_snr_bound_db
from repro.dsm.modulator import (
    DeltaSigmaModulator,
    SimulationResult,
    ErrorFeedbackSimulator,
    FastErrorFeedbackSimulator,
)
from repro.dsm.ct_loopfilter import (
    ContinuousTimeLoopFilter,
    ActiveRCComponent,
    map_ntf_to_ct,
    active_rc_components,
)
from repro.dsm.spectrum import (
    SpectrumAnalysis,
    periodogram,
    analyze_tone,
    spectrum_for_plot,
    noise_floor_db,
    db_power,
    db_voltage,
)
from repro.dsm.signals import (
    ToneSpec,
    coherent_tone,
    multitone,
    band_limited_noise,
    ramp,
    impulse,
    dc,
)

__all__ = [
    "NoiseTransferFunction",
    "NTFSynthesisError",
    "synthesize_ntf",
    "optimal_zero_frequencies",
    "MultibitQuantizer",
    "BinaryQuantizer",
    "quantizer_snr_bound_db",
    "DeltaSigmaModulator",
    "SimulationResult",
    "ErrorFeedbackSimulator",
    "FastErrorFeedbackSimulator",
    "ContinuousTimeLoopFilter",
    "ActiveRCComponent",
    "map_ntf_to_ct",
    "active_rc_components",
    "SpectrumAnalysis",
    "periodogram",
    "analyze_tone",
    "spectrum_for_plot",
    "noise_floor_db",
    "db_power",
    "db_voltage",
    "ToneSpec",
    "coherent_tone",
    "multitone",
    "band_limited_noise",
    "ramp",
    "impulse",
    "dc",
]
