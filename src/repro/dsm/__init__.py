"""Delta-sigma modulator substrate.

This package provides everything the decimation-filter flow needs from the
"analog side" of the ADC in Fig. 1 of the paper.  The paper's modulator is
a continuous-time design (Figs. 2–3); the decimation filter consumes only
its output codes, so the package models the discrete-time equivalent loop:

* :mod:`~repro.dsm.ntf` — noise transfer function synthesis (the
  ``synthesizeNTF`` step of the original MATLAB flow).
* :mod:`~repro.dsm.quantizer` — the internal multi-bit quantizer.
* :mod:`~repro.dsm.modulator` — discrete-time simulation of the loop,
  bit-stream generation, MSA estimation (the ``simulateDSM`` step).
* :mod:`~repro.dsm.spectrum` — PSD/SQNR/ENOB analysis used by Fig. 4 and the
  end-to-end SNR measurements.
* :mod:`~repro.dsm.signals` — coherent and jittered tones, impulse and DC
  stimuli.

Everything here runs on numpy alone.
"""

from repro.dsm.ntf import (
    NoiseTransferFunction,
    NTFSynthesisError,
    synthesize_ntf,
    optimal_zero_frequencies,
)
from repro.dsm.quantizer import MultibitQuantizer
from repro.dsm.modulator import (
    DeltaSigmaModulator,
    SimulationResult,
    ErrorFeedbackSimulator,
    FastErrorFeedbackSimulator,
)
from repro.dsm.spectrum import (
    SpectrumAnalysis,
    periodogram,
    analyze_tone,
    spectrum_for_plot,
    db_power,
)
from repro.dsm.signals import (
    ToneSpec,
    coherent_tone,
    impulse,
    dc,
)

__all__ = [
    "NoiseTransferFunction",
    "NTFSynthesisError",
    "synthesize_ntf",
    "optimal_zero_frequencies",
    "MultibitQuantizer",
    "DeltaSigmaModulator",
    "SimulationResult",
    "ErrorFeedbackSimulator",
    "FastErrorFeedbackSimulator",
    "SpectrumAnalysis",
    "periodogram",
    "analyze_tone",
    "spectrum_for_plot",
    "db_power",
    "ToneSpec",
    "coherent_tone",
    "impulse",
    "dc",
]
