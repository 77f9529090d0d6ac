"""Continuous-time loop-filter mapping and Active-RC component calculation.

The paper's modulator is a continuous-time design (Figs. 2 and 3): a
feed-forward cascade of five Active-RC integrators, two of which are wrapped
into resonators to realize the in-band NTF zeros, with feed-forward
coefficients ``k0..k5`` summed at the quantizer input.

The decimation filter itself only consumes the modulator's output codes, so
the reproduction simulates the discrete-time equivalent loop (see
``repro.dsm.modulator``).  This module preserves the CT design step of the
paper's flow: it maps the synthesized NTF onto a feed-forward (CIFF-style)
continuous-time loop filter via impulse-invariance and converts the
resulting coefficients into Active-RC component values (the ``k_i = Rf/Ri``
ratios of Fig. 3), so the "analog side" of the flow is representable and
testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.dsm.ntf import NoiseTransferFunction, impulse_response


@dataclass
class ContinuousTimeLoopFilter:
    """A feed-forward CT loop filter matched to a target NTF.

    Attributes
    ----------
    feedforward:
        Coefficients ``k1..kN`` weighting each integrator output into the
        summing amplifier (Fig. 3).
    resonator_gains:
        Feedback gains ``g`` of the resonator loops realizing the non-DC NTF
        zeros (one per resonator; empty when all zeros sit at DC).
    sample_rate_hz:
        Modulator clock rate the mapping was performed for.
    """

    feedforward: np.ndarray
    resonator_gains: np.ndarray
    sample_rate_hz: float
    ntf: NoiseTransferFunction
    metadata: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        """Loop-filter order (number of feedforward coefficients)."""
        return len(self.feedforward)


def _dt_loop_filter_impulse(ntf: NoiseTransferFunction, n_samples: int) -> np.ndarray:
    """Impulse response of the discrete-time loop filter ``L1 = 1/NTF - 1``."""
    b, a = ntf.as_tf()
    return impulse_response(np.polysub(a, b), b, n_samples)


def _ct_integrator_chain_impulse(order: int, feedforward: np.ndarray,
                                 resonator_gains: np.ndarray,
                                 n_samples: int) -> np.ndarray:
    """Sampled impulse response of a CIFF integrator chain with NRZ DAC feedback.

    The chain consists of ``order`` unit-gain integrators ``1/sT``;
    resonator ``r`` feeds the output of integrator ``2r+2`` back to the input
    of integrator ``2r+1`` with gain ``-g_r``.  The loop-filter output is the
    feed-forward weighted sum of all integrator outputs.  The DAC pulse is a
    full-period NRZ rectangle, integrated analytically via the matrix
    exponential of the augmented system.  This is the one place the package
    needs scipy (``StateSpace``/``dlsim``), so it imports it here.
    """
    from scipy import signal

    # State-space of the integrator chain with resonator feedback, in units
    # of the sampling period (T = 1).
    a_matrix = np.zeros((order, order))
    for i in range(1, order):
        a_matrix[i, i - 1] = 1.0
    for r, g in enumerate(resonator_gains):
        src = 2 * r + 1  # output of the second integrator in the pair
        dst = 2 * r      # input of the first integrator in the pair
        if src < order:
            a_matrix[dst, src] = -float(g)
    b_vec = np.zeros((order, 1))
    b_vec[0, 0] = 1.0
    c_vec = np.asarray(feedforward, dtype=float).reshape(1, order)
    d = np.zeros((1, 1))
    # Discretize with a zero-order hold (NRZ DAC pulse shape).
    system = signal.StateSpace(a_matrix, b_vec, c_vec, d)
    discrete = system.to_discrete(dt=1.0, method="zoh")
    impulse_in = np.zeros(n_samples)
    impulse_in[0] = 1.0
    outputs = signal.dlsim(discrete, impulse_in)
    response = outputs[1]
    return np.asarray(response).flatten()


def map_ntf_to_ct(ntf: NoiseTransferFunction, sample_rate_hz: float,
                  n_match: int = 24) -> ContinuousTimeLoopFilter:
    """Map a discrete-time NTF onto a CT feed-forward loop filter.

    The mapping matches the sampled impulse response of the CT loop filter
    (integrator chain + NRZ DAC) to the impulse response of the DT loop
    filter ``L1(z) = 1/NTF(z) - 1`` over the first ``n_match`` samples — the
    impulse-invariance criterion used for CT delta-sigma design.  The
    resonator gains are fixed by the NTF zero frequencies; the feed-forward
    coefficients are found by least squares.
    """
    order = ntf.order
    zero_freqs = np.asarray(ntf.metadata.get("zero_frequencies", np.zeros(order)))
    positive = sorted(f for f in zero_freqs if f > 0)
    # Resonator gain g produces CT zeros at ±j*sqrt(g)/T ⇒ g = (2*pi*f)^2.
    resonator_gains = np.array([(2.0 * np.pi * f) ** 2 for f in positive])

    target = _dt_loop_filter_impulse(ntf, n_match)

    # Build the response of each individual integrator output to the DAC
    # impulse, then solve for the feed-forward weights by least squares.
    basis = np.zeros((n_match, order))
    for k in range(order):
        selector = np.zeros(order)
        selector[k] = 1.0
        basis[:, k] = _ct_integrator_chain_impulse(order, selector,
                                                   resonator_gains, n_match)
    weights, residuals, _, _ = np.linalg.lstsq(basis, target, rcond=None)
    achieved = basis @ weights
    error = float(np.max(np.abs(achieved - target)))
    return ContinuousTimeLoopFilter(
        feedforward=weights,
        resonator_gains=resonator_gains,
        sample_rate_hz=sample_rate_hz,
        ntf=ntf,
        metadata={"match_error": error, "n_match": n_match},
    )


@dataclass
class ActiveRCComponent:
    """One resistor/capacitor pair of the Active-RC realization."""

    name: str
    resistance_ohm: float
    capacitance_farad: float


def active_rc_components(loop_filter: ContinuousTimeLoopFilter,
                         feedback_resistance_ohm: float = 10e3,
                         integrating_capacitor_farad: float = 500e-15) -> List[ActiveRCComponent]:
    """Translate loop-filter coefficients into Active-RC component values.

    Each integrator ``i`` with unity-gain frequency equal to the sampling
    rate uses ``R_i * C_i = 1 / fs``.  The feed-forward coefficient
    ``k_i = Rf / R_ii`` (Fig. 3) sets the summing resistor ``R_ii``.
    Component values are nominal; the point is that the flow produces a
    complete, checkable component list like the paper's analog front end.
    """
    fs = loop_filter.sample_rate_hz
    components: List[ActiveRCComponent] = []
    for i in range(loop_filter.order):
        c = integrating_capacitor_farad
        r = 1.0 / (fs * c)
        components.append(ActiveRCComponent(f"R{i+1}/C{i+1}", r, c))
    for i, k in enumerate(loop_filter.feedforward):
        k = abs(float(k))
        if k < 1e-12:
            continue
        r_sum = feedback_resistance_ohm / k
        components.append(ActiveRCComponent(f"R{i+1}{i+1} (feed-forward k{i+1})",
                                            r_sum, 0.0))
    for i, g in enumerate(loop_filter.resonator_gains):
        if g <= 0:
            continue
        # Resonator feedback resistor for gain g with the same C.
        r_g = 1.0 / (np.sqrt(g) * fs * integrating_capacitor_farad)
        components.append(ActiveRCComponent(f"Rg{i+1} (resonator)", r_g, 0.0))
    return components


def summarize_ct_design(loop_filter: ContinuousTimeLoopFilter) -> Dict[str, object]:
    """Compact dictionary summary of the CT mapping for reports and tests."""
    return {
        "order": loop_filter.order,
        "feedforward": [float(k) for k in loop_filter.feedforward],
        "resonator_gains": [float(g) for g in loop_filter.resonator_gains],
        "match_error": loop_filter.metadata.get("match_error"),
        "sample_rate_hz": loop_filter.sample_rate_hz,
    }
