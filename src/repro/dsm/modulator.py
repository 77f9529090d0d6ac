"""Discrete-time simulation of the delta-sigma modulator.

The paper's ADC front-end is a continuous-time, 5th-order, feed-forward
Active-RC modulator clocked at 640 MHz with a 4-bit quantizer.  What the
decimation filter sees, however, is only the modulator's *output code
stream* whose quantization noise is shaped by the NTF.  We therefore
simulate the discrete-time equivalent of the loop (same NTF, same quantizer,
unity STF) and use it to generate bit-streams, estimate the maximum stable
amplitude (MSA) and measure SQNR.  The substitution is documented in
DESIGN.md.

The loop runs in :class:`FastErrorFeedbackSimulator`: the error-feedback
form ``y = u - g * e`` with the filter ``g = 1 - NTF`` evaluated in its
exact recursive (IIR) form, at ~2·order multiply-adds per sample.  It runs
in the compiled kernel of :mod:`repro._native` (tens of nanoseconds per
sample), or, without a C compiler, in its pure-Python scalar loop (about a
microsecond per sample), which is also the gold model the kernel is tested
against bit for bit.  Every simulation of :class:`DeltaSigmaModulator` —
single records, batches, the MSA estimate — runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import _native
from repro.dsm.ntf import NoiseTransferFunction, synthesize_ntf
from repro.dsm.quantizer import MultibitQuantizer

if TYPE_CHECKING:  # pragma: no cover - core builds on dsm, not the reverse
    from repro.core.spec import ModulatorSpec

#: Rows the compiled kernel runs in lockstep (``EF_LANES`` in
#: ``repro/_native/kernels.c``): a batch of a multiple of it leaves no rows
#: to the kernel's one-row-at-a-time remainder loop.
LOCKSTEP_ROWS = 4


@dataclass
class SimulationResult:
    """Output of a modulator simulation.

    Attributes
    ----------
    output:
        Quantizer output values (full scale ±1), one per clock cycle;
        ``None`` for a ``codes_only`` simulation.
    codes:
        Integer output codes in ``[0, 2**bits - 1]`` — the decimator input.
    quantizer_input:
        The loop-filter output seen by the quantizer (used for stability
        and MSA analysis); ``None`` for a ``codes_only`` simulation.
    stable:
        Heuristic stability flag: ``False`` when the quantizer input grew
        beyond several full scales, indicating the loop has lost lock.
    """

    output: Optional[np.ndarray]
    codes: np.ndarray
    quantizer_input: Optional[np.ndarray]
    stable: bool
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of simulated samples."""
        return len(self.codes)


@dataclass
class BatchSimulationResult:
    """Output of a batched modulator simulation over independent records.

    Arrays carry a leading batch axis: row ``b`` is bit-exact to the
    per-record simulation of input row ``b`` (the tests pin this).

    Attributes
    ----------
    output, codes, quantizer_input:
        ``(batch, n)`` arrays; per-record meaning as in
        :class:`SimulationResult` (``output`` and ``quantizer_input`` are
        ``None`` for a ``codes_only`` simulation).
    stable:
        ``(batch,)`` boolean array, one stability verdict per record.
    """

    output: Optional[np.ndarray]
    codes: np.ndarray
    quantizer_input: Optional[np.ndarray]
    stable: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        """Number of independent records in the batch."""
        return self.codes.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of simulated samples per record."""
        return self.codes.shape[1]

    def record(self, index: int) -> SimulationResult:
        """View one row as a per-record :class:`SimulationResult`."""
        def row(array):
            return None if array is None else array[index]

        return SimulationResult(
            output=row(self.output),
            codes=self.codes[index],
            quantizer_input=row(self.quantizer_input),
            stable=bool(self.stable[index]),
            metadata=dict(self.metadata, batch_index=index),
        )


class ErrorFeedbackSimulator:
    """Error-feedback simulation of a delta-sigma loop with unity STF.

    The quantizer input at time ``n`` is ``y[n] = u[n] - Σ_k h[k]·e[n-k]``
    where ``e`` is the past quantization error and ``h`` is the impulse
    response of ``1 - NTF(z)`` (whose leading sample is zero because the NTF
    is monic).  The output is then ``v[n] = Q(y[n])`` and
    ``e[n] = v[n] - y[n]``, which yields exactly ``V(z) = U(z) + NTF(z)·E(z)``.

    No library code calls it; it is kept only until perfbench drops its
    layer wrapper of :meth:`simulate`.
    """

    #: Quantizer inputs beyond this many full scales flag instability.
    INSTABILITY_THRESHOLD = 8.0

    def __init__(self, ntf: NoiseTransferFunction, quantizer: MultibitQuantizer,
                 feedback_taps: int = 64) -> None:
        self.ntf = ntf
        self.quantizer = quantizer
        impulse = ntf.loop_filter_impulse_response(feedback_taps)
        # The leading sample of 1 - NTF is zero (NTF is monic); drop it so the
        # filter acts only on *past* errors.
        if abs(impulse[0]) > 1e-9:
            raise ValueError("NTF must be monic (leading impulse sample of 1)")
        self._feedback = impulse[1:]

    def simulate(self, u: np.ndarray) -> SimulationResult:
        """Run the loop on the input sequence ``u`` (values within ±1)."""
        u = np.asarray(u, dtype=float)
        n = len(u)
        taps = self._feedback
        n_taps = len(taps)
        errors = np.zeros(n_taps)
        output = np.empty(n)
        quantizer_input = np.empty(n)
        codes = np.empty(n, dtype=int)
        stable = True
        limit = self.INSTABILITY_THRESHOLD * self.quantizer.full_scale
        for i in range(n):
            feedback = float(np.dot(taps, errors))
            y = u[i] - feedback
            v = self.quantizer.quantize(y)
            e = v - y
            errors = np.roll(errors, 1)
            errors[0] = e
            output[i] = v
            quantizer_input[i] = y
            codes[i] = self.quantizer.quantize_to_code(y)
            if abs(y) > limit:
                stable = False
        return SimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata={"engine": "error-feedback", "feedback_taps": n_taps},
        )


class FastErrorFeedbackSimulator:
    """Error-feedback simulation with the loop filter in recursive form.

    The feedback filter ``G(z) = 1 - NTF(z) = (a(z) - b(z)) / a(z)`` is
    strictly proper (the NTF is monic), so the loop stays causal.  It is
    evaluated sample-by-sample in transposed direct form II, which costs
    ``2·order`` multiply-adds per sample and realizes the NTF *exactly*
    rather than through a truncated impulse response.  The loop
    runs in the compiled kernel when it loads and in
    :meth:`_simulate_python` otherwise; both give the same bits.
    """

    INSTABILITY_THRESHOLD = 8.0

    def __init__(self, ntf: NoiseTransferFunction, quantizer: MultibitQuantizer) -> None:
        self.ntf = ntf
        self.quantizer = quantizer
        b_ntf, a_ntf = ntf.as_tf()
        num = np.polysub(a_ntf, b_ntf)
        if abs(num[0]) > 1e-9:
            raise ValueError("NTF must be monic (leading impulse sample of 1)")
        # Align numerator and (monic) denominator to the same length.
        order = len(a_ntf) - 1
        padded = np.zeros(order + 1)
        padded[order + 1 - len(num):] = num
        self._num = [float(v) for v in padded]
        self._den = [float(v) for v in a_ntf]

    def simulate(self, u: np.ndarray,
                 codes_only: bool = False) -> SimulationResult:
        """Run the loop on the input sequence ``u`` (values within ±1).

        Runs as a batch of one through :meth:`simulate_batch`, so the
        compiled kernel and the pure-Python gold model each have a single
        caller; both produce the same bits.  ``codes_only`` as there.
        """
        u = _finite_input(u, 1)
        record = self.simulate_batch(u[np.newaxis],
                                     codes_only=codes_only).record(0)
        record.metadata = self._metadata()
        return record

    def simulate_batch(self, u: np.ndarray, codes_only: bool = False,
                       out: Optional[np.ndarray] = None,
                       ) -> BatchSimulationResult:
        """Run the loop on a ``(batch, n)`` array of independent records.

        The compiled kernel runs the records four at a time in lockstep
        (orders up to 8; one at a time otherwise), each with the scalar
        loop's expression order, so every row is
        **bit-exact** to the pure-Python gold model
        (:meth:`_simulate_python`) — including the chaotic quantizer
        decisions — and to its per-record :meth:`simulate`.  Without the
        kernel each row runs through the gold model.

        ``codes_only`` computes only ``codes`` and ``stable`` (``output``
        and ``quantizer_input`` are ``None``), for callers that read
        nothing else.  ``out``, an int64 C-contiguous array of ``u``'s
        shape, receives the codes and becomes the result's ``codes``, so a
        caller running many blocks reuses one buffer.

        Raises :class:`LoopDivergedError` (an :class:`OverflowError`)
        naming the first row, in row order, whose quantizer input is no
        longer finite.
        """
        u = _finite_input(u, 2)
        if out is None:
            codes = np.empty(u.shape, dtype=np.int64)
        elif (out.shape != u.shape or out.dtype != np.int64
              or not out.flags.c_contiguous or not out.flags.writeable):
            raise ValueError("out must be a writeable int64 C-contiguous "
                             "array of the input's shape")
        else:
            codes = out
        output = quantizer_input = None
        if not codes_only:
            output = np.empty(u.shape)
            quantizer_input = np.empty(u.shape)
        stable = np.empty(u.shape[0], dtype=bool)
        library = _native.load()
        if library is None:
            for b, row in enumerate(u):
                try:
                    record = self._simulate_python(row)
                except (OverflowError, ValueError):  # round() of inf / NaN
                    raise LoopDivergedError(b) from None
                codes[b] = record.codes
                stable[b] = record.stable
                if not codes_only:
                    output[b] = record.output
                    quantizer_input[b] = record.quantizer_input
        else:
            # The kernel takes addresses: ``u`` is float64 and ``codes``
            # int64 of its shape (checked above), both C-contiguous, and
            # every other array is made here to fit.
            order = len(self._den) - 1
            u = np.ascontiguousarray(u)
            num, den = np.array(self._num), np.array(self._den)
            states = np.empty(order)
            failed_row = library.ef_simulate(
                u.ctypes.data, u.shape[0], u.shape[1], num.ctypes.data,
                den.ctypes.data, order, self.quantizer.full_scale,
                self.quantizer.step, self.quantizer.levels - 1,
                self.INSTABILITY_THRESHOLD * self.quantizer.full_scale,
                states.ctypes.data, _native.address(output),
                _native.address(quantizer_input), codes.ctypes.data,
                stable.ctypes.data)
            if failed_row >= 0:
                raise LoopDivergedError(failed_row)
        return BatchSimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata=dict(self._metadata(), batched=True),
        )

    def _metadata(self) -> dict:
        """The metadata of a per-record simulation."""
        return {"engine": "error-feedback-fast", "order": len(self._den) - 1}

    def _simulate_python(self, u: np.ndarray) -> SimulationResult:
        """The pure-Python scalar loop: the gold model of the kernel."""
        n = len(u)
        order = len(self._den) - 1
        num = self._num
        den = self._den
        states = [0.0] * order
        output = np.empty(n)
        quantizer_input = np.empty(n)
        codes = np.empty(n, dtype=int)
        stable = True
        full_scale = self.quantizer.full_scale
        step = self.quantizer.step
        top_code = self.quantizer.levels - 1
        limit = self.INSTABILITY_THRESHOLD * full_scale
        for i, ui in enumerate(u.tolist()):
            # DF2T output of G(z); num[0] == 0, so only the first state.
            feedback = states[0]
            y = ui - feedback
            # Inline scalar quantization (same rounding as MultibitQuantizer).
            code = round((y + full_scale) / step)
            if code < 0:
                code = 0
            elif code > top_code:
                code = top_code
            v = code * step - full_scale
            e = v - y
            for j in range(order - 1):
                states[j] = num[j + 1] * e + states[j + 1] - den[j + 1] * feedback
            states[order - 1] = num[order] * e - den[order] * feedback
            output[i] = v
            quantizer_input[i] = y
            codes[i] = code
            if y > limit or y < -limit:
                stable = False
        return SimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata=self._metadata(),
        )


class LoopDivergedError(OverflowError):
    """The error both engines raise when row ``row`` of a batch loses the
    loop (its quantizer input is no longer finite)."""

    def __init__(self, row: int) -> None:
        super().__init__(row)
        self.row = row

    def __str__(self) -> str:
        return (f"the loop diverged: the quantizer input of row {self.row} "
                f"is no longer finite")


def _finite_input(u: np.ndarray, ndim: int) -> np.ndarray:
    """``u`` as a float array of ``ndim`` dimensions with only finite values.

    Checked before any engine runs: a NaN or infinite input has no
    quantizer decision, and the kernel and the Python loop must reject it
    the same way.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != ndim:
        raise ValueError("simulate_batch expects a 2-D (batch, n) array"
                         if ndim == 2 else
                         "simulate expects a 1-D array of samples")
    finite = np.isfinite(u)
    if not finite.all():
        if ndim == 1:
            raise ValueError(f"modulator input must be finite; sample "
                             f"{int(np.argmin(finite))} is not")
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"modulator input must be finite; row {row} holds "
                         f"a NaN or infinite sample")
    return u


@dataclass
class DeltaSigmaModulator:
    """The paper's delta-sigma modulator model.

    Combines a synthesized NTF with a multi-bit quantizer and exposes the
    operations the rest of the reproduction needs: bit-stream generation,
    SQNR measurement hooks and MSA estimation.

    Parameters mirror Table I of the paper; the defaults construct the
    5th-order, OSR-16, 4-bit, 640 MHz design.
    """

    order: int = 5
    osr: int = 16
    quantizer_bits: int = 4
    sample_rate_hz: float = 640e6
    h_inf: float = 3.0
    optimize_zeros: bool = True
    ntf: Optional[NoiseTransferFunction] = None
    quantizer: MultibitQuantizer = None

    @classmethod
    def from_spec(cls, modulator_spec: "ModulatorSpec") -> "DeltaSigmaModulator":
        """The modulator of a :class:`~repro.core.spec.ModulatorSpec`
        (order, OSR, quantizer bits, clock and out-of-band gain)."""
        return cls(order=modulator_spec.order,
                   osr=modulator_spec.osr,
                   quantizer_bits=modulator_spec.quantizer_bits,
                   sample_rate_hz=modulator_spec.sample_rate_hz,
                   h_inf=modulator_spec.out_of_band_gain)

    def __post_init__(self) -> None:
        if self.ntf is None:
            self.ntf = synthesize_ntf(self.order, self.osr, self.h_inf,
                                      self.optimize_zeros)
        if self.quantizer is None:
            self.quantizer = MultibitQuantizer(bits=self.quantizer_bits)
        self._fast_simulator: Optional[FastErrorFeedbackSimulator] = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def signal_bandwidth_hz(self) -> float:
        """Nyquist bandwidth of the decimated output (fs / (2*OSR))."""
        return self.sample_rate_hz / (2.0 * self.osr)

    @property
    def output_rate_hz(self) -> float:
        """Decimated (Nyquist) output rate ``fs / OSR``."""
        return self.sample_rate_hz / self.osr

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, u: np.ndarray) -> SimulationResult:
        """Simulate the modulator on an input sequence (values within ±1).

        Runs :meth:`FastErrorFeedbackSimulator.simulate`.
        """
        return self.fast_simulator.simulate(u)

    def simulate_batch(self, u: np.ndarray) -> BatchSimulationResult:
        """Simulate a ``(batch, n)`` array of independent input records.

        Every row is bit-exact to its per-record simulation; see
        :meth:`FastErrorFeedbackSimulator.simulate_batch`.
        """
        return self.fast_simulator.simulate_batch(u)

    @property
    def fast_simulator(self) -> FastErrorFeedbackSimulator:
        """The exact recursive-loop engine (built on first use)."""
        if self._fast_simulator is None:
            self._fast_simulator = FastErrorFeedbackSimulator(self.ntf,
                                                              self.quantizer)
        return self._fast_simulator

    # ------------------------------------------------------------------
    # Maximum stable amplitude
    # ------------------------------------------------------------------
    def estimate_msa(self, n_samples: int = 8192, amplitude_grid: Optional[np.ndarray] = None,
                     frequency_hz: Optional[float] = None) -> float:
        """Empirically estimate the maximum stable amplitude.

        The modulator is driven with tones of increasing amplitude; the MSA
        is the largest amplitude for which the loop remains stable (bounded
        quantizer input and no saturation-dominated behaviour).  The paper
        reports MSA = 0.81 of full scale for the 5th-order design.

        The whole amplitude grid runs as **one batched simulation**
        (:meth:`simulate_batch` — every amplitude is a row of the batch,
        one call into the compiled kernel); the first-failure rule then
        picks the last acceptable amplitude before the first failing one.
        """
        if amplitude_grid is None:
            amplitude_grid = np.linspace(0.5, 1.0, 26)
        if frequency_hz is None:
            frequency_hz = self.signal_bandwidth_hz / 8.0
        from repro.dsm.signals import coherent_tone

        tones = np.stack([
            coherent_tone(frequency_hz, float(a), self.sample_rate_hz, n_samples)
            for a in amplitude_grid])
        batch = self.simulate_batch(tones)
        sat_fraction = np.mean(
            self.quantizer.is_saturating(batch.quantizer_input), axis=1)
        acceptable = batch.stable & (sat_fraction < 0.2)
        last_stable = 0.0
        for amplitude, ok in zip(amplitude_grid, acceptable):
            if not ok:
                break
            last_stable = float(amplitude)
        return last_stable

    def predicted_sqnr_db(self, input_amplitude: float = 0.81) -> float:
        """Linear-model SQNR prediction at the given input amplitude."""
        return self.ntf.predicted_sqnr_db(self.quantizer.levels, input_amplitude, self.osr)

