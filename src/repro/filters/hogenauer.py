"""Bit-true Hogenauer (CIC) implementation of the Sinc^K decimator.

Fig. 6 of the paper: K accumulators clocked at the input rate ``fs``,
followed by the rate change and K differentiators clocked at ``fs/M``.
The registers use wrap-around two's-complement arithmetic of width
``Bmax = K*log2(M) + Bin - 1`` (Eq. 2), which guarantees a correct output in
spite of intermediate overflow.  Two hardware optimizations from the paper
are modelled because they matter for the power estimate:

* **retiming** — a register in the forward path of each accumulator stops
  adder glitches from propagating into the next stage (reduces switching
  activity, modelled by the power estimator);
* **pipelining** — a register clocked at ``fs/M`` after the accumulator
  cascade prevents the fast-clock data from toggling the slower
  differentiator logic.

Functionally both optimizations only add latency; the bit-true output is
unchanged, which the test suite verifies.

Simulation engines
------------------
Every call of :meth:`HogenauerDecimator.process` filters one record from
cleared registers: the stage holds no state between calls, so one stage
(and one designed chain) can serve any number of callers and threads.
The numpy fast path runs whenever it can: the K integrators are K
cumulative sums, the rate change is a strided slice, and the K combs are
vectorized first differences.  All arithmetic runs in ``uint64`` (i.e.
modulo 2**64); because every operation is an addition or subtraction, the
results stay congruent to the register contents modulo ``2**width``, so
the final wrap to the register width reproduces the wrap-around
two's-complement hardware exactly.  Registers wider than 62 bits run the
sample-by-sample gold model of the register-transfer structure instead.
:meth:`HogenauerDecimator.process_batch` runs independent records through
the compiled kernel of :mod:`repro._native` instead, or through the
vectorized engine row by row where no kernel can be built.

Switching-activity tracing (:meth:`HogenauerDecimator.process_traced`, the
power model's path) returns the record's toggle counts with its output,
counted on the engine the record runs on.  On the fast path the
integrator node histories are the cumulative sums and the comb node
histories the first differences; each node's toggles are the popcount of
``(x[n] ^ x[n-1]) & mask``, the value before the record taken as 0, as the
gold model does.  The two traces are pinned equal node for node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import _native
from repro.filters.polyphase import max_abs_int
from repro.filters.sinc import SincFilter, SincFilterSpec

#: Widest register for which the vectorized engine (and plain int64 output
#: arrays) can be used; wider words fall back to Python integers.
_MAX_INT64_WIDTH = 62

_MASK64 = (1 << 64) - 1


def wrap_twos_complement(value, total_bits: int):
    """Wrap an integer (or integer array) into the two's-complement range
    ``[-2**(total_bits-1), 2**(total_bits-1) - 1]`` of a ``total_bits``-wide
    register, the overflow rule of every Hogenauer register (Eq. 2)."""
    if total_bits <= 0:
        raise ValueError("total_bits must be positive")
    modulus = 1 << total_bits
    half = 1 << (total_bits - 1)
    if isinstance(value, np.ndarray):
        return np.mod(value + half, modulus) - half
    return ((int(value) + half) % modulus) - half


@dataclass(frozen=True)
class HogenauerConfig:
    """Implementation options for the Hogenauer structure."""

    retimed: bool = True
    pipelined: bool = True
    #: Extra guard bits on top of Eq. (2); zero reproduces the paper.
    guard_bits: int = 0


@dataclass(frozen=True)
class HogenauerTrace:
    """Per-node switching activity of one record, used by the power model.

    ``toggles[node]`` counts the bit transitions observed at that node
    over the record's ``samples`` inputs; the power model converts these
    into dynamic energy.
    """

    samples: int
    toggles: dict

    @classmethod
    def from_counts(cls, samples: int, counts: List[int]) -> "HogenauerTrace":
        """The trace of ``samples`` inputs whose ``counts`` hold the toggle
        counts of the K integrators, then of the K combs."""
        k = len(counts) // 2
        toggles = {}
        for i in range(k):
            toggles[f"integrator{i}"] = counts[i]
            toggles[f"comb{i}"] = counts[k + i]
        return cls(samples, toggles)

    def activity(self, node: str, width: int) -> float:
        """Average toggle probability per bit per clock for a node."""
        if self.samples == 0 or width == 0:
            return 0.0
        return self.toggles.get(node, 0) / (self.samples * width)


def _count_toggles(previous: np.ndarray, current: np.ndarray, width: int) -> int:
    """Number of bit transitions between two equal-length integer vectors."""
    previous = np.asarray(previous)
    current = np.asarray(current)
    if width <= _MAX_INT64_WIDTH and previous.dtype != object and current.dtype != object:
        # Native path: xor the two's-complement bit patterns, then popcount.
        xor = (previous.astype(np.uint64, copy=False)
               ^ current.astype(np.uint64, copy=False))
        xor &= np.uint64((1 << width) - 1)
        return int(np.bitwise_count(xor).sum())
    mask = (1 << width) - 1
    xor = (previous.astype(object) ^ current.astype(object)) & mask
    return int(sum(bin(int(v)).count("1") for v in xor))


def _toggle_count_series(values: np.ndarray, width: int) -> int:
    """Total bit transitions along a node's value sequence, starting from 0."""
    previous = np.zeros_like(values)
    previous[1:] = values[:-1]
    return _count_toggles(previous, values, width)


@dataclass(frozen=True)
class HogenauerDecimator:
    """Bit-true multirate Sinc^K decimate-by-M filter (Fig. 6).

    The filter consumes integer samples (two's complement, ``input_bits``
    wide) and produces integer samples of ``register_bits`` width.  The DC
    gain is ``M**K``; callers that need unity gain divide by
    ``2**(K*log2(M))`` afterwards (the chain keeps track of this scaling).
    The stage is immutable and keeps no state between calls.
    """

    spec: SincFilterSpec
    config: HogenauerConfig = HogenauerConfig()

    @property
    def width(self) -> int:
        """Register width: Eq. (2) plus the configured guard bits."""
        return self.spec.register_bits + self.config.guard_bits

    def coefficient_fingerprint(self) -> dict:
        """JSON-safe identity of everything that determines the output words.

        The Hogenauer structure is multiplierless — its "coefficients" are
        the structural parameters (order, decimation, register width), which
        is why the :mod:`repro.robustness` coefficient-perturbation axes
        leave Sinc stages untouched: there is no coefficient ROM to dither
        and no CSD term to drop.  The fingerprint still participates in the
        robustness cache keys so a chain's perturbable state is fully
        described by its per-stage fingerprints.
        """
        return {"kind": "hogenauer", "order": int(self.spec.order),
                "decimation": int(self.spec.decimation),
                "input_bits": int(self.spec.input_bits),
                "register_bits": int(self.spec.register_bits)}

    # ------------------------------------------------------------------
    # Block processing
    # ------------------------------------------------------------------
    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter and decimate one record of integer input samples.

        Parameters
        ----------
        samples:
            Integer input samples; values must fit in ``input_bits`` signed
            bits (they are wrapped otherwise, as real hardware would).

        Returns
        -------
        numpy.ndarray
            Integer output samples at ``input_rate / M``, computed from
            cleared registers.
        """
        return self._run(samples, None)

    def process_traced(self, samples: np.ndarray) -> Tuple[np.ndarray, HogenauerTrace]:
        """:meth:`process` plus the record's per-node toggle counts, for
        the power model."""
        toggles = [0] * (2 * self.spec.order)
        out = self._run(samples, toggles)
        return out, HogenauerTrace.from_counts(len(samples), toggles)

    def _run(self, samples: np.ndarray,
             toggles: Optional[List[int]]) -> np.ndarray:
        """Validate ``samples`` and run the engine their register width
        allows, counting toggles into ``toggles`` when it is a list."""
        samples = np.asarray(samples)
        if samples.dtype != object and not np.issubdtype(samples.dtype, np.integer):
            raise TypeError("HogenauerDecimator processes integer samples; "
                            "quantize the input first")
        if self.width > _MAX_INT64_WIDTH:
            return self._process_reference(samples, toggles)
        return self._process_vectorized(samples, toggles=toggles)

    def _process_reference(self, samples: np.ndarray,
                           toggles: Optional[List[int]] = None) -> np.ndarray:
        """Gold model: sample-by-sample register-transfer simulation.

        ``toggles``, a list of 2·K zeros, receives the toggle count of
        integrator ``i`` at ``i`` and of comb ``i`` at ``K + i``.
        """
        k = self.spec.order
        m = self.spec.decimation
        width = self.width
        outputs: List[int] = []
        integrators = [0] * k
        comb_delays = [0] * k
        phase = 0
        # Node-value histories for the (vectorized) toggle counting; each
        # node's value before the record is 0.
        node_history: Optional[List[List[int]]] = None
        if toggles is not None:
            node_history = [[] for _ in range(2 * k)]

        for raw in samples.tolist():
            value = wrap_twos_complement(int(raw), width)
            # Integrator cascade at the input rate.  The retiming register in
            # each accumulator only affects glitch power, not the transfer
            # function, so the functional model is the plain accumulation.
            for i in range(k):
                integrators[i] = wrap_twos_complement(integrators[i] + value, width)
                value = integrators[i]
                if node_history is not None:
                    node_history[i].append(value)
            phase += 1
            if phase < m:
                continue
            phase = 0
            # The pipeline register between the fast and slow sections.
            diff_value = value
            for i in range(k):
                new_value = wrap_twos_complement(diff_value - comb_delays[i], width)
                comb_delays[i] = diff_value
                diff_value = new_value
                if node_history is not None:
                    node_history[k + i].append(diff_value)
            outputs.append(diff_value)

        dtype = object if width > _MAX_INT64_WIDTH else np.int64
        if toggles is not None:
            toggles[:] = [_toggle_count_series(np.array(history, dtype=dtype), width)
                          for history in node_history]
        return np.array(outputs, dtype=dtype)

    def _process_vectorized(self, samples: np.ndarray, offset: int = 0,
                            toggles: Optional[List[int]] = None) -> np.ndarray:
        """Cumsum/strided-slice evaluation, bit-exact to the reference.

        All additions run modulo 2**64 in ``uint64``; since the reference
        only ever wraps (never saturates), every intermediate value is
        congruent modulo ``2**width`` and the single final wrap recovers the
        exact register contents.  ``offset`` is subtracted from every
        sample as it is read, so the input is ``samples - offset``.
        ``toggles``, a list of 2·K zeros, receives the record's toggle
        count of integrator ``i`` at ``i`` and of comb ``i`` at ``K + i``,
        counted on the same congruent words.
        """
        k = self.spec.order
        m = self.spec.decimation
        width = self.width
        if samples.dtype == object:
            # Arbitrary-precision inputs are wrapped to the register width up
            # front — the gold model does the same before accumulating,
            # so this is exact (and the wrapped values fit int64).
            samples = np.array([wrap_twos_complement(int(v), width)
                                for v in samples.tolist()], dtype=np.int64)
        x = samples.astype(np.int64).astype(np.uint64)
        if offset:
            x -= np.uint64(offset & _MASK64)

        # K integrators = K cumulative sums from cleared registers.
        for i in range(k):
            x = np.cumsum(x, dtype=np.uint64)
            if toggles is not None:
                toggles[i] = _toggle_count_series(x, width)

        # Rate change: the reference emits at every M-th input sample.
        dec = x[m - 1::m]

        # K combs = vectorized first differences from cleared delays.
        for i in range(k):
            dec = np.diff(dec, prepend=np.uint64(0))
            if toggles is not None:
                toggles[k + i] = _toggle_count_series(dec, width)

        # Single final wrap to the register width.
        modulus = 1 << width
        wrapped = dec & np.uint64(modulus - 1)
        out = wrapped.astype(np.int64)
        out[wrapped >= np.uint64(modulus >> 1)] -= modulus
        return out

    def process_batch(self, samples: np.ndarray, offset: int = 0) -> np.ndarray:
        """Filter and decimate a ``(batch, n)`` array of independent records.

        Row ``b`` of the result is bit-exact to ``process(samples[b] -
        offset)``; the offset is subtracted as the samples are read, so
        the modulator's codes need no signed copy.
        The compiled kernel runs the K wrap-around integrators, the rate
        change and the K combs per row and writes only the ``n // M``
        output words; without it each row runs through the vectorized
        engine.

        Requires a register width the vectorized engine supports
        (≤ 62 bits); wider configurations must loop :meth:`process`.
        """
        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise ValueError("process_batch expects a 2-D (batch, n) array")
        if samples.dtype != object and not np.issubdtype(samples.dtype, np.integer):
            raise TypeError("HogenauerDecimator processes integer samples; "
                            "quantize the input first")
        width = self.width
        if width > _MAX_INT64_WIDTH:
            raise ValueError(
                f"batch processing supports register widths up to "
                f"{_MAX_INT64_WIDTH} bits (got {width}); loop process() "
                f"instead")
        if samples.dtype == object:
            samples = np.array([[wrap_twos_complement(int(v), width) for v in row]
                                for row in samples.tolist()],
                               dtype=np.int64).reshape(samples.shape)
        samples = np.ascontiguousarray(samples, dtype=np.int64)
        k = self.spec.order
        m = self.spec.decimation
        batch, n = samples.shape
        out = np.empty((batch, n // m), dtype=np.int64)
        library = _native.load()
        if library is None:
            for b, row in enumerate(samples):
                out[b] = self._process_vectorized(row, offset)
        else:
            # The kernel takes addresses: ``samples`` is a C-contiguous
            # int64 (batch, n) array (made so above), ``out`` is made here.
            registers = np.zeros(2 * k, dtype=np.uint64)
            library.cic_decimate(samples.ctypes.data, offset & _MASK64, batch,
                                 n, k, m, width, registers.ctypes.data,
                                 out.ctypes.data)
        return out

    # ------------------------------------------------------------------
    # Reference / verification helpers
    # ------------------------------------------------------------------
    def reference_output(self, samples: np.ndarray) -> np.ndarray:
        """Polyphase FIR reference computed in exact integer arithmetic.

        Convolving the input with the boxcar^K impulse response and keeping
        every M-th sample must produce exactly the same values as the
        wrap-around Hogenauer structure (after wrapping to the register
        width); the tests use this as the gold model.  The convolution runs
        in ``int64`` when the exact partial sums provably fit (the common
        case) and falls back to arbitrary-precision Python integers
        otherwise.
        """
        taps = SincFilter(self.spec).impulse_response(normalized=False)
        samples = np.asarray(samples)
        tap_sum = int(round(float(np.sum(taps))))  # = M**K, all taps positive
        if samples.dtype != object and np.issubdtype(samples.dtype, np.integer):
            max_abs = max_abs_int(samples.astype(np.int64))
        else:
            max_abs = max((abs(int(v)) for v in samples.tolist()), default=0)
        int64_safe = (self.width <= _MAX_INT64_WIDTH
                      and tap_sum * max_abs < (1 << _MAX_INT64_WIDTH))
        if int64_safe:
            full = np.convolve(samples.astype(np.int64),
                               np.round(taps).astype(np.int64))
        else:
            int_taps = np.array([int(round(float(t))) for t in taps], dtype=object)
            obj = np.array([int(v) for v in samples.tolist()], dtype=object)
            full = np.convolve(obj, int_taps)
        decimated = full[self.spec.decimation - 1::self.spec.decimation]
        decimated = decimated[:max(0, (len(samples)) // self.spec.decimation)]
        if int64_safe:
            return wrap_twos_complement(decimated, self.width).astype(np.int64)
        return np.array([wrap_twos_complement(int(v), self.width) for v in decimated],
                        dtype=object if self.width > _MAX_INT64_WIDTH else np.int64)

    # ------------------------------------------------------------------
    # Hardware accounting (consumed by repro.hardware)
    # ------------------------------------------------------------------
    def resource_summary(self) -> dict:
        """Adder/register resources of this stage for the area/power model."""
        k = self.spec.order
        width = self.width
        registers = k * width  # integrators
        registers += k * width  # comb delays
        if self.config.retimed:
            registers += k * width  # retiming registers in the accumulators
        if self.config.pipelined:
            registers += width  # pipeline register at the rate boundary
        adders = 2 * k  # one adder per integrator, one subtractor per comb
        return {
            "label": self.spec.label or f"Sinc{k}",
            "adders": adders,
            "adder_bits": adders * width,
            "registers": registers,
            "register_bits": registers,
            "word_width": width,
            "fast_clock_hz": self.spec.input_rate_hz,
            "slow_clock_hz": self.spec.output_rate_hz,
            "fast_adders": k,
            "slow_adders": k,
            "retimed": self.config.retimed,
            "pipelined": self.config.pipelined,
        }

