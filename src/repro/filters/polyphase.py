"""Polyphase decimation structures.

The paper notes that CIC/sinc decimators "can be implemented in a number of
ways by employing polyphase structures" (Section I, refs. [6], [7]).  The
polyphase decomposition is also what makes FIR decimators efficient: with a
decimation factor of M only every M-th output is computed, so each input
sample passes through exactly one of the M sub-filters running at the output
rate.

This module hosts the bit-true engine shared by every FIR-shaped stage of
the chain (:class:`BitTrueFIRStage`).  Its fast path,
:func:`convolve_strided_matmul`, evaluates the decimated convolution by
assembling a strided window matrix (a zero-copy reshape of the delay line)
and taking one matrix-vector product, which is exactly the polyphase
identity "only every M-th output is computed" expressed as a matmul.  On
integer inputs the product is computed in ``int64`` and is exact as long
as the accumulator provably fits (:func:`int64_accumulator_safe`);
otherwise the stage runs its arbitrary-precision gold model.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Accumulators are considered int64-safe below this magnitude bound.
INT64_SAFE_BOUND = 1 << 62


def max_abs_int(samples: np.ndarray) -> int:
    """Largest absolute value of an integer array, exact for ``-2**63``.

    ``np.abs`` overflows on the most negative int64 (it maps back to
    itself), so the magnitude is taken from the extrema in Python integers
    instead.  Works on any shape, including empty ``(batch, 0)`` arrays.
    """
    if samples.size == 0:
        return 0
    return max(int(samples.max()), -int(samples.min()), 0)


def int64_accumulator_safe(samples: np.ndarray, abs_multiplier_sum: int) -> bool:
    """Whether a sum of products of ``samples`` with multipliers of total
    absolute magnitude ``abs_multiplier_sum`` provably fits ``int64``.

    The capability check behind every FIR-shaped stage's fast path:
    object-dtype or float inputs are never int64-safe, integer inputs are
    safe when the worst-case accumulator ``abs_multiplier_sum * max|x|``
    stays below :data:`INT64_SAFE_BOUND`.
    """
    if samples.dtype == object or not np.issubdtype(samples.dtype, np.integer):
        return False
    return abs_multiplier_sum * max_abs_int(samples) < INT64_SAFE_BOUND


def convolve_strided_matmul(samples: np.ndarray, taps: np.ndarray,
                            offset: int = 0, step: int = 1,
                            count: Optional[int] = None) -> np.ndarray:
    """Strided samples of ``np.convolve(samples, taps)`` via reshape + matmul.

    Returns ``full[offset], full[offset + step], …`` (``count`` values) of
    the full linear convolution, computed by building the strided window
    matrix ``W[j] = padded[offset + j*step : offset + j*step + L]`` — a
    zero-copy view — and evaluating one matrix-vector product
    ``W @ taps[::-1]``.  Only the requested outputs are computed, which is
    the polyphase-decimator work saving (``len(taps)/step`` multiplies per
    output).

    ``count`` defaults to every index below ``len(samples)`` (the block
    semantics used throughout the chain: "filter then keep every step-th
    sample", discarding the convolution tail).  The dtype follows numpy
    promotion: integer inputs stay integer (exact if the accumulator fits
    the dtype), float inputs produce floats.

    ``samples`` may also be a 2-D ``(batch, n)`` array: each row is
    convolved independently (same windows, same matmul) and the result has
    shape ``(batch, count)``.  Row ``b`` of the batched output is bit-exact
    to the 1-D call on ``samples[b]`` — the windows are assembled per row
    and the integer (or elementwise float) matmul does not mix rows.
    """
    x = np.asarray(samples)
    t = np.asarray(taps)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("taps must be a non-empty 1-D array")
    if x.ndim not in (1, 2):
        raise ValueError("samples must be a 1-D record or a 2-D (batch, n) array")
    if step < 1:
        raise ValueError("step must be at least 1")
    if offset < 0:
        raise ValueError("offset must be non-negative")
    n = x.shape[-1]
    length = len(t)
    if count is None:
        count = max(0, -(-(n - offset) // step))
    if count == 0:
        shape = (0,) if x.ndim == 1 else (x.shape[0], 0)
        return np.zeros(shape, dtype=np.result_type(x, t))
    last = offset + (count - 1) * step
    # Left-pad by L-1 so window i starts at full-convolution index i; right-pad
    # so the last requested window exists (np.convolve's implicit zeros).
    pad_right = max(0, last - (n - 1))
    pad = [(0, 0)] * (x.ndim - 1) + [(length - 1, pad_right)]
    padded = np.pad(x, pad)
    windows = sliding_window_view(padded, length, axis=-1)
    windows = windows[..., offset:last + 1:step, :]
    return windows @ t[::-1]


class BitTrueFIRStage:
    """Bit-true engine shared by the FIR-shaped stages of the chain.

    Output ``j`` of a block is ``round(full[offset + j*step] /
    2**coefficient_bits)`` with ``full = np.convolve(x, taps)`` over the
    integer taps; subclasses provide ``_int_taps`` (an ``int64`` array),
    ``_abs_tap_sum``, ``coefficient_bits`` and :meth:`_output_window`.
    :meth:`process` evaluates only the kept outputs with one ``int64``
    strided matmul (:func:`convolve_strided_matmul`) whenever
    :func:`int64_accumulator_safe` holds, and otherwise runs the
    arbitrary-precision gold model :meth:`_process_reference`.  The two are
    bit-exact, differing only in dtype (``int64`` vs object).
    """

    _int_taps: np.ndarray
    _abs_tap_sum: int
    coefficient_bits: int

    def _output_window(self, n: int) -> Tuple[int, int, int]:
        """``(offset, step, count)`` of the kept outputs for ``n`` inputs."""
        raise NotImplementedError

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Bit-true filtering/decimation of a block of integer samples.

        ``samples`` may be a 1-D record or a 2-D ``(batch, n)`` array of
        independent records; row ``b`` of a batched result is bit-exact to
        the 1-D call on ``samples[b]``.
        """
        samples = np.asarray(samples)
        if not int64_accumulator_safe(samples, self._abs_tap_sum):
            if samples.ndim == 2:
                return np.stack([self._process_reference(row) for row in samples])
            return self._process_reference(samples)
        offset, step, count = self._output_window(samples.shape[-1])
        full = convolve_strided_matmul(
            samples.astype(np.int64, copy=False), self._int_taps,
            offset=offset, step=step, count=count)
        full += 1 << (self.coefficient_bits - 1)
        full >>= self.coefficient_bits
        return full

    def _process_reference(self, samples: np.ndarray) -> np.ndarray:
        """Gold model: the full convolution in Python integers (1-D only)."""
        if len(samples) == 0:
            return np.zeros(0, dtype=np.int64)
        offset, step, count = self._output_window(len(samples))
        ints = np.array([int(v) for v in samples.tolist()], dtype=object)
        taps = np.array(self._int_taps.tolist(), dtype=object)
        kept = np.convolve(ints, taps)[offset:offset + count * step:step]
        half = 1 << (self.coefficient_bits - 1)
        return np.array([(int(v) + half) >> self.coefficient_bits for v in kept],
                        dtype=object)
