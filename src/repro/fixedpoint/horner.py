"""Nested (Horner-rule) evaluation of CSD constant multiplications.

The scaling stage multiplies every sample by the constant ``S = 10.825``
(slightly below ``1/MSA``).  The paper implements this multiplication with
the coefficient CSD-encoded and factored with nested Horner's rule so that
each partial result re-uses the previous one, minimizing adder width and
switching activity (Section VI, refs. [3], [14]).

``horner_decomposition`` turns a CSD code into an ordered list of
shift-and-add steps; ``horner_evaluate`` executes those steps, one adder
per step, as the scaler's hardware does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.fixedpoint.csd import CSDCode


@dataclass(frozen=True)
class HornerStep:
    """One nested step ``acc = acc * 2**shift + sign * x``.

    ``shift`` is the number of bit positions between this non-zero CSD digit
    and the next one (always positive except possibly for the final
    alignment step), ``sign`` is the digit value (+1/-1).
    """

    shift: int
    sign: int


def horner_decomposition(code: CSDCode) -> List[HornerStep]:
    """Decompose a CSD code into Horner steps.

    The encoded value ``sum(sign_i * 2**w_i)`` with weights sorted in
    descending order ``w_0 > w_1 > ... > w_n`` is rewritten as::

        (((sign_0 * x) * 2**(w_0-w_1) + sign_1 * x) * 2**(w_1-w_2) + ...) * 2**w_n

    The returned list contains one :class:`HornerStep` per non-zero digit;
    the final element's ``shift`` is the weight of the least-significant
    digit (the overall alignment shift applied after the last addition).
    """
    if not code.digits:
        return []
    digits = sorted(code.digits, key=lambda d: -d[0])
    steps: List[HornerStep] = []
    for i, (weight, sign) in enumerate(digits):
        if i + 1 < len(digits):
            next_weight = digits[i + 1][0]
            steps.append(HornerStep(shift=weight - next_weight, sign=sign))
        else:
            steps.append(HornerStep(shift=weight, sign=sign))
    return steps


def horner_evaluate(x: float, steps: Sequence[HornerStep]) -> float:
    """Evaluate the Horner decomposition on a sample ``x``.

    Equivalent to multiplying ``x`` by the original coefficient, but carried
    out exactly as the nested shift-add hardware would.
    """
    if not steps:
        return 0.0
    acc = 0.0
    for step in steps:
        acc = (acc + step.sign * x) * (2.0 ** step.shift)
    return acc


def horner_adder_count(steps: Sequence[HornerStep]) -> int:
    """Number of adders used by the Horner-rule implementation."""
    return max(0, len(steps) - 1)
