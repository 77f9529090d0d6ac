"""Specification dataclasses (Table I of the paper).

The design flow starts from two small specifications: the modulator that
produces the bit-stream, and the mask the decimation filter must satisfy.
Both are captured here as plain dataclasses with derived quantities and
validation, so the rest of the library never re-derives rates or band edges
ad hoc.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple, TypeVar

T = TypeVar("T")
_MISSING = object()


@dataclass(frozen=True)
class ModulatorSpec:
    """Delta-sigma modulator parameters (left column of Table I)."""

    order: int = 5
    out_of_band_gain: float = 3.0
    bandwidth_hz: float = 20e6
    sample_rate_hz: float = 640e6
    osr: int = 16
    quantizer_bits: int = 4
    msa: float = 0.81
    target_snr_db: float = 86.0

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("modulator order must be positive")
        if self.osr < 2:
            raise ValueError("OSR must be at least 2")
        if self.sample_rate_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("rates must be positive")
        if not 0.0 < self.msa <= 1.0:
            raise ValueError("MSA must lie in (0, 1]")
        if self.quantizer_bits < 1:
            raise ValueError("quantizer must have at least one bit")
        expected_rate = 2.0 * self.bandwidth_hz * self.osr
        if abs(expected_rate - self.sample_rate_hz) / self.sample_rate_hz > 0.01:
            raise ValueError(
                f"inconsistent spec: fs={self.sample_rate_hz/1e6:.1f} MHz but "
                f"2*BW*OSR={expected_rate/1e6:.1f} MHz"
            )

    @property
    def nyquist_rate_hz(self) -> float:
        """Nyquist (decimated output) rate of the ADC: ``fs / OSR``."""
        return self.sample_rate_hz / self.osr

    @property
    def resolution_bits(self) -> float:
        """Target resolution implied by the SNR target ((SNR-1.76)/6.02)."""
        return (self.target_snr_db - 1.76) / 6.02

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the specification fields (a
        fresh one per call)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModulatorSpec":
        """Rebuild a :class:`ModulatorSpec` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class DecimationFilterSpec:
    """Decimation filter requirements (right column of Table I)."""

    input_bits: int = 4
    passband_ripple_db: float = 1.0
    passband_edge_hz: float = 20e6
    stopband_edge_hz: float = 23e6
    stopband_attenuation_db: float = 85.0
    output_rate_hz: float = 40e6
    target_snr_db: float = 86.0
    output_bits: int = 14

    def __post_init__(self) -> None:
        if self.input_bits < 1:
            raise ValueError("input word length must be at least one bit")
        if self.passband_edge_hz >= self.stopband_edge_hz:
            raise ValueError("passband edge must be below the stopband edge")
        if self.passband_ripple_db <= 0:
            raise ValueError("passband ripple budget must be positive")
        if self.stopband_attenuation_db <= 0:
            raise ValueError("stopband attenuation must be positive")
        if self.output_rate_hz <= 0:
            raise ValueError("output rate must be positive")
        if self.passband_edge_hz > self.output_rate_hz / 2.0 + 1e-9:
            raise ValueError("passband edge cannot exceed the output Nyquist rate")

    @property
    def transition_band_hz(self) -> float:
        """Width of the transition band between passband and stopband edges."""
        return self.stopband_edge_hz - self.passband_edge_hz

    @property
    def output_nyquist_hz(self) -> float:
        """Half the output rate — the edge of the representable output band."""
        return self.output_rate_hz / 2.0

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the specification fields (a
        fresh one per call)."""
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DecimationFilterSpec":
        """Rebuild a :class:`DecimationFilterSpec` from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class ChainSpec:
    """Complete specification of a decimation chain design problem."""

    modulator: ModulatorSpec = field(default_factory=ModulatorSpec)
    decimator: DecimationFilterSpec = field(default_factory=DecimationFilterSpec)

    def __post_init__(self) -> None:
        expected_output = self.modulator.nyquist_rate_hz
        if abs(expected_output - self.decimator.output_rate_hz) / expected_output > 0.01:
            raise ValueError(
                "decimator output rate does not match the modulator Nyquist rate"
            )
        if self.decimator.input_bits != self.modulator.quantizer_bits:
            raise ValueError(
                "decimator input word length must equal the modulator quantizer width"
            )

    @property
    def total_decimation(self) -> int:
        """Overall decimation factor (input rate over output rate)."""
        ratio = self.modulator.sample_rate_hz / self.decimator.output_rate_hz
        rounded = int(round(ratio))
        if abs(ratio - rounded) > 1e-6:
            raise ValueError("sample-rate ratio must be an integer decimation factor")
        return rounded

    @property
    def num_halving_stages(self) -> int:
        """Number of decimate-by-2 stages needed (log2 of the total factor)."""
        total = self.total_decimation
        stages = int(round(math.log2(total)))
        if 2 ** stages != total:
            raise ValueError("total decimation factor must be a power of two "
                             "for the halving-stage architecture")
        return stages

    # ------------------------------------------------------------------
    # Serialization / hashing (the sweep subsystem's cache keys)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable nested dictionary of the full specification."""
        return {"modulator": self.modulator.to_dict(),
                "decimator": self.decimator.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "ChainSpec":
        """Rebuild a :class:`ChainSpec` from :meth:`to_dict` output."""
        return cls(modulator=ModulatorSpec.from_dict(data["modulator"]),
                   decimator=DecimationFilterSpec.from_dict(data["decimator"]))

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the specification content.

        Two :class:`ChainSpec` instances with equal field values hash
        identically regardless of construction order; the digest keys the
        on-disk result cache of :mod:`repro.explore`.  It is derived once
        per spec value (:func:`derived_hash`).
        """
        return derived_hash(("spec", self), self.to_dict)

    def derive(self, osr: Optional[int] = None,
               bandwidth_hz: Optional[float] = None,
               output_bits: Optional[int] = None,
               stopband_attenuation_db: Optional[float] = None) -> "ChainSpec":
        """Retarget this specification along the common sweep axes.

        Keeps the spec self-consistent while changing high-level targets:
        the sample rate follows ``2 * bandwidth * OSR``, the output rate
        follows the new Nyquist rate, and the filter band edges scale
        proportionally with the bandwidth (the paper's passband edge equals
        the signal bandwidth; the stopband edge keeps its relative offset).

        Parameters
        ----------
        osr:
            New oversampling ratio (must remain a power of two for the
            halving-stage architecture — enforced lazily by
            :attr:`num_halving_stages`).
        bandwidth_hz:
            New signal bandwidth; band edges and rates scale with it.
        output_bits:
            New output word width.
        stopband_attenuation_db:
            New stopband-attenuation (halfband ripple) requirement.
        """
        mod = self.modulator
        dec = self.decimator
        new_bw = bandwidth_hz if bandwidth_hz is not None else mod.bandwidth_hz
        new_osr = osr if osr is not None else mod.osr
        scale = new_bw / mod.bandwidth_hz
        new_mod = ModulatorSpec(
            order=mod.order,
            out_of_band_gain=mod.out_of_band_gain,
            bandwidth_hz=new_bw,
            sample_rate_hz=2.0 * new_bw * new_osr,
            osr=new_osr,
            quantizer_bits=mod.quantizer_bits,
            msa=mod.msa,
            target_snr_db=mod.target_snr_db,
        )
        new_dec = DecimationFilterSpec(
            input_bits=dec.input_bits,
            passband_ripple_db=dec.passband_ripple_db,
            passband_edge_hz=dec.passband_edge_hz * scale,
            stopband_edge_hz=dec.stopband_edge_hz * scale,
            stopband_attenuation_db=(stopband_attenuation_db
                                     if stopband_attenuation_db is not None
                                     else dec.stopband_attenuation_db),
            output_rate_hz=2.0 * new_bw,
            target_snr_db=dec.target_snr_db,
            output_bits=(output_bits if output_bits is not None
                         else dec.output_bits),
        )
        return ChainSpec(modulator=new_mod, decimator=new_dec)


def field_dict(value) -> dict:
    """A frozen dataclass's fields as a fresh, shallow ``{name: value}``
    dict: equal to :func:`dataclasses.asdict` for fields that are scalars
    or tuples of scalars, without its recursive deep copy."""
    return {name: getattr(value, name) for name in _field_names(type(value))}


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def canonical_json(data: object) -> str:
    """Canonical JSON encoding used for content hashing.

    Keys are sorted and separators fixed so that logically equal payloads
    always produce byte-identical text (and therefore identical digests).
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data: object) -> str:
    """SHA-256 hex digest of a JSON-serializable payload (canonical form)."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


#: Bound of the process-wide :func:`derive_once` memo (oldest out first).
DERIVED_ENTRIES = 1024

_DERIVED: Dict[str, object] = {}
_DERIVED_LOCK = threading.Lock()


def derive_once(values: tuple, compute: Callable[[], T],
                memo: Optional[Dict[str, object]] = None) -> T:
    """``compute()``, computed once per ``values``.

    ``values`` are the immutable inputs ``compute`` reads (frozen specs
    and options, scalars, a stage name first), so a served store hit
    re-derives nothing it derived before, even from a freshly parsed spec.
    The result must be immutable: every caller gets the same one.  The memo
    is keyed by ``repr(values)``, not by equality: ``1 == 1.0 == True``
    and ``0.0 == -0.0`` compare equal but encode to different JSON, while
    a frozen dataclass's repr spells every field with its type.  ``memo``
    is an owner's own dict (an immutable chain keeps one); by default the
    result goes to a process-wide memo bounded by :data:`DERIVED_ENTRIES`.
    """
    key = repr(values)
    results = _DERIVED if memo is None else memo
    result = results.get(key, _MISSING)
    if result is _MISSING:
        result = compute()
        if memo is not None:
            memo[key] = result
            return result
        with _DERIVED_LOCK:
            while len(_DERIVED) >= DERIVED_ENTRIES:
                del _DERIVED[next(iter(_DERIVED))]
            _DERIVED[key] = result
    return result


def derived_hash(values: tuple, payload: Callable[[], object],
                 memo: Optional[Dict[str, object]] = None) -> str:
    """``content_hash(payload())``, computed once per ``values`` (see
    :func:`derive_once`): the store keys of frozen inputs."""
    return derive_once(values, lambda: content_hash(payload()), memo)


def paper_chain_spec() -> ChainSpec:
    """The exact Table I specification of the paper."""
    return ChainSpec(modulator=ModulatorSpec(), decimator=DecimationFilterSpec())


def standard_chain_spec(bandwidth_hz: float,
                        osr: int,
                        order: int = 5,
                        out_of_band_gain: Optional[float] = None,
                        quantizer_bits: int = 4,
                        msa: float = 0.81,
                        target_snr_db: float = 86.0,
                        output_bits: int = 14,
                        passband_ripple_db: float = 1.0,
                        passband_edge_hz: Optional[float] = None,
                        stopband_edge_hz: Optional[float] = None,
                        stopband_attenuation_db: float = 85.0) -> ChainSpec:
    """Build a self-consistent :class:`ChainSpec` for a named standard.

    This is the profile constructor behind :mod:`repro.scenarios`: every
    derived quantity follows the paper's conventions, so a profile is fully
    determined by its bandwidth, OSR and modulator order.  The sample rate
    is ``2 * bandwidth * OSR``, the output (Nyquist) rate is ``2 *
    bandwidth``, the passband edge defaults to the signal bandwidth and the
    stopband edge to the paper's 1.15x relative offset (23 MHz for the
    20 MHz Table I chain).

    Parameters
    ----------
    bandwidth_hz:
        Signal bandwidth of the standard (e.g. 20 MHz for LTE-20).
    osr:
        Oversampling ratio; must be a power of two for the halving-stage
        architecture (enforced lazily by :attr:`ChainSpec.num_halving_stages`).
    order:
        Modulator order; the designer sizes the last Sinc stage from it.
    out_of_band_gain:
        NTF out-of-band gain; defaults to the paper's 3.0 for orders >= 5
        and a conservative 1.7 for lower-order loops.
    quantizer_bits:
        Modulator quantizer width (equals the decimator input width).
    msa:
        Maximum stable amplitude of the modulator, in (0, 1].
    target_snr_db:
        End-to-end SNR target for both the modulator and the decimator.
    output_bits:
        Output word width of the decimation chain.
    passband_ripple_db:
        Passband ripple budget of the verification mask.
    passband_edge_hz:
        Mask passband edge; defaults to ``bandwidth_hz``.
    stopband_edge_hz:
        Mask stopband edge; defaults to ``1.15 * bandwidth_hz``.
    stopband_attenuation_db:
        Stopband/alias attenuation requirement of the mask.
    """
    sample_rate_hz = 2.0 * bandwidth_hz * osr
    if out_of_band_gain is None:
        out_of_band_gain = 3.0 if order >= 5 else 1.7
    modulator = ModulatorSpec(
        order=order,
        out_of_band_gain=out_of_band_gain,
        bandwidth_hz=bandwidth_hz,
        sample_rate_hz=sample_rate_hz,
        osr=osr,
        quantizer_bits=quantizer_bits,
        msa=msa,
        target_snr_db=target_snr_db,
    )
    decimator = DecimationFilterSpec(
        input_bits=quantizer_bits,
        passband_ripple_db=passband_ripple_db,
        passband_edge_hz=(passband_edge_hz if passband_edge_hz is not None
                          else bandwidth_hz),
        stopband_edge_hz=(stopband_edge_hz if stopband_edge_hz is not None
                          else 1.15 * bandwidth_hz),
        stopband_attenuation_db=stopband_attenuation_db,
        output_rate_hz=2.0 * bandwidth_hz,
        target_snr_db=target_snr_db,
        output_bits=output_bits,
    )
    return ChainSpec(modulator=modulator, decimator=decimator)


def audio_chain_spec() -> ChainSpec:
    """A 24 kHz-bandwidth audio-codec style spec (used by the audio example).

    Mirrors the kind of design the paper cites from early audio-band
    delta-sigma ADCs: OSR 64, 1-bit style modulator replaced here by a 4-bit
    one for consistency with the library's multi-bit decimator input.
    """
    modulator = ModulatorSpec(
        order=3,
        out_of_band_gain=1.5,
        bandwidth_hz=24e3,
        sample_rate_hz=3.072e6,
        osr=64,
        quantizer_bits=4,
        msa=0.9,
        target_snr_db=96.0,
    )
    decimator = DecimationFilterSpec(
        input_bits=4,
        passband_ripple_db=0.1,
        passband_edge_hz=21.6e3,
        stopband_edge_hz=26.4e3,
        stopband_attenuation_db=95.0,
        output_rate_hz=48e3,
        target_snr_db=96.0,
        output_bits=16,
    )
    return ChainSpec(modulator=modulator, decimator=decimator)
