"""Shared fixtures for the test suite.

The expensive design artefacts (the paper's chain, halfband, NTF, modulator
bit-streams) are built once per session and shared, so that the suite stays
fast while still exercising the real designed objects rather than toy
stand-ins.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def paper_ntf():
    """The paper's NTF: 5th order, OSR 16, out-of-band gain 3."""
    from repro.dsm import synthesize_ntf

    return synthesize_ntf(order=5, osr=16, h_inf=3.0)


@pytest.fixture(scope="session")
def paper_modulator(paper_ntf):
    """The paper's modulator built on the session NTF."""
    from repro.dsm import DeltaSigmaModulator, MultibitQuantizer

    return DeltaSigmaModulator(ntf=paper_ntf, quantizer=MultibitQuantizer(bits=4))


@pytest.fixture(scope="session")
def modulator_codes(paper_modulator):
    """A 16384-sample modulator code stream for a 2.5 MHz tone at 0.7 FS."""
    from repro.dsm import coherent_tone

    n = 16384
    tone = coherent_tone(2.5e6, 0.7, paper_modulator.sample_rate_hz, n)
    result = paper_modulator.simulate(tone)
    assert result.stable
    return result


@pytest.fixture(scope="session")
def paper_chain():
    """The designed paper chain (Table I spec, Fig. 5 architecture)."""
    from repro.core import design_paper_chain

    return design_paper_chain()


@pytest.fixture(scope="session")
def paper_halfband_design(paper_chain):
    """The Saramäki halfband designed inside the paper chain."""
    return paper_chain.halfband


@pytest.fixture(scope="session")
def paper_sinc_cascade_fixture(paper_chain):
    """The Sinc4/Sinc4/Sinc6 cascade designed inside the paper chain."""
    return paper_chain.sinc_cascade


@pytest.fixture(scope="session")
def synthesis_report(paper_chain):
    """A synthesis report for the paper chain (default activity, no tracing)."""
    from repro.hardware import SynthesisFlow

    return SynthesisFlow().run(paper_chain, measure_activity=False)


@pytest.fixture()
def rng():
    """A deterministic random generator for individual tests."""
    return np.random.default_rng(20110926)


@pytest.fixture()
def python_fallback(monkeypatch):
    """Run a test on the pure-Python fallback of the compiled kernels.

    The kernel loader reports no library, exactly as on a host without a
    C compiler; tests without this fixture run the kernels when they load.
    """
    from repro import _native

    monkeypatch.setattr(_native, "load", lambda: None)
