"""repro — Efficient design and synthesis of decimation filters for wideband delta-sigma ADCs.

A Python reproduction of Koppula, Balagopal & Saxena, "Efficient Design and
Synthesis of Decimation Filters for Wideband Delta-Sigma ADCs" (SOCC 2011).

The package is organized as:

* :mod:`repro.dsm` — delta-sigma modulator substrate (NTF synthesis,
  simulation, spectrum analysis, CT loop-filter mapping).
* :mod:`repro.fixedpoint` — CSD coefficient encoding and Horner shift-adds.
* :mod:`repro.filters` — Sinc/CIC, Saramäki halfband, equalizer, scaling and
  polyphase filter design with bit-true implementations.
* :mod:`repro.core` — the decimation-chain design methodology, simulators
  and specification verification.
* :mod:`repro.hardware` — 45 nm-class standard-cell model and resource/
  power/area estimation (the synthesis-flow substrate).
* :mod:`repro.flow` — the one-call rapid design-and-synthesis flow and its
  reports.
* :mod:`repro.explore` — design-space exploration: declarative sweeps over
  the flow with parallel workers, an on-disk result cache and Pareto-ranked
  reports.

The package is also a command-line tool — ``python -m repro`` exposes
``design``, ``verify``, ``sweep`` and ``report`` subcommands (see
:mod:`repro.cli` and ``docs/GUIDE.md``).

Quickstart::

    from repro.core import design_paper_chain, verify_chain

    chain = design_paper_chain()
    print(chain.summary())
    print(verify_chain(chain))
"""

from repro.core import (
    ChainDesignOptions,
    ChainSpec,
    DecimationChain,
    DecimationFilterSpec,
    ModulatorSpec,
    design_paper_chain,
    paper_chain_spec,
    verify_chain,
)

__version__ = "1.0.0"

__all__ = [
    "ChainDesignOptions",
    "ChainSpec",
    "DecimationChain",
    "DecimationFilterSpec",
    "ModulatorSpec",
    "design_paper_chain",
    "paper_chain_spec",
    "verify_chain",
    "__version__",
]
