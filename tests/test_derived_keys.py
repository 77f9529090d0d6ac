"""Keys derived from frozen values are derived once per value.

A warm store hit re-derives none of the store keys, cache keys and
fingerprints its request needs: each is derived once per spec, options,
scenario or chain value and remembered (``repro.core.spec.derive_once``).
The digests stay those the keys had before they were remembered, so
on-disk caches written earlier still hit.
"""

import dataclasses
import io
from collections import Counter
from dataclasses import asdict, replace

import pytest

import repro.core.spec as spec_module
from repro.cli import run_command
from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import (ChainSpec, ModulatorSpec, audio_chain_spec,
                             content_hash, derive_once, derived_hash,
                             paper_chain_spec)
from repro.flow import ArtifactStore
from repro.scenarios import all_scenarios, get_scenario

#: Digests computed from ``content_hash`` of the ``asdict``-built payloads
#: the keys were made of before they were derived once per value.
PAPER_SPEC_HASH = (
    "396ccf798941fdef074160415a9ab6f285b3264c999c86330b0e85122f542041")
PAPER_CHAIN_DESIGN_KEY = (
    "b383e9b027a1c1d33b8e2ad86da51867080f90cdb3f60d37a578733b49978862")
SCENARIO_CACHE_KEYS = {
    "lte-20":
        "5d1ea005bab12b2ff636927f97c34bbd6f096e78b7748f35a84c29ea4863c355",
    "sdr-lte-30p72":
        "dbed96438e143ae354bdb1b8a13a6e075f5f98b8b5935123170666905f0af3eb",
}
SWEEP_POINT_KEY = (
    "4dfe94fa41558f317fe93aa76abdba02345d8cf078a85ff4e7fc81fba2349e11")


class TestPinnedDigests:
    def test_paper_spec_content_hash(self):
        assert paper_chain_spec().content_hash() == PAPER_SPEC_HASH
        # A second, freshly built spec is answered from the memo.
        assert paper_chain_spec().content_hash() == PAPER_SPEC_HASH

    def test_paper_chain_design_key(self):
        store = ArtifactStore()
        DecimationChain.design(artifacts=store)
        assert ("chain-design", PAPER_CHAIN_DESIGN_KEY) in store._data

    def test_scenario_cache_keys(self):
        for name, key in SCENARIO_CACHE_KEYS.items():
            assert get_scenario(name).cache_key() == key

    def test_sweep_point_key(self):
        from repro.explore import SweepSpec

        flow = {"include_snr": True, "snr_samples": 16384,
                "measure_activity": False, "library": "generic-45nm",
                "cache_schema": 3}
        point = SweepSpec(output_bits=(12, 14)).points[0]
        assert point.cache_key(flow) == SWEEP_POINT_KEY
        assert point.cache_key(dict(flow)) == SWEEP_POINT_KEY


def _registered_values():
    specs = [paper_chain_spec(), audio_chain_spec()]
    options = [ChainDesignOptions(), ChainDesignOptions(sinc_orders=None)]
    for scenario in all_scenarios():
        specs.append(scenario.spec)
        options.append(scenario.options)
    return specs, options


class TestShallowDicts:
    def test_to_dict_equals_asdict(self):
        specs, options = _registered_values()
        for spec in specs:
            assert spec.to_dict() == asdict(spec)
            assert spec.modulator.to_dict() == asdict(spec.modulator)
            assert spec.decimator.to_dict() == asdict(spec.decimator)
        for option in options:
            expected = asdict(option)
            if expected["sinc_orders"] is not None:
                # The JSON form: a list, as from_dict reads it back.
                expected["sinc_orders"] = list(expected["sinc_orders"])
            assert option.to_dict() == expected
            assert ChainDesignOptions.from_dict(option.to_dict()) == option

    def test_returned_dicts_are_fresh(self):
        spec = paper_chain_spec()
        options = ChainDesignOptions()
        first, again = spec.to_dict(), spec.to_dict()
        assert first is not again and first["modulator"] is not \
            again["modulator"]
        first["modulator"]["order"] = 99
        first["decimator"].clear()
        opts = options.to_dict()
        opts["sinc_orders"].append(8)
        opts["guard_bits"] = 0
        assert spec.to_dict() == again
        assert options.to_dict()["sinc_orders"] == [4, 4, 6]
        assert spec.content_hash() == PAPER_SPEC_HASH
        payload = get_scenario("lte-20").payload()
        payload["spec"]["modulator"]["order"] = 1
        payload["flow"]["library"] = "other"
        assert get_scenario("lte-20").payload()["spec"] == \
            get_scenario("lte-20").spec.to_dict()
        assert get_scenario("lte-20").cache_key() == \
            SCENARIO_CACHE_KEYS["lte-20"]


class TestDeriveOnce:
    def test_values_equal_but_spelled_differently_keep_their_digests(self):
        # 20e6 == 20000000 and 0.0 == -0.0, but their JSON differs: the
        # memo must hand each its own digest, in either order.
        floats = ModulatorSpec()
        ints = replace(floats, bandwidth_hz=20000000,
                       sample_rate_hz=640000000)
        negative = replace(floats, target_snr_db=-0.0)
        zero = replace(floats, target_snr_db=0.0)
        assert ints == floats and negative == zero
        for first, second in ((floats, ints), (negative, zero)):
            for value in (first, second, first):
                assert derived_hash(("modulator", value), value.to_dict) == \
                    content_hash(value.to_dict())
        assert (derived_hash(("modulator", ints), ints.to_dict)
                != derived_hash(("modulator", floats), floats.to_dict))

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spec_module, "_DERIVED", {})
        monkeypatch.setattr(spec_module, "DERIVED_ENTRIES", 4)
        for value in range(10):
            assert derive_once(("bounded", value), lambda: value * 2) == \
                value * 2
        assert list(spec_module._DERIVED) == [repr(("bounded", v))
                                              for v in range(6, 10)]

    def test_derived_once_per_value(self):
        calls = Counter()

        def payload():
            calls["payload"] += 1
            return {"spec": ChainSpec().to_dict()}

        for _ in range(3):
            derived_hash(("once-per-value", paper_chain_spec()), payload)
        assert calls["payload"] <= 1


#: Served-mix style requests, each run on one warm store.
WARM_HITS = [
    ["design", "--spec", "paper", "--no-activity"],
    ["verify", "--spec", "audio", "--no-activity"],
    ["design", "--spec", "paper", "--library", "generic-90nm"],
    ["scenario", "run", "lte-20", "--quiet"],
    ["scenario", "run", "sdr-lte-30p72", "--quiet"],
    ["scenario", "run", "lte-5", "--quiet", "--cache-dir", "cas"],
    ["sweep", "--snr", "--snr-samples", "2048", "--quiet", "--jobs", "1",
     "--output-bits", "12", "14", "--halfband-att", "80", "85"],
]


class TestWarmHitsDeriveNothing:
    @pytest.mark.parametrize("argv", WARM_HITS, ids=[
        "design", "verify-audio", "design-activity", "scenario",
        "scenario-rate-converter", "scenario-cache-dir", "sweep-snr"])
    def test_hit_serializes_and_fingerprints_nothing(self, argv, tmp_path,
                                                     monkeypatch):
        from repro.filters.halfband import SaramakiHalfband
        from repro.filters.hogenauer import HogenauerDecimator

        monkeypatch.chdir(tmp_path)  # sweeps cache into the cwd
        store = ArtifactStore()

        def run():
            out = io.StringIO()
            code = run_command(argv, stdout=out, stderr=io.StringIO(),
                               store=store)
            return code, out.getvalue()

        cold = run()
        run()
        calls = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(dataclasses, "asdict")
        counted(spec_module, "canonical_json")
        for owner in (DecimationChain, SaramakiHalfband, HogenauerDecimator):
            counted(owner, "coefficient_fingerprint")
        hits = store.hits
        assert run() == cold
        assert store.hits > hits or "--cache-dir" in argv or \
            argv[0] == "sweep"
        assert calls == Counter()


def test_threads_share_the_memo_under_eviction(monkeypatch):
    """Serve workers derive keys concurrently: with the memo bound far
    below the values in flight, every thread still gets each value's own
    digest and the memo never outgrows its bound."""
    import sys
    import threading

    monkeypatch.setattr(spec_module, "_DERIVED", {})
    monkeypatch.setattr(spec_module, "DERIVED_ENTRIES", 8)
    specs = [replace(ModulatorSpec(), target_snr_db=float(v))
             for v in range(40)]
    expected = [content_hash(s.to_dict()) for s in specs]
    errors = []
    start = threading.Barrier(6)

    def worker(offset):
        try:
            start.wait(timeout=30)
            for round_ in range(20):
                for i in range(len(specs)):
                    j = (i + offset + round_) % len(specs)
                    if derived_hash(("stress", specs[j]),
                                    specs[j].to_dict) != expected[j]:
                        errors.append(j)
                if len(spec_module._DERIVED) > 8:
                    errors.append("over the bound")
        except Exception as exc:  # a thread's failure fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 7,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(spec_module._DERIVED) <= 8
