"""Tests for the designed decimation chain."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ChainDesignOptions, DecimationChain, paper_chain_spec


class TestChainDesign:
    def test_paper_architecture(self, paper_chain):
        summary = paper_chain.summary()
        assert summary["sinc_orders"] == [4, 4, 6]
        assert summary["sinc_word_lengths"] == [4, 8, 12]
        assert summary["halfband_order"] == 110
        assert summary["equalizer_order"] == 64
        assert summary["total_decimation"] == 16
        assert summary["output_bits"] == 14

    def test_stage_infos_order_and_rates(self, paper_chain):
        infos = paper_chain.stage_infos()
        assert [i.kind for i in infos] == ["sinc", "sinc", "sinc", "halfband",
                                           "scaling", "equalizer"]
        assert infos[0].input_rate_hz == pytest.approx(640e6)
        assert infos[3].input_rate_hz == pytest.approx(80e6)
        assert infos[-1].output_rate_hz == pytest.approx(40e6)

    def test_stage_infos_are_derived_once_and_read_only(self, paper_chain):
        infos = paper_chain.stage_infos()
        assert paper_chain.stage_infos() is infos
        with pytest.raises(TypeError):
            infos[3].details["attenuation_db"] = 0.0
        with pytest.raises(TypeError):
            infos[3].details["resources"]["adders"] = 0
        clones = pickle.loads(pickle.dumps(infos))
        assert clones == infos
        assert clones[3].details["resources"] == infos[3].details["resources"]
        with pytest.raises(TypeError):
            clones[3].details["resources"]["adders"] = 0

    def test_auto_sinc_order_selection(self):
        options = ChainDesignOptions(sinc_orders=None)
        chain = DecimationChain.design(paper_chain_spec(), options)
        orders = [s.spec.order for s in chain.sinc_cascade.stages]
        assert len(orders) == 3
        assert orders[-1] >= 6  # last stage must cover the 5th-order NTF

    def test_wrong_stage_count_rejected(self):
        options = ChainDesignOptions(sinc_orders=(4, 4))  # needs 3 + halfband
        with pytest.raises(ValueError):
            DecimationChain.design(paper_chain_spec(), options)

    def test_halfband_transition_from_spec(self, paper_chain):
        # Stopband edge 23 MHz at 80 MHz input → passband edge (40-23)/80.
        assert paper_chain.halfband.metadata["transition_start"] == pytest.approx(0.2125)

    def test_scaling_factor_accounts_for_msa_and_gain(self, paper_chain):
        # scale ≈ 0.99 * (2^13-1) * 2^guard / (0.81 * 7.5 * 2^14)
        expected = 0.99 * 8191 * 16 / (0.81 * 7.5 * 16384)
        assert paper_chain.scaling.quantized_scale == pytest.approx(expected, rel=0.01)


class TestChainResponses:
    def test_overall_response_meets_ripple(self, paper_chain):
        freqs = np.linspace(0, 19e6, 512)
        resp = paper_chain.overall_response(freqs)
        assert resp.passband_ripple_db(19e6) < 1.0

    def test_droop_response_shows_droop(self, paper_chain):
        freqs = np.linspace(0, 19e6, 256)
        droop = paper_chain.droop_response(freqs)
        assert droop.passband_droop_db(19e6) > 3.0

    def test_overall_response_first_alias_band(self, paper_chain):
        resp = paper_chain.overall_response(n_points=16384)
        assert resp.stopband_attenuation_db(23e6, 57e6) > 85.0

    def test_quantized_and_ideal_equalizer_close(self, paper_chain):
        quantized = paper_chain.multirate_cascade(quantized=True)
        ideal = paper_chain.multirate_cascade(quantized=False)
        freqs = np.linspace(0, 19e6, 128)
        q = quantized.overall_response(freqs).magnitude_db
        i = ideal.overall_response(freqs).magnitude_db
        assert np.max(np.abs(q - i)) < 0.1


class TestChainSimulation:
    def test_codes_to_signed_range(self, paper_chain):
        codes = np.array([0, 7, 8, 15])
        signed = paper_chain.codes_to_signed(codes)
        assert list(signed) == [-8, -1, 0, 7]

    def test_fixed_point_output_within_word(self, paper_chain, modulator_codes):
        out = paper_chain.process_fixed(modulator_codes.codes[:4096])
        assert out.max() <= 2 ** 13 - 1
        assert out.min() >= -2 ** 13
        assert len(out) == 4096 // 16

    def test_fixed_point_tracks_float_model(self, paper_chain, modulator_codes):
        n = 8192
        fixed = paper_chain.output_to_normalized(
            paper_chain.process_fixed(modulator_codes.codes[:n]))
        flt = paper_chain.process_float(modulator_codes.output[:n])
        # Same tone amplitude and phase after scaling: compare mid-record RMS.
        mid = slice(len(fixed) // 4, 3 * len(fixed) // 4)
        assert np.sqrt(np.mean(fixed[mid] ** 2)) == pytest.approx(
            np.sqrt(np.mean(flt[mid] ** 2)), rel=0.03)

    def test_output_tone_amplitude_restored_to_full_scale(self, paper_chain,
                                                          modulator_codes):
        # Input tone at 0.7 of modulator full scale → after the 1/MSA scaling
        # the output tone sits near 0.7/0.81 ≈ 0.86 of digital full scale.
        out = paper_chain.output_to_normalized(
            paper_chain.process_fixed(modulator_codes.codes))
        settled = out[200:800]
        amplitude = np.sqrt(2.0) * np.sqrt(np.mean(settled ** 2))
        assert amplitude == pytest.approx(0.7 * 0.99 / 0.81, rel=0.05)

    def test_measure_output_snr_reasonable(self, paper_chain, modulator_codes):
        snr = paper_chain.measure_output_snr(modulator_codes.codes, 2.5e6)
        assert snr > 75.0

    def test_measure_output_snr_batch_matches_rows(self, paper_chain,
                                                   paper_modulator):
        # (batch, n) codes: one batched pass, one SNR per row, each bit for
        # bit the 1-D measurement of that row.
        from repro.core.verification import snr_stimulus_parameters

        tone_hz, _, total, settle = snr_stimulus_parameters(paper_chain, 2048)
        t = np.arange(total)
        codes = paper_modulator.simulate_batch(np.stack([
            a * np.sin(2.0 * np.pi * tone_hz / 640e6 * t)
            for a in (0.3, 0.6, 0.77)])).codes
        kwargs = dict(discard_outputs=settle, analyze_outputs=128)
        batched = paper_chain.measure_output_snr(codes, tone_hz, **kwargs)
        assert isinstance(batched, list) and len(batched) == 3
        assert batched == [paper_chain.measure_output_snr(row, tone_hz,
                                                          **kwargs)
                           for row in codes]
        assert isinstance(batched[0], float)

    @pytest.mark.parametrize("group", (1, 2, 4))
    def test_stacked_sinc_words_measure_like_the_codes(
            self, paper_chain, paper_modulator, group):
        # The Monte Carlo's split: the Hogenauer stages on groups of rows,
        # the tail on the stacked words; bit for bit the batched
        # measurement of the codes, and 1-D words like the 1-D codes.
        from repro.core.verification import snr_stimulus_parameters

        tone_hz, _, total, settle = snr_stimulus_parameters(paper_chain, 2048)
        t = np.arange(total)
        codes = paper_modulator.simulate_batch(np.stack([
            a * np.sin(2.0 * np.pi * tone_hz / 640e6 * t)
            for a in (0.3, 0.5, 0.6, 0.7, 0.77)])).codes
        kwargs = dict(discard_outputs=settle, analyze_outputs=128)
        words = np.concatenate([paper_chain.sinc_words(codes[start:start + group])
                                for start in range(0, len(codes), group)])
        assert np.array_equal(words, paper_chain.sinc_words(codes))
        assert np.array_equal(words[1], paper_chain.sinc_words(codes[1]))
        assert (paper_chain.measure_sinc_words_snr(words, tone_hz, **kwargs)
                == paper_chain.measure_output_snr(codes, tone_hz, **kwargs))
        assert (paper_chain.measure_sinc_words_snr(words[1], tone_hz, **kwargs)
                == paper_chain.measure_output_snr(codes[1], tone_hz, **kwargs))

    def test_measure_output_snr_batch_rejects_wide_words(self):
        # Registers wider than the batch path supports: the 2-D call fails
        # with the batched Hogenauer stage's error, while each record still
        # measures through the gold models.
        from dataclasses import replace

        base = paper_chain_spec()
        spec = replace(base,
                       modulator=replace(base.modulator, quantizer_bits=56),
                       decimator=replace(base.decimator, input_bits=56))
        chain = DecimationChain.design(spec)
        codes = np.random.default_rng(3).integers(0, 16, size=(2, 4096))
        with pytest.raises(ValueError, match="register widths up to"):
            chain.measure_output_snr(codes, 2.5e6)
        assert isinstance(chain.measure_output_snr(codes[0], 2.5e6), float)

    def test_float_simulation_snr_high(self, paper_chain, modulator_codes):
        # The floating-point chain is limited only by the modulator noise and
        # the filter's alias leakage; on this short (1024-output-sample)
        # record the measured SNR must stay well above the 14-bit-dominated
        # fixed-point value.  (The full-length benchmark record reproduces
        # the paper's ≈86 dB figure; see benchmarks/bench_end_to_end_snr.py.)
        from repro.dsm.spectrum import analyze_tone

        out = paper_chain.process_float(modulator_codes.output)
        analysis = analyze_tone(out[256:], 40e6, 2.5e6, 20e6,
                                window="blackmanharris", signal_bins=8)
        assert analysis.snr_db > 80.0

    def test_settle_samples_positive_and_bounded(self, paper_chain):
        settle = paper_chain._settle_samples()
        assert 8 <= settle <= 512


def _round_half_up_and_saturate(value, guard, out_bits):
    """The output register written out: add half an output LSB, floor
    divide by ``2**guard``, clamp to the signed ``out_bits`` range."""
    if guard:
        value = (value + 2 ** (guard - 1)) // 2 ** guard
    return min(2 ** (out_bits - 1) - 1, max(-2 ** (out_bits - 1), value))


class TestOutputWord:
    """``_finalize_output`` against written-out integer arithmetic.

    The stage gold models of ``tests/test_backends.py`` end in this same
    function, so fast-vs-gold checks cannot see a fault in it.  Both of its
    branches are pinned here: ``int64`` (the fast path) and ``object``
    (what the gold models hand over).
    """

    # Paper chain: 4 guard LSBs, 14-bit output word [-8192, 8191].
    GUARDED = [
        (0, 0), (7, 0), (-9, -1),
        (8, 1), (-8, 0), (24, 2), (-24, -1),     # ±half-LSB ties round up
        (8191 * 16, 8191), (-8192 * 16, -8192),  # ±full scale
        (8191 * 16 + 8, 8191),                   # tie rounds onto the rail
        (-8192 * 16 - 8, -8192),                 # tie rounds up to the rail
        (8192 * 16, 8191), (-8193 * 16, -8192),  # one past each rail
    ]
    UNGUARDED = [(5, 5), (-5, -5), (8191, 8191), (-8192, -8192),
                 (8192, 8191), (-8193, -8192)]

    @pytest.fixture(scope="class")
    def unguarded_chain(self, paper_chain):
        return DecimationChain.design(
            paper_chain.spec, replace(paper_chain.options, guard_bits=0))

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("guard", [4, 0])
    def test_listed_cases(self, paper_chain, unguarded_chain, dtype, guard):
        chain = paper_chain if guard else unguarded_chain
        cases = self.GUARDED if guard else self.UNGUARDED
        assert (chain.options.guard_bits,
                chain.spec.decimator.output_bits) == (guard, 14)
        values = [v for v, _ in cases]
        expected = [e for _, e in cases]
        assert [_round_half_up_and_saturate(v, guard, 14)
                for v in values] == expected
        out = chain._finalize_output(np.array(values, dtype=dtype))
        assert out.dtype == np.int64
        assert out.tolist() == expected
        rows = chain._finalize_output(np.array([values, values[::-1]],
                                               dtype=dtype))
        assert rows.tolist() == [expected, expected[::-1]]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("guard", [4, 0])
    def test_matches_written_out_arithmetic(self, paper_chain, unguarded_chain,
                                            dtype, guard):
        chain = paper_chain if guard else unguarded_chain
        span = 8200 << guard
        values = np.random.default_rng(guard).integers(-span, span, 4096)
        out = chain._finalize_output(values.astype(dtype))
        assert out.tolist() == [_round_half_up_and_saturate(int(v), guard, 14)
                                for v in values]

    def test_object_words_beyond_int64_saturate(self, paper_chain):
        values = np.array([2 ** 70, -2 ** 70, 2 ** 70 + 8, -2 ** 70 - 8],
                          dtype=object)
        out = paper_chain._finalize_output(values)
        assert out.tolist() == [8191, -8192, 8191, -8192]


class TestSharedStoredChain:
    """The store hands one chain to every caller; its stages keep no state
    between calls, so concurrent callers cannot disturb each other."""

    def test_simulation_and_activity_share_one_chain(self):
        import threading
        from unittest import mock

        from repro.dsm import DeltaSigmaModulator, coherent_tone
        from repro.filters import HogenauerDecimator
        from repro.flow import ArtifactStore
        from repro.hardware import measure_hogenauer_activity

        store = ArtifactStore()
        chain = DecimationChain.design(artifacts=store)
        assert DecimationChain.design(artifacts=store) is chain
        codes = DeltaSigmaModulator.from_spec(chain.spec.modulator).simulate(
            coherent_tone(2.5e6, 0.7, 640e6, 8192)).codes
        sequential = {"words": chain.process_fixed(codes).tobytes(),
                      "activity": measure_hogenauer_activity(chain, 4096)}

        start = threading.Barrier(2, timeout=60)
        first_stage_done = threading.Event()
        activity_done = threading.Event()
        process = HogenauerDecimator.process
        results = {}

        def paused_process(stage, *args, **kwargs):
            out = process(stage, *args, **kwargs)
            if (threading.current_thread().name == "simulate"
                    and not first_stage_done.is_set()):
                # The whole activity measurement runs between the
                # record's first and second Hogenauer stage.
                first_stage_done.set()
                activity_done.wait(timeout=60)
            return out

        def simulate():
            start.wait()
            results["words"] = chain.process_fixed(codes).tobytes()

        def measure():
            start.wait()
            try:
                if first_stage_done.wait(timeout=60):
                    results["activity"] = measure_hogenauer_activity(chain,
                                                                     4096)
            finally:
                activity_done.set()

        with mock.patch.object(HogenauerDecimator, "process", paused_process):
            threads = [threading.Thread(target=simulate, name="simulate"),
                       threading.Thread(target=measure, name="measure")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert first_stage_done.is_set()
        assert results == sequential
