"""Tests for the architecture-selection methodology."""

import numpy as np

from repro.core import (
    choose_sinc_orders,
    evaluate_sinc_orders,
    paper_chain_spec,
    predicted_snr_after_decimation,
    sweep_sinc_order_splits,
    audio_chain_spec,
)


class TestChooseSincOrders:
    def test_paper_spec_reproduces_446(self):
        assert choose_sinc_orders(paper_chain_spec()) == (4, 4, 6)

    def test_last_stage_covers_modulator_order(self):
        orders = choose_sinc_orders(paper_chain_spec())
        assert orders[-1] >= paper_chain_spec().modulator.order + 1

    def test_max_order_caps_the_split(self):
        # The last stage is capped, the earlier ones stay two orders below it.
        assert choose_sinc_orders(paper_chain_spec(), max_order=5) == (3, 3, 5)

    def test_audio_spec_produces_five_sinc_stages(self):
        orders = choose_sinc_orders(audio_chain_spec())
        assert len(orders) == 5  # six halvings, one taken by the halfband
        assert orders[-1] >= 4


class TestEvaluateSincOrders:
    def test_evaluation_fields(self):
        result = evaluate_sinc_orders((4, 4, 6), paper_chain_spec())
        assert result.orders == (4, 4, 6)
        assert result.alias_attenuation_db > 50.0
        assert result.passband_droop_db > 0.0
        assert result.total_adder_bits > 0
        assert result.output_bits == 18

    def test_higher_orders_more_attenuation_more_droop(self):
        spec = paper_chain_spec()
        low = evaluate_sinc_orders((3, 3, 3), spec)
        high = evaluate_sinc_orders((6, 6, 6), spec)
        assert high.alias_attenuation_db > low.alias_attenuation_db
        assert high.passband_droop_db > low.passband_droop_db
        assert high.total_adder_bits > low.total_adder_bits

    def test_sweep_covers_all_combinations(self):
        spec = paper_chain_spec()
        results = sweep_sinc_order_splits(spec, candidate_orders=(4, 6))
        assert len(results) == 2 ** 3
        assert any(r.orders == (4, 4, 6) for r in results)


class TestPredictedSNR:
    def test_paper_split_meets_target(self):
        snr = predicted_snr_after_decimation(paper_chain_spec(), (4, 4, 6))
        assert snr > 86.0

    def test_weak_sinc_cascade_loses_snr(self):
        spec = paper_chain_spec()
        strong = predicted_snr_after_decimation(spec, (4, 4, 6))
        weak = predicted_snr_after_decimation(spec, (1, 1, 1))
        assert strong > weak

    def test_prediction_close_to_simulation(self, paper_chain):
        # The linear-model prediction and the bit-true simulation should land
        # within a few dB of each other (the prediction ignores the 14-bit
        # output quantization, so it sits above the simulated value).
        predicted = predicted_snr_after_decimation(paper_chain.spec, (4, 4, 6))
        assert 86.0 < predicted < 115.0

    def test_memoized_on_the_inputs_it_reads(self):
        from repro.flow import ArtifactStore

        spec = paper_chain_spec()
        cold = predicted_snr_after_decimation(spec, (4, 4, 6))
        store = ArtifactStore()
        first = predicted_snr_after_decimation(spec, (4, 4, 6), artifacts=store)
        # The output word is not an input of the estimate.
        hit = predicted_snr_after_decimation(spec.derive(output_bits=12),
                                             [4, 4, 6], artifacts=store)
        assert (store.hits, store.misses) == (1, 1)
        assert type(hit) is float
        assert first == hit == cold
        other = predicted_snr_after_decimation(spec, (4, 4, 5), artifacts=store)
        assert store.misses == 2 and other != cold


class TestHalfbandDesignKey:
    def test_one_ulp_apart_transitions_share_the_designs(self, monkeypatch,
                                                         tmp_path):
        """``design --spec audio`` and ``scenario run audio-96k`` reach the
        same transition start (0.225) through different rates, 1 ULP
        apart unrounded: on one store the second finds all five halfband
        designs of the first."""
        import io

        from repro.cli import run_command
        from repro.filters.halfband import SaramakiHalfbandDesigner
        from repro.flow import ArtifactStore

        designs = []
        real = SaramakiHalfbandDesigner.design

        def counting(self, *args, **kwargs):
            designs.append(self.transition_start)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SaramakiHalfbandDesigner, "design", counting)
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore()
        for argv in (["design", "--spec", "audio", "--no-activity"],
                     ["scenario", "run", "audio-96k", "--quiet"]):
            assert run_command(argv, stdout=io.StringIO(),
                               stderr=io.StringIO(), store=store) == 0
        assert designs == [0.225] * 5


class TestEnumerateSincSplits:
    def test_deterministic_lexicographic_order(self):
        from repro.core import enumerate_sinc_splits, paper_chain_spec

        splits = enumerate_sinc_splits(paper_chain_spec(), (4, 6))
        assert splits == [(4, 4, 4), (4, 4, 6), (4, 6, 4), (4, 6, 6),
                          (6, 4, 4), (6, 4, 6), (6, 6, 4), (6, 6, 6)]

    def test_split_length_follows_osr(self):
        from repro.core import enumerate_sinc_splits, paper_chain_spec

        spec = paper_chain_spec().derive(osr=8)
        splits = enumerate_sinc_splits(spec, (3, 4))
        assert all(len(s) == 2 for s in splits)
        assert len(splits) == 4

    def test_sweep_uses_enumeration(self):
        from repro.core import (
            enumerate_sinc_splits,
            paper_chain_spec,
            sweep_sinc_order_splits,
        )

        spec = paper_chain_spec()
        evaluations = sweep_sinc_order_splits(spec, (4, 6))
        assert [e.orders for e in evaluations] == enumerate_sinc_splits(spec, (4, 6))
