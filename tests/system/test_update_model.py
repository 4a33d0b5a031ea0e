"""Update-phase-model tests: the Fig. 11 orderings from cycle sims.

These use the session-cached :class:`UpdatePhaseModel` (8 columns per
stripe) so the full design sweep costs one simulation each.
"""

import pytest

from repro.optim.precision import PRECISION_8_32, PRECISION_FULL
from repro.system.design import DesignPoint


@pytest.fixture(scope="module")
def profiles(update_model, momentum_optimizer):
    return update_model.profiles(momentum_optimizer, PRECISION_8_32)


class TestOrderings:
    """The qualitative results the whole paper rests on."""

    def test_every_pim_design_beats_baseline(self, profiles):
        base = profiles[DesignPoint.BASELINE].seconds_per_param
        for d in (
            DesignPoint.GRADPIM_DIRECT,
            DesignPoint.TENSORDIMM,
            DesignPoint.GRADPIM_BUFFERED,
            DesignPoint.AOS,
            DesignPoint.AOS_PB,
        ):
            assert profiles[d].seconds_per_param < base, d

    def test_buffered_beats_direct(self, profiles):
        assert (
            profiles[DesignPoint.GRADPIM_BUFFERED].seconds_per_param
            < profiles[DesignPoint.GRADPIM_DIRECT].seconds_per_param
        )

    def test_direct_update_speedup_in_paper_range(self, profiles):
        """Paper: ~2.25x; accept the right neighbourhood."""
        speedup = (
            profiles[DesignPoint.BASELINE].seconds_per_param
            / profiles[DesignPoint.GRADPIM_DIRECT].seconds_per_param
        )
        assert 1.4 <= speedup <= 3.0

    def test_buffered_update_speedup_in_paper_range(self, profiles):
        """Paper: ~8.23x; accept the right neighbourhood."""
        speedup = (
            profiles[DesignPoint.BASELINE].seconds_per_param
            / profiles[DesignPoint.GRADPIM_BUFFERED].seconds_per_param
        )
        assert 4.5 <= speedup <= 10.0

    def test_buffered_internal_bandwidth_multiplier(self, profiles):
        """Paper Fig. 11: GradPIM-Buffered ~4x GradPIM-Direct."""
        ratio = (
            profiles[DesignPoint.GRADPIM_BUFFERED].internal_bandwidth
            / profiles[DesignPoint.GRADPIM_DIRECT].internal_bandwidth
        )
        assert 2.5 <= ratio <= 4.5

    def test_direct_is_command_bus_limited(self, profiles):
        """Paper: the command bus saturates for GradPIM-Direct."""
        util = profiles[
            DesignPoint.GRADPIM_DIRECT
        ].command_bus_utilization
        assert util > 0.6
        assert util <= 1.0

    def test_buffered_exceeds_single_bus(self, profiles):
        assert profiles[
            DesignPoint.GRADPIM_BUFFERED
        ].command_bus_utilization > 1.0

    def test_baseline_near_peak_external(self, profiles, timing):
        """Paper: ~15 of 17.1 GB/s."""
        bw = profiles[DesignPoint.BASELINE].external_bandwidth
        assert 0.75 * timing.peak_offchip_bandwidth() <= bw

    def test_internal_bandwidth_below_peak(
        self, profiles, timing, geometry
    ):
        peak = timing.peak_internal_bandwidth(
            geometry.bankgroups, geometry.ranks
        )
        for p in profiles.values():
            assert p.internal_bandwidth <= peak

    def test_pim_designs_have_zero_offchip_update_traffic(
        self, profiles
    ):
        for d in (
            DesignPoint.GRADPIM_DIRECT,
            DesignPoint.GRADPIM_BUFFERED,
            DesignPoint.TENSORDIMM,  # stays behind the buffer
            DesignPoint.AOS,
        ):
            assert profiles[d].offchip_bytes_per_param == 0.0

    def test_baseline_offchip_matches_three_phase(self, profiles):
        assert profiles[
            DesignPoint.BASELINE
        ].offchip_bytes_per_param == pytest.approx(30.0, rel=0.02)


class TestProfileMechanics:
    def test_profiles_are_cached(self, update_model, momentum_optimizer):
        a = update_model.profile(
            DesignPoint.BASELINE, momentum_optimizer, PRECISION_8_32
        )
        b = update_model.profile(
            DesignPoint.BASELINE, momentum_optimizer, PRECISION_8_32
        )
        assert a is b

    def test_refresh_derate_small_but_positive(self, update_model):
        assert 1.0 < update_model.refresh_derate < 1.10

    def test_full_precision_update_is_leaner(
        self, update_model, momentum_optimizer
    ):
        mixed = update_model.profile(
            DesignPoint.GRADPIM_BUFFERED, momentum_optimizer,
            PRECISION_8_32,
        )
        full = update_model.profile(
            DesignPoint.GRADPIM_BUFFERED, momentum_optimizer,
            PRECISION_FULL,
        )
        # Full precision skips dequantize/quantize commands per param
        # but each parameter occupies 4x the column space: per-param
        # internal accesses stay comparable; commands shrink.
        assert full.quant_ops_per_param == 0.0
        assert mixed.quant_ops_per_param > 0.0

    def test_update_seconds_scales_linearly(self, profiles):
        p = profiles[DesignPoint.GRADPIM_BUFFERED]
        assert p.update_seconds(2e6) == pytest.approx(
            2 * p.update_seconds(1e6)
        )


class TestJobScopedStreams:
    """Built command streams live for one profiling burst only."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Count kernel-generator calls; keep a weak reference to every
        stream they build."""
        import weakref

        from repro.system import update_model as module

        refs = []

        def counting(cls, method):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                artifact = original(self, *args, **kwargs)
                refs.append(weakref.ref(artifact))
                return artifact

            monkeypatch.setattr(cls, method, wrapper)

        counting(module.BaselineStreamGenerator, "generate")
        counting(module.UpdateKernelCompiler, "compile")
        counting(module.AoSKernelGenerator, "generate")
        return refs

    def _simulate(self, momentum_optimizer):
        from repro.system.training import TrainingSimulator
        from repro.system.update_model import UpdatePhaseModel

        model = UpdatePhaseModel(columns_per_stripe=8)
        TrainingSimulator(
            optimizer=momentum_optimizer, update_model=model
        ).simulate("MLP1")
        return model

    def test_six_design_job_builds_each_kernel_once(
        self, built, momentum_optimizer
    ):
        """Baseline/TensorDIMM share one stream and GradPIM-DR/BD one
        kernel; the two AoS variants differ: 4 builds for 6 designs."""
        self._simulate(momentum_optimizer)
        assert len(built) == 4

    def test_no_stream_outlives_simulate(self, built, momentum_optimizer):
        import gc

        model = self._simulate(momentum_optimizer)
        gc.collect()
        assert built and all(ref() is None for ref in built)
        assert len(model._cache) == 6  # the profiles stay memoized
