"""MRI-FHD application."""

import pytest

from repro.apps import MriFhd
from repro.apps.mri_fhd import CONFLICTED_LAYOUT, GOOD_LAYOUT
from repro.tuning import Configuration
from tests.apps.helpers import check_config_against_reference


@pytest.fixture(scope="module")
def app():
    return MriFhd()


@pytest.fixture(scope="module")
def small():
    return MriFhd().test_instance()


class TestSpace:
    def test_exactly_175_configurations(self, app):
        """Table 4: 5 block sizes x 5 unrolls x 7 invocation splits."""
        assert len(app.space()) == 175

    def test_all_valid(self, app):
        for config in app.space():
            app.evaluate(config)    # must not raise

    def test_launches_fill_whole_sm_waves(self, app):
        for invocations in (1, 8, 64):
            for block in (64, 320, 512):
                blocks = app.num_voxels // invocations // block
                assert blocks % 16 == 0


class TestCorrectness:
    CONFIGS = [
        {"block": 64, "unroll": 1, "invocations": 1},
        {"block": 128, "unroll": 4, "invocations": 2},
        {"block": 64, "unroll": 16, "invocations": 4},
    ]

    @pytest.mark.parametrize(
        "params", CONFIGS,
        ids=lambda p: f"b{p['block']}u{p['unroll']}i{p['invocations']}",
    )
    def test_config_matches_numpy(self, small, params):
        check_config_against_reference(small, Configuration(params),
                                       rtol=5e-3, atol=5e-3)

    def test_aos_layout_computes_same_results(self):
        small = MriFhd(num_voxels=2048, num_samples=16,
                       layout=CONFLICTED_LAYOUT)
        check_config_against_reference(
            small,
            Configuration({"block": 64, "unroll": 2, "invocations": 1}),
            rtol=5e-3, atol=5e-3,
        )


class TestClusters:
    def test_metrics_independent_of_invocation_split(self, app):
        """Section 5.2 / Figure 6(b): seven-way clusters."""
        reports = [
            app.evaluate(Configuration({
                "block": 256, "unroll": 4, "invocations": inv,
            }))
            for inv in (1, 2, 4, 8, 16, 32, 64)
        ]
        assert len({r.efficiency for r in reports}) == 1
        assert len({r.utilization for r in reports}) == 1

    def test_intra_cluster_time_spread_is_small(self, app):
        """Paper: at most 7.1% within a cluster."""
        times = [
            app.simulate(Configuration({
                "block": 256, "unroll": 4, "invocations": inv,
            }))
            for inv in (1, 2, 4, 8, 16, 32, 64)
        ]
        assert max(times) / min(times) - 1 < 0.10

    def test_more_invocations_cost_launch_overhead(self, app):
        few = app.simulate(Configuration({
            "block": 256, "unroll": 4, "invocations": 1,
        }))
        many = app.simulate(Configuration({
            "block": 256, "unroll": 4, "invocations": 64,
        }))
        assert many > few


class TestLayoutAblation:
    def test_conflicted_layout_degrades_with_unroll_metrics_flat(self):
        """Section 5.3: performance decreased as the factor increased,
        although efficiency and utilization metrics remained constant
        (here: move in the wrong direction relative to time)."""
        good = MriFhd(layout=GOOD_LAYOUT)
        bad = MriFhd(layout=CONFLICTED_LAYOUT)

        def time_at(app, unroll):
            return app.simulate(Configuration({
                "block": 256, "unroll": unroll, "invocations": 4,
            }))

        # With the good layout deeper unrolling helps ...
        assert time_at(good, 16) < time_at(good, 1)
        # ... with the conflicted layout it hurts ...
        assert time_at(bad, 16) > time_at(bad, 1)
        # ... while the metrics still claim it should help.
        eff = [
            bad.evaluate(Configuration({
                "block": 256, "unroll": u, "invocations": 4,
            })).efficiency
            for u in (1, 4, 16)
        ]
        assert eff == sorted(eff)

    def test_fixed_layout_is_faster(self):
        good = MriFhd(layout=GOOD_LAYOUT)
        bad = MriFhd(layout=CONFLICTED_LAYOUT)
        config = Configuration({"block": 256, "unroll": 16, "invocations": 4})
        assert good.simulate(config) < bad.simulate(config)


class TestPaperFacts:
    def test_unroll_improves_efficiency(self, app):
        values = [
            app.evaluate(Configuration({
                "block": 256, "unroll": u, "invocations": 1,
            })).efficiency
            for u in (1, 2, 4, 8, 16)
        ]
        assert values == sorted(values)

    def test_sincos_on_sfu(self, app):
        from repro.ptx import InstrClass

        report = app.evaluate(Configuration({
            "block": 256, "unroll": 1, "invocations": 1,
        }))
        assert report.profile.mix[InstrClass.SFU] == 2 * app.num_samples


class TestBuildSharing:
    """Invocation splits share the single-launch kernel's build."""

    def test_variants_differ_from_base_only_in_name_and_grid(self):
        import dataclasses

        fresh = MriFhd().test_instance()
        for config in fresh.space():
            base = fresh.kernel(config.replace(invocations=1))
            variant = fresh.kernel(config)
            invocations = config["invocations"]
            assert variant.name == f"fhd_b{config['block']}_i{invocations}"
            assert variant.grid_dim.x * invocations == base.grid_dim.x
            assert dataclasses.replace(
                variant, name=base.name, grid_dim=base.grid_dim
            ) == base

    def test_building_a_variant_leaves_cached_base_unchanged(self):
        from repro.ptx import emit_ptx

        fresh = MriFhd().test_instance()
        base_config = Configuration({"block": 64, "unroll": 4,
                                     "invocations": 1})
        base = fresh.kernel(base_config)
        before = (base.name, base.grid_dim, emit_ptx(base))
        for invocations in (2, 4, 8):
            fresh.kernel(base_config.replace(invocations=invocations))
        assert fresh.kernel(base_config) is base
        assert (base.name, base.grid_dim, emit_ptx(base)) == before
        rebuilt = MriFhd().test_instance().build_kernel(base_config)
        assert emit_ptx(rebuilt) == before[2]
