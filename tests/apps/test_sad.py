"""Sum of Absolute Differences application."""

import pytest

from repro.apps import SumOfAbsoluteDifferences
from repro.arch import LaunchError
from repro.tuning import Configuration
from tests.apps.helpers import check_config_against_reference


@pytest.fixture(scope="module")
def app():
    return SumOfAbsoluteDifferences()


@pytest.fixture(scope="module")
def small():
    return SumOfAbsoluteDifferences().test_instance()


class TestSpace:
    def test_space_size_near_table4(self, app):
        """Paper: 908 configurations; our parameter menu yields 828
        (the exact menu is not published — see EXPERIMENTS.md)."""
        assert len(app.space()) == 828

    def test_thread_bounds_respected(self, app):
        for config in app.space():
            threads = config["positions_per_block"] // config["tiling"]
            assert 16 <= threads <= 512

    def test_qcif_geometry(self, app):
        assert app.width == 176 and app.height == 144
        assert app.positions == 1024                 # 32x32 search
        assert app.num_macroblocks == 44 * 36

    def test_rejects_unaligned_frames(self):
        with pytest.raises(ValueError):
            SumOfAbsoluteDifferences(width=30, height=16)


class TestCorrectness:
    CONFIGS = [
        {"positions_per_block": 64, "tiling": 1,
         "unroll_search": 1, "unroll_rows": 1, "unroll_cols": 1},
        {"positions_per_block": 64, "tiling": 4,
         "unroll_search": 2, "unroll_rows": 2, "unroll_cols": 4},
        {"positions_per_block": 32, "tiling": 2,
         "unroll_search": 8, "unroll_rows": 4, "unroll_cols": 1},
    ]

    @pytest.mark.parametrize(
        "params", CONFIGS,
        ids=lambda p: f"p{p['positions_per_block']}t{p['tiling']}"
                      f"u{p['unroll_search']}{p['unroll_rows']}{p['unroll_cols']}",
    )
    def test_config_matches_numpy(self, small, params):
        check_config_against_reference(small, Configuration(params),
                                       rtol=0, atol=0)

    def test_edge_positions_clamped_like_texture(self, small):
        """Search positions falling off the frame read clamped pixels —
        Table 1's configurable texture edge behaviour."""
        config = Configuration({
            "positions_per_block": 64, "tiling": 1,
            "unroll_search": 1, "unroll_rows": 1, "unroll_cols": 1,
        })
        # Macroblock 0 sits at the frame corner: half its search area
        # is off-frame, so correctness here proves the clamping path.
        check_config_against_reference(small, config, rtol=0, atol=0)


class TestPaperFacts:
    def test_unrolling_reduces_instructions(self, app):
        def instructions(**unrolls):
            params = {"positions_per_block": 256, "tiling": 4}
            params.update(unrolls)
            return app.evaluate(Configuration(params)).instructions

        rolled = instructions(unroll_search=1, unroll_rows=1, unroll_cols=1)
        unrolled = instructions(unroll_search=4, unroll_rows=4, unroll_cols=4)
        assert unrolled < rolled

    def test_texture_loads_dominate_mix(self, app):
        from repro.ptx import InstrClass

        report = app.evaluate(app.default_configuration())
        pixels = 16 * 2 * 4    # 16 pixels, 2 frames, 4 positions/thread
        assert report.profile.mix[InstrClass.TEXTURE_LOAD] == pixels

    def test_output_stores_coalesced(self, app):
        report = app.evaluate(app.default_configuration())
        assert report.profile.traffic.uncoalesced_store_bytes == 0

    def test_figure4_shape_times_spread_widely(self, app):
        """Figure 4: a complex response — at least 2x spread among a
        sample of valid configurations."""
        import itertools

        sample = list(itertools.islice(iter(app.space()), 0, 120, 7))
        times = []
        for config in sample:
            try:
                times.append(app.simulate(config))
            except LaunchError:
                continue
        assert max(times) / min(times) > 2.0


class TestBuildSharing:
    """Search unroll factors that expand the search loop completely
    share one build, and the shared kernel is the one each would
    build on its own."""

    def test_complete_search_unrolls_share_the_smallest_factors_build(self):
        from repro.transforms import standard_cleanup, unroll

        app = SumOfAbsoluteDifferences()
        shared = 0
        for per_block, tiling in ((64, 1), (64, 2), (128, 4), (256, 8)):
            kernels = {}
            for search in (1, 2, 4, 8):
                config = Configuration({
                    "positions_per_block": per_block, "tiling": tiling,
                    "unroll_search": search, "unroll_rows": 2,
                    "unroll_cols": 4,
                })
                kernels[search] = app.kernel(config)
                scratch = app._baseline(per_block, tiling)
                for factor, label in ((4, "cols"), (2, "rows"),
                                      (search, "search")):
                    scratch = unroll(scratch, factor, label=label)
                assert kernels[search] == standard_cleanup(scratch)
            complete = [f for f in (2, 4, 8) if f >= tiling]
            for factor in complete:
                assert kernels[factor] is kernels[complete[0]]
                shared += factor != complete[0]
            assert kernels[1] is not kernels[complete[0]]
        assert shared == 2 + 2 + 1
