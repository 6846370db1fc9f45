"""Matrix multiplication application: space, correctness, paper facts."""

import pytest

from repro.apps import MatMul
from repro.arch import LaunchError
from repro.tuning import Configuration
from tests.apps.helpers import check_config_against_reference


@pytest.fixture(scope="module")
def app():
    return MatMul()


@pytest.fixture(scope="module")
def small():
    return MatMul(n=64)


class TestSpace:
    def test_raw_size_is_96(self, app):
        assert app.space().raw_size == 96

    def test_valid_size_close_to_table4(self, app):
        """Table 4 reports 93 valid configurations.

        Our register model invalidates the Figure 3 far-right point
        (complete unroll + prefetch at 1x4) and its spill twin: 94
        valid.  The +-1 versus the paper is documented in
        EXPERIMENTS.md.
        """
        valid = 0
        for config in app.space():
            try:
                app.evaluate(config)
                valid += 1
            except LaunchError:
                pass
        assert valid == 94

    def test_invalid_configs_are_prefetch_rect4(self, app):
        invalid = []
        for config in app.space():
            try:
                app.evaluate(config)
            except LaunchError:
                invalid.append(config)
        assert all(c["prefetch"] and c["rect"] == 4 and c["tile"] == 16
                   for c in invalid)
        # Figure 3's far-right point: complete unroll + prefetch.
        assert any(c["unroll"] == "complete" for c in invalid)

    def test_matrix_size_constraint(self):
        with pytest.raises(ValueError, match="multiple"):
            MatMul(n=100)


class TestCorrectness:
    CONFIGS = [
        {"tile": 16, "rect": 1, "unroll": 1, "prefetch": False, "spill": False},
        {"tile": 8, "rect": 2, "unroll": 2, "prefetch": False, "spill": False},
        {"tile": 8, "rect": 4, "unroll": "complete", "prefetch": True, "spill": False},
        {"tile": 16, "rect": 2, "unroll": "complete", "prefetch": True, "spill": False},
        {"tile": 16, "rect": 1, "unroll": 4, "prefetch": False, "spill": True},
    ]

    @pytest.mark.parametrize("params", CONFIGS,
                             ids=lambda p: f"t{p['tile']}r{p['rect']}u{p['unroll']}"
                                           f"{'p' if p['prefetch'] else ''}"
                                           f"{'s' if p['spill'] else ''}")
    def test_config_matches_numpy(self, small, params):
        check_config_against_reference(small, Configuration(params),
                                       rtol=2e-3, atol=2e-3)


class TestPaperFacts:
    def test_worked_example_resources(self, app):
        """Section 4's complete-unroll kernel: smem 2088, B_SM 2, W_TB 8."""
        config = Configuration({
            "tile": 16, "rect": 1, "unroll": "complete",
            "prefetch": False, "spill": False,
        })
        report = app.evaluate(config)
        assert report.resources.shared_memory_per_block == 2088
        assert report.blocks_per_sm == 2
        assert report.warps_per_block == 8
        assert report.occupancy.limiting_resource == "registers"

    def test_worked_example_regions(self):
        """Regions = 2 barriers + 1 load unit per iteration, plus one.

        At the paper's 4096 size that is 769; the structure is
        size-independent: 3 * (n/16) + 1.
        """
        app = MatMul(n=1024)
        config = Configuration({
            "tile": 16, "rect": 1, "unroll": "complete",
            "prefetch": False, "spill": False,
        })
        report = app.evaluate(config)
        assert report.regions == 3 * (1024 // 16) + 1

    def test_rect4_runs_one_block_per_sm(self, app):
        """Section 3.2: the 1x4 optimum runs a single 256-thread block."""
        config = Configuration({
            "tile": 16, "rect": 4, "unroll": "complete",
            "prefetch": False, "spill": False,
        })
        report = app.evaluate(config)
        assert report.blocks_per_sm == 1
        assert report.occupancy.threads_per_block == 256

    def test_complete_unroll_reduces_registers(self, app):
        """Section 3.2: register usage can drop back at complete unroll."""
        def registers(unroll):
            return app.evaluate(Configuration({
                "tile": 16, "rect": 1, "unroll": unroll,
                "prefetch": False, "spill": False,
            })).resources.registers_per_thread

        assert registers("complete") <= registers(1)

    def test_spilling_reduces_registers(self, app):
        def registers(spill):
            return app.evaluate(Configuration({
                "tile": 16, "rect": 4, "unroll": 1,
                "prefetch": False, "spill": spill,
            })).resources.registers_per_thread

        assert registers(True) < registers(False)

    def test_unrolling_improves_efficiency(self, app):
        def eff(unroll):
            return app.evaluate(Configuration({
                "tile": 16, "rect": 1, "unroll": unroll,
                "prefetch": False, "spill": False,
            })).efficiency

        assert eff(2) > eff(1)
        assert eff(4) > eff(2)
        assert eff("complete") > eff(4)

    def test_rect_tiling_improves_efficiency(self, app):
        def eff(rect):
            return app.evaluate(Configuration({
                "tile": 16, "rect": rect, "unroll": 1,
                "prefetch": False, "spill": False,
            })).efficiency

        assert eff(2) > eff(1)
        assert eff(4) > eff(2)

    def test_work_model(self, app):
        assert app.work_operations() == 2.0 * 1024 ** 3
        assert app.cpu_time_model_seconds() > 0


class TestBuildSharing:
    """A spilled kernel is built from its cached unspilled twin."""

    def test_spilled_build_is_spill_of_unspilled_build(self):
        from repro.apps.matmul import SPILL_COUNT
        from repro.transforms import spill_registers

        for unroll in (1, 4):
            plain = Configuration({"tile": 16, "rect": 2, "unroll": unroll,
                                   "prefetch": True, "spill": False})
            expected = spill_registers(
                MatMul(n=64).build_kernel(plain), SPILL_COUNT
            )
            assert MatMul(n=64).build_kernel(plain.replace(spill=True)) == expected

    def test_spilled_build_reuses_and_keeps_cached_twin(self):
        from repro.ptx import emit_ptx

        fresh = MatMul(n=64)
        plain = Configuration({"tile": 8, "rect": 4, "unroll": 2,
                               "prefetch": False, "spill": False})
        spilled = fresh.kernel(plain.replace(spill=True))
        twin = fresh._kernel_cache[plain]     # built on the way
        assert emit_ptx(twin) == emit_ptx(MatMul(n=64).build_kernel(plain))
        assert emit_ptx(spilled) != emit_ptx(twin)
        assert fresh.kernel(plain) is twin
