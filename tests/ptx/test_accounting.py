"""Text-level PTX accounting agrees with the IR-level analysis."""

import pytest

from repro.ptx import count_instructions, count_regions, emit_ptx
from tests.ptx.accounting import (
    AccountingError,
    text_instruction_count,
    text_region_count,
)
from tests.ptx.parse import parse_ptx
from repro.transforms import COMPLETE, standard_cleanup, unroll
from tests.conftest import build_saxpy, build_tiled_matmul


def both_counts(kernel):
    listing = parse_ptx(emit_ptx(kernel))
    return (
        (text_instruction_count(listing), count_instructions(kernel)[0]),
        (text_region_count(listing), count_regions(kernel)),
    )


class TestAgreement:
    def test_saxpy(self):
        (instr_pair, region_pair) = both_counts(build_saxpy())
        assert instr_pair[0] == instr_pair[1]
        assert region_pair[0] == region_pair[1] == 2

    @pytest.mark.parametrize("n", [32, 64])
    def test_matmul(self, n):
        (instr_pair, region_pair) = both_counts(build_tiled_matmul(n=n))
        assert instr_pair[0] == instr_pair[1]
        assert region_pair[0] == region_pair[1]

    @pytest.mark.parametrize("factor", [2, COMPLETE])
    def test_transformed_matmul(self, factor):
        kernel = standard_cleanup(
            unroll(build_tiled_matmul(n=32), factor, label="inner")
        )
        (instr_pair, region_pair) = both_counts(kernel)
        assert instr_pair[0] == instr_pair[1]
        assert region_pair[0] == region_pair[1]

    def test_application_kernels(self):
        from repro.apps import CoulombicPotential, MriFhd

        for app in (CoulombicPotential(), MriFhd()):
            kernel = app.kernel(app.default_configuration())
            (instr_pair, region_pair) = both_counts(kernel)
            assert instr_pair[0] == pytest.approx(instr_pair[1]), app.name
            assert region_pair[0] == region_pair[1], app.name


class TestWorkedExample:
    def test_paper_numbers_from_text_alone(self):
        """Instr and Regions of the Section 4 example, recomputed the
        way the authors did it — by reading the listing."""
        from repro.apps import MatMul
        from repro.tuning import Configuration

        app = MatMul(n=4096)
        kernel = app.kernel(Configuration({
            "tile": 16, "rect": 1, "unroll": "complete",
            "prefetch": False, "spill": False,
        }))
        listing = parse_ptx(emit_ptx(kernel))
        assert text_region_count(listing) == 769
        assert text_instruction_count(listing) == pytest.approx(15150, rel=0.01)


class TestErrors:
    def test_missing_annotation_rejected(self):
        text = "\n".join([
            ".entry k ()",
            "{",
            "\tmov.s32 \t%i, 0;",
            "$Lt_1:",
            "\tadd.s32 \t%i, %i, 1;",
            "\tsetp.lt.s32 \t%p, %i, 4;",
            "\t@%p bra \t$Lt_1;",
            "\texit;",
            "}",
        ])
        listing = parse_ptx(text)
        with pytest.raises(AccountingError, match="trips"):
            text_instruction_count(listing)
