"""Affine lane analysis: inferred coalescing and bank conflicts."""

import pytest

from repro.ir import DataType, Dim3, KernelBuilder
from repro.ir.builder import CTAID_X, TID_X, TID_Y
from tests.ptx.affine import (
    Affine,
    analyze_memory_access,
    annotation_mismatches,
    bank_conflict_ways,
    is_coalesced,
)

F32 = DataType.F32


def builder(block=Dim3(32)):
    return KernelBuilder("k", block_dim=block, grid_dim=Dim3(4))


def global_reports(kernel):
    return [r for r in analyze_memory_access(kernel) if r.coalesced is not None]


def shared_reports(kernel):
    return [r for r in analyze_memory_access(kernel) if r.bank_ways is not None]


class TestAffineJudgments:
    def test_unit_stride_coalesces(self):
        assert is_coalesced(Affine(1, 0, 0), block_x=32)

    def test_strided_does_not(self):
        assert not is_coalesced(Affine(2, 0, 0), block_x=32)
        assert not is_coalesced(Affine(0, 0, 0), block_x=32)

    def test_narrow_block_needs_matching_row_stride(self):
        # 8-wide block: a half-warp spans two rows.
        assert is_coalesced(Affine(1, 8, 0), block_x=8)
        assert not is_coalesced(Affine(1, 4096, 0), block_x=8)

    def test_bank_ways(self):
        assert bank_conflict_ways(Affine(1, 0, 0), 32) == 1
        assert bank_conflict_ways(Affine(2, 0, 0), 32) == 2
        assert bank_conflict_ways(Affine(16, 0, 0), 32) == 16
        assert bank_conflict_ways(Affine(0, 0, 0), 32) == 1   # broadcast


class TestInference:
    def test_unit_stride_load(self):
        b = builder()
        x = b.param_ptr("x", F32)
        value = b.ld(x, b.mad(CTAID_X, 32, TID_X))
        b.st(x, TID_X, value)
        reports = global_reports(b.finish())
        assert all(r.coalesced for r in reports)

    def test_strided_load(self):
        b = builder()
        x = b.param_ptr("x", F32)
        value = b.ld(x, b.mul(TID_X, 2))
        b.st(x, TID_X, value)
        load = global_reports(b.finish())[0]
        assert load.coalesced is False

    def test_induction_variable_update_stays_affine(self):
        # indexA-style accumulators: multiple defs, identical lane
        # coefficients.
        b = builder()
        x = b.param_ptr("x", F32)
        index = b.mad(CTAID_X, 64, TID_X)
        acc = b.mov(0.0)
        with b.loop(0, 4):
            value = b.ld(x, index)
            b.add(acc, value, dest=acc)
            b.add(index, 32, dest=index)
        b.st(x, TID_X, acc)
        load = global_reports(b.finish())[0]
        assert load.coalesced is True

    def test_data_dependent_index_unknown(self):
        b = builder()
        idx = b.param_ptr("idx", DataType.S32)
        x = b.param_ptr("x", F32)
        gathered = b.ld(x, b.ld(idx, TID_X))
        b.st(x, TID_X, gathered)
        reports = analyze_memory_access(b.finish())
        gather = [r for r in reports
                  if r.instruction.mem.base.name == "x"
                  and r.instruction.opcode.value == "ld"][0]
        assert gather.shape is None
        assert gather.coalesced is None

    def test_shared_bank_analysis(self):
        b = builder()
        staging = b.shared("staging", F32, (64,))
        out = b.param_ptr("out", F32)
        b.st(staging, TID_X, 1.0)                      # stride 1
        b.st(staging, b.mul(TID_X, 2), 2.0)            # stride 2
        value = b.ld(staging, b.mul(TID_Y, 4))         # broadcast (1-D block)
        b.st(out, TID_X, value)
        reports = shared_reports(b.finish())
        assert [r.bank_ways for r in reports] == [1, 2, 1]


class TestApplicationAnnotations:
    """The hand annotations in every application kernel agree with the
    analysis wherever the analysis is decisive."""

    @pytest.mark.parametrize("app_name", ["matmul", "cp", "sad", "mri-fhd"])
    def test_no_mismatches(self, app_name):
        from repro.apps import all_applications

        app = next(a for a in all_applications() if a.name == app_name)
        for config in list(app.space())[:20]:
            try:
                kernel = app.kernel(config)
            except Exception:
                continue
            assert annotation_mismatches(kernel) == [], dict(config)

    def test_matmul_shared_accesses_conflict_free(self):
        from repro.apps import MatMul
        from repro.tuning import Configuration

        app = MatMul()
        kernel = app.kernel(Configuration({
            "tile": 16, "rect": 2, "unroll": 1,
            "prefetch": False, "spill": False,
        }))
        ways = [r.bank_ways for r in shared_reports(kernel)
                if r.bank_ways is not None]
        assert ways
        assert all(w == 1 for w in ways)

    def test_matmul_8x8_loads_flagged_uncoalesced(self):
        from repro.apps import MatMul
        from repro.tuning import Configuration

        app = MatMul()
        kernel = app.kernel(Configuration({
            "tile": 8, "rect": 1, "unroll": 1,
            "prefetch": False, "spill": False,
        }))
        loads = [r for r in global_reports(kernel)
                 if r.instruction.opcode.value == "ld"]
        assert loads
        assert all(r.coalesced is False for r in loads)
