"""Linear-scan register allocation.

Includes a hypothesis property: linear scan colors interval graphs
optimally, so the register count must always equal the maximum number
of simultaneously-live intervals.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.cubin import allocate, linear_scan, live_intervals, max_pressure
from repro.cubin.liveness import LiveInterval
from repro.ir import DataType, VirtualRegister
from tests.conftest import build_tiled_matmul
from tests.cubin.oracles import linear_scan_reference

F32 = DataType.F32


def make_intervals(ranges):
    return [
        LiveInterval(VirtualRegister(f"r{i}", F32), start, end)
        for i, (start, end) in enumerate(ranges)
    ]


class TestLinearScan:
    def test_disjoint_intervals_share_a_register(self):
        allocation = linear_scan(make_intervals([(0, 1), (2, 3), (4, 5)]))
        assert allocation.registers_used == 1
        assert len(set(allocation.assignment.values())) == 1

    def test_overlapping_intervals_get_distinct_registers(self):
        allocation = linear_scan(make_intervals([(0, 5), (1, 6), (2, 7)]))
        assert allocation.registers_used == 3
        physical = list(allocation.assignment.values())
        assert len(set(physical)) == 3

    def test_adjacent_endpoints_conflict(self):
        # Both endpoints are occupied, so [0,2] and [2,4] overlap.
        allocation = linear_scan(make_intervals([(0, 2), (2, 4)]))
        assert allocation.registers_used == 2

    def test_empty(self):
        assert linear_scan([]).registers_used == 0

    @given(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda pair: (min(pair), max(pair))
        ),
        max_size=40,
    ))
    def test_optimal_for_interval_graphs(self, ranges):
        intervals = make_intervals(ranges)
        allocation = linear_scan(intervals)
        assert allocation.registers_used == max_pressure(intervals)

    @given(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda pair: (min(pair), max(pair))
        ),
        max_size=40,
    ))
    def test_same_assignment_as_quadratic_scan(self, ranges):
        intervals = make_intervals(ranges)
        allocation = linear_scan(intervals)
        assert (allocation.assignment, allocation.registers_used) == (
            linear_scan_reference(intervals)
        )

    @given(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
            lambda pair: (min(pair), max(pair))
        ),
        max_size=40,
    ))
    def test_no_two_overlapping_intervals_share(self, ranges):
        intervals = make_intervals(ranges)
        allocation = linear_scan(intervals)
        for i, first in enumerate(intervals):
            for second in intervals[i + 1:]:
                if first.overlaps(second):
                    assert (
                        allocation.physical(first.register)
                        != allocation.physical(second.register)
                    )


class TestAllocate:
    def test_matmul_allocation_is_deterministic(self):
        kernel = build_tiled_matmul()
        assert (
            allocate(kernel).registers_used == allocate(kernel).registers_used
        )

    def test_reschedule_seed_perturbs(self):
        # The "uncontrollable runtime" hook can change the count.
        kernel = build_tiled_matmul()
        baseline = allocate(kernel).registers_used
        perturbed = {
            allocate(kernel, reschedule_seed=seed).registers_used
            for seed in range(16)
        }
        assert all(count >= baseline for count in perturbed)
        assert max(perturbed) > baseline

    def test_every_app_kernel_allocates_at_max_pressure(self):
        # An independent count (the sorted endpoint sweep of
        # max_pressure) against the allocation, on every configuration
        # of each application's test instance.
        from repro.apps import all_applications

        checked = 0
        for app in all_applications():
            small = app.test_instance()
            for config in small.space():
                intervals = live_intervals(small.kernel(config))
                allocation = allocate(small.kernel(config))
                assert allocation.registers_used == max_pressure(intervals)
                assert allocation.assignment == linear_scan_reference(
                    intervals
                )[0]
                checked += 1
        assert checked > 100
