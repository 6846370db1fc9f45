"""Wave-convergence mode: extrapolation fires and stays honest.

PR 2 shipped a convergence predicate that could never fire: the wave
budget was capped at ``simulated_waves``, so the convergence check
always coincided with the final sampled block and there was nothing
left to extrapolate.  This suite is the regression fence around the
fix:

* on a golden application space, convergence mode actually
  extrapolates (``blocks_extrapolated > 0``) and replays strictly
  fewer events than a deep exact run;
* every extrapolated time stays within the configured rtol of the
  deep exact replay, configuration by configuration.
"""

import math

from repro.apps.matmul import MatMul
from repro.sim.config import DEFAULT_SIM_CONFIG

RTOL = 0.05

#: Every 3rd matmul configuration — enough occupancy/loop-shape variety
#: to exercise both convergence modes without sweeping all 96 configs.
GOLDEN_STRIDE = 3


def _golden_apps():
    exact = MatMul()
    deep = MatMul()
    # Deep exact oracle: sample convergence_max_waves waves, no
    # extrapolation — the fidelity the convergence sweep must match.
    deep.sim_overrides = {
        "simulated_waves": DEFAULT_SIM_CONFIG.convergence_max_waves
    }
    approx = MatMul()
    approx.sim_overrides = {"wave_convergence_rtol": RTOL}
    return exact, deep, approx


def _golden_configs(app):
    return [c for c in app.space()][::GOLDEN_STRIDE]


class TestGoldenSpace:
    def test_extrapolation_fires_and_stays_within_rtol(self):
        _, deep, approx = _golden_apps()
        for config in _golden_configs(approx):
            try:
                approx_seconds = approx.simulate(config)
            except Exception:
                continue
            deep_seconds = deep.simulate(config)
            assert math.isclose(
                approx_seconds, deep_seconds, rel_tol=RTOL
            ), (
                f"extrapolated time drifted at {config}: "
                f"{approx_seconds} vs deep exact {deep_seconds}"
            )
        counters = approx.sim_cache.counters()
        assert counters["blocks_extrapolated"] > 0
        assert counters["blocks_replayed"] > 0
        # Extrapolation replaces replay work, it does not add to it.
        assert (counters["events_replayed"]
                < deep.sim_cache.counters()["events_replayed"])

    def test_convergence_telemetry_recorded(self):
        """Converged replays report which wave and which mode fired."""
        app = MatMul()
        app.sim_overrides = {"wave_convergence_rtol": RTOL}
        modes = set()
        for config in _golden_configs(app):
            try:
                result = app.simulate_detailed(config)
            except Exception:
                continue
            sm = result.sm
            if sm.blocks_extrapolated:
                assert sm.converged_wave >= 1
                assert sm.converged_mode in ("analytic", "wave")
                modes.add(sm.converged_mode)
        assert modes, "no configuration converged on the golden space"
