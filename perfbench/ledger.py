"""Per-layer self time, taken by wrapping the program's public functions.

The benchmark adds no spans inside ``src/``.  Instead it replaces each
layer's entry points *at the name its caller looks them up by* — a
module attribute such as ``repro.sim.gpu.simulate_sm`` (imported by
name into ``repro.sim.gpu``) or a class attribute such as
``ExecutionEngine.evaluate_all`` — with a timing wrapper.  Wrappers
nest: a layer's self time is its calls' wall time minus the time of
the wrapped calls made inside them, so self times add up to the time
spent inside any layer, and whatever the wrappers never saw is
reported as ``unattributed``.

Accumulators are per thread (the daemon runs sweeps on executor
threads and the fast lane on the event loop), merged when read.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: (layer, module, attribute path) — every place a caller looks a
#: layer's public function up by name.  A missing point is skipped and
#: listed by :meth:`Ledger.install`, so its time shows as unattributed.
WRAP_POINTS = [
    ("apps.build_kernel", "repro.apps.matmul", "MatMul.build_kernel"),
    ("apps.build_kernel", "repro.apps.cp", "CoulombicPotential.build_kernel"),
    ("apps.build_kernel", "repro.apps.sad", "SumOfAbsoluteDifferences.build_kernel"),
    ("apps.build_kernel", "repro.apps.mri_fhd", "MriFhd.build_kernel"),
    ("transforms.unroll", "repro.apps.matmul", "unroll"),
    ("transforms.unroll", "repro.apps.sad", "unroll"),
    ("transforms.unroll", "repro.apps.mri_fhd", "unroll"),
    ("transforms.cleanup", "repro.apps.matmul", "standard_cleanup"),
    ("transforms.cleanup", "repro.apps.cp", "standard_cleanup"),
    ("transforms.cleanup", "repro.apps.sad", "standard_cleanup"),
    ("transforms.cleanup", "repro.apps.mri_fhd", "standard_cleanup"),
    ("transforms.other", "repro.apps.matmul", "prefetch_global_loads"),
    ("transforms.other", "repro.apps.matmul", "spill_registers"),
    ("metrics", "repro.apps.base", "evaluate_kernel"),
    ("cubin", "repro.metrics.model", "cubin_info"),
    ("cubin", "repro.sim.gpu", "cubin_info"),
    ("ptx", "repro.metrics.model", "profile_kernel"),
    ("sim.fingerprint", "repro.apps.base", "kernel_fingerprint"),
    ("sim.fingerprint", "repro.sim.gpu", "kernel_fingerprint"),
    ("sim.gpu", "repro.apps.base", "simulate_kernel"),
    ("sim.gpu", "repro.sim.batch", "simulate_kernel"),
    ("sim.trace", "repro.sim.gpu", "build_trace"),
    ("sim.compile_trace", "repro.sim.gpu", "compile_trace"),
    ("sim.compile_trace", "repro.sim.sm", "compile_trace"),
    ("sim.sm", "repro.sim.gpu", "simulate_sm"),
    ("tuning.engine", "repro.tuning.engine", "ExecutionEngine.evaluate_all"),
    ("tuning.engine", "repro.tuning.engine", "ExecutionEngine.seconds_for"),
    ("tuning.select", "repro.tuning.search", "select_timed"),
    ("tuning.select", "repro.service.daemon", "select_timed"),
    ("store.load", "repro.store.disk", "ResultStore.load"),
    ("store.load_many", "repro.store.disk", "ResultStore.load_many"),
    ("store.store", "repro.store.disk", "ResultStore.store"),
]

#: every layer, in report order
LAYERS = list(dict.fromkeys(layer for layer, _module, _path in WRAP_POINTS))


class Ledger:
    """Self time and call counts per layer, across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables = []           # one (self_s, calls) pair per thread
        self._tables_lock = threading.Lock()
        self._patches = []          # (owner, attribute, original)
        self.missing = []           # wrap points not found at install

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = ({}, {}, [])    # self seconds, calls, child-time stack
            self._local.table = table
            with self._tables_lock:
                self._tables.append(table)
        return table

    def wrap(self, layer, function):
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            self_s, calls, stack = self._table()
            stack.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - children
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def install(self) -> None:
        self.missing = []
        for layer, module_name, path in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[name] if isinstance(owner, type) \
                    else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, name, self.wrap(layer, original))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def totals(self):
        """``({layer: self seconds}, {layer: calls})`` over all threads."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        with self._tables_lock:
            for table_s, table_calls, _stack in self._tables:
                for layer, value in table_s.items():
                    self_s[layer] += value
                for layer, value in table_calls.items():
                    calls[layer] += value
        return self_s, calls
