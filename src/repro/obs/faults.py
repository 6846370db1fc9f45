"""Deterministic fault injection for the sweep scheduler.

The fault-tolerance layer in :mod:`repro.tuning.scheduler` is only
trustworthy if every recovery path is *exercised*, not merely written.
This module provides the adversary: a :class:`FaultPlan` that makes
specific tasks misbehave in a completely deterministic way, so the
chaos suite can assert exact retry/timeout/quarantine counters instead
of "it probably recovered".

Three fault kinds cover the three failure modes a pool worker has:

``raise``
    the task raises :class:`FaultInjected` (an ordinary exception the
    worker survives — exercises the retry path);
``hang``
    the task sleeps past any reasonable timeout (exercises the
    deadline kill + retry path);
``kill``
    the worker process exits hard with ``os._exit`` (exercises crash
    detection, respawn, and quarantine accounting).

Faults are keyed by *task index within a batch* and fire only while
``attempt <= fault.attempts``, so a retried task succeeds once its
budget of injected failures is spent.  They are applied only inside
pool workers — the engine's serial fallback path never consults the
plan — which preserves the invariant that a faulted sweep still
completes with results bit-identical to a serial run.

Plans are built programmatically (tests) or parsed from the
``REPRO_FAULTS`` environment variable (CI)::

    REPRO_FAULTS="kill:5,raise:2,sim.hang:9:2,hang=30"

Spec grammar, comma-separated items:

* ``kind:index`` — fault on the task at ``index``, first attempt only;
* ``kind:index:attempts`` — fire on the first ``attempts`` attempts;
* ``stage.kind:index[:attempts]`` — restrict to one stage (``sim`` for
  the measurement stage, ``static`` for the static-metric stage);
* ``hang=SECONDS`` — how long a ``hang`` fault sleeps (default 3600);
* ``seed=N`` plus ``p_raise=F`` / ``p_hang=F`` / ``p_kill=F`` — rate
  faults: each (stage, index) pair is hashed with the seed into a
  uniform fraction and faulted when it falls under the cumulative
  rates.  Deterministic for a given seed, no task count needed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Stage names used by the scheduler (and the spec grammar).
SIMULATE_STAGE = "sim"
STATIC_STAGE = "static"
_STAGES = (SIMULATE_STAGE, STATIC_STAGE)

#: Exit status used by ``kill`` faults — distinctive in ``ps``/logs.
KILL_EXIT_CODE = 57

_KINDS = ("raise", "hang", "kill")

#: Environment variable the engine reads a default plan from.
FAULTS_ENV = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """The exception ``raise`` faults throw inside a worker."""


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that cannot be parsed (names the item)."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One injected fault: what happens, to which task, how often."""

    kind: str                    # "raise" | "hang" | "kill"
    index: int                   # task index within the batch
    attempts: int = 1            # fires while attempt <= attempts
    stage: Optional[str] = None  # "sim" | "static" | None (both)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r} (expected one of {_KINDS})"
            )
        if self.stage is not None and self.stage not in _STAGES:
            raise FaultSpecError(
                f"unknown fault stage {self.stage!r} (expected one of {_STAGES})"
            )
        if self.index < 0:
            raise FaultSpecError(f"fault index must be >= 0, got {self.index}")
        if self.attempts < 1:
            raise FaultSpecError(
                f"fault attempts must be >= 1, got {self.attempts}"
            )

    def to_item(self) -> str:
        prefix = f"{self.stage}." if self.stage else ""
        suffix = f":{self.attempts}" if self.attempts != 1 else ""
        return f"{prefix}{self.kind}:{self.index}{suffix}"


class FaultPlan:
    """A deterministic mapping from (stage, task index, attempt) to a fault.

    Picklable and cheap, so it crosses into pool workers with the
    other fork-inherited state.  ``apply`` is the single entry point
    the worker loop calls before running a task.
    """

    def __init__(
        self,
        faults: Sequence[Fault] = (),
        hang_seconds: float = 3600.0,
        seed: int = 0,
        rates: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.hang_seconds = float(hang_seconds)
        self.seed = int(seed)
        self.rates: Dict[str, float] = {}
        for kind, rate in dict(rates or {}).items():
            if kind not in _KINDS:
                raise FaultSpecError(
                    f"unknown rate-fault kind {kind!r} (expected one of {_KINDS})"
                )
            if not 0.0 <= float(rate) <= 1.0:
                raise FaultSpecError(
                    f"rate for {kind!r} must be in [0, 1], got {rate}"
                )
            if rate:
                self.rates[kind] = float(rate)
        self._by_index: Dict[int, List[Fault]] = {}
        for fault in self.faults:
            self._by_index.setdefault(fault.index, []).append(fault)

    # ------------------------------------------------------------------
    # Lookup.

    def fault_for(
        self, stage: str, index: int, attempt: int
    ) -> Optional[Fault]:
        """The fault to inject for this (stage, index, attempt), if any."""
        for fault in self._by_index.get(index, ()):
            if fault.stage not in (None, stage):
                continue
            if attempt <= fault.attempts:
                return fault
        if self.rates and attempt == 1:
            fraction = self._fraction(stage, index)
            floor = 0.0
            for kind in _KINDS:  # fixed order keeps the bands stable
                rate = self.rates.get(kind, 0.0)
                if rate and floor <= fraction < floor + rate:
                    return Fault(kind=kind, index=index, stage=stage)
                floor += rate
        return None

    def _fraction(self, stage: str, index: int) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{stage}:{index}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def expected(self, stage: str, count: int) -> Dict[str, List[int]]:
        """First-attempt faults over a ``count``-task batch, by kind.

        What the chaos suite compares scheduler counters against: the
        plan is deterministic, so the set of tasks that will fault on
        their first dispatch is known before the sweep runs.
        """
        out: Dict[str, List[int]] = {kind: [] for kind in _KINDS}
        for index in range(count):
            fault = self.fault_for(stage, index, 1)
            if fault is not None:
                out[fault.kind].append(index)
        return out

    def __bool__(self) -> bool:
        return bool(self.faults or self.rates)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"

    # ------------------------------------------------------------------
    # Injection (runs inside pool workers).

    def apply(self, stage: str, index: int, attempt: int) -> None:
        """Inject the planned fault, if any, for this task attempt.

        ``raise`` raises :class:`FaultInjected`; ``hang`` sleeps
        ``hang_seconds`` (the scheduler's deadline is expected to kill
        the worker first); ``kill`` exits the process hard, bypassing
        cleanup — exactly what a segfaulted or OOM-killed worker looks
        like from the parent.
        """
        fault = self.fault_for(stage, index, attempt)
        if fault is None:
            return
        if fault.kind == "raise":
            raise FaultInjected(
                f"injected fault: {stage} task {index} attempt {attempt}"
            )
        if fault.kind == "hang":
            time.sleep(self.hang_seconds)
            return
        os._exit(KILL_EXIT_CODE)  # "kill"

    # ------------------------------------------------------------------
    # Spec round trip.

    def to_spec(self) -> str:
        items = [fault.to_item() for fault in self.faults]
        if self.hang_seconds != 3600.0:
            items.append(f"hang={self.hang_seconds:g}")
        if self.rates:
            items.append(f"seed={self.seed}")
            items.extend(
                f"p_{kind}={rate:g}" for kind, rate in sorted(self.rates.items())
            )
        return ",".join(items)

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Parse the ``REPRO_FAULTS`` grammar; ``None``/blank → no plan."""
        if spec is None or not spec.strip():
            return None
        faults: List[Fault] = []
        hang_seconds = 3600.0
        seed = 0
        rates: Dict[str, float] = {}
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            if "=" in item:
                name, _, value = item.partition("=")
                name = name.strip()
                try:
                    if name == "hang":
                        hang_seconds = float(value)
                    elif name == "seed":
                        seed = int(value)
                    elif name.startswith("p_"):
                        rates[name[2:]] = float(value)
                    else:
                        raise FaultSpecError(
                            f"unknown fault option {name!r} in {item!r}"
                        )
                except (TypeError, ValueError) as error:
                    if isinstance(error, FaultSpecError):
                        raise
                    raise FaultSpecError(
                        f"malformed fault option {item!r}: {error}"
                    ) from None
                continue
            head, _, rest = item.partition(":")
            stage = None
            if "." in head:
                stage, _, head = head.partition(".")
            if not rest:
                raise FaultSpecError(
                    f"malformed fault item {item!r} "
                    "(expected [stage.]kind:index[:attempts])"
                )
            parts = rest.split(":")
            try:
                index = int(parts[0])
                attempts = int(parts[1]) if len(parts) > 1 else 1
            except ValueError:
                raise FaultSpecError(
                    f"malformed fault item {item!r}: index and attempts "
                    "must be integers"
                ) from None
            faults.append(
                Fault(kind=head, index=index, attempts=attempts, stage=stage)
            )
        return cls(
            faults=faults, hang_seconds=hang_seconds, seed=seed, rates=rates
        )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """Plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
        environ = os.environ if environ is None else environ
        try:
            return cls.from_spec(environ.get(FAULTS_ENV))
        except FaultSpecError as error:
            raise FaultSpecError(f"{FAULTS_ENV}: {error}") from None


__all__ = [
    "FAULTS_ENV",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultSpecError",
    "KILL_EXIT_CODE",
    "SIMULATE_STAGE",
    "STATIC_STAGE",
]
