"""Deterministic fault injection for the serving plane.

The chaos suite needs failures that are *adversarial but reproducible*:
a worker SIGKILL that lands on the same round in every run, a dropped
response frame that always hits request 3, a claim crash that happens
exactly once.  Wall-clock randomness cannot give that, so every
decision here is a pure function of ``(seed, site, counter)``:

    sha256(b"falcon-fault|<seed>|<site>|<counter>")[:8]  <  rate * 2**64

where ``site`` names the injection point (``"kill-worker:3"``,
``"frame:send"``, ``"claim"``, ...) and ``counter`` is how many times
that site has been evaluated so far.  Two runs with the same plan and
the same sequence of operations fire the same faults — regardless of
timing or interleaving of *other* sites.

A :class:`FaultPlan` is inert data; call :meth:`FaultPlan.injector` to
get the stateful :class:`FaultInjector` that owns the per-site counters.
Layers that inject faults accept the *plan* in their constructor and
build their own injector, all in the serving process: the key store
draws the claim and refill faults, the worker pool the kills (so one
kill counter survives worker respawns), the server the wire faults.
Worker processes never see the plan.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "InjectedFault",
]


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault-injection layer.

    Distinct from organic failures so tests can assert that the plane
    failed for the reason the plan dictated and not an unrelated bug.
    """


def _decide(seed: int, site: str, counter: int, rate: float) -> bool:
    """The one deterministic coin: True iff this (site, counter) fires."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    material = b"falcon-fault|%d|%s|%d" % (seed, site.encode("utf-8"), counter)
    draw = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    return draw < int(rate * 2.0**64)


#: The :class:`FaultPlan` fields that are firing probabilities.
_RATES = ("kill_worker", "drop_frame", "truncate_frame", "delay_frame",
          "fail_claim", "crash_claim", "fail_refill")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable description of which faults to inject where.

    Every rate is a probability in [0, 1] evaluated by the
    deterministic coin above; ``max_per_site`` caps how many times any
    single site may fire (0 = unlimited), which is how tests arrange
    "exactly one SIGKILL" without racing on timing.  A rate outside
    [0, 1] (NaN included), a negative cap or a negative delay raises
    ``ValueError``: each would otherwise silently disarm or distort
    the plan (a negative cap reads as already reached).
    """

    seed: int = 0
    # Worker-process faults: hard-exit a shard worker between receiving
    # a round and executing it.  ``kill_worker_shards`` narrows the
    # blast radius to specific shards (None = all shards eligible).
    kill_worker: float = 0.0
    kill_worker_shards: Optional[Tuple[int, ...]] = None
    # Wire faults, evaluated per outbound frame on the server.
    drop_frame: float = 0.0
    truncate_frame: float = 0.0
    delay_frame: float = 0.0
    delay_seconds: float = 0.05
    # Keystore faults.  ``fail_claim`` makes a slot claim raise before
    # touching disk; ``crash_claim`` simulates dying *between* the
    # claim-rename and serving the key (the journal's reason to exist).
    fail_claim: float = 0.0
    crash_claim: float = 0.0
    # Refill faults: ``fail_refill`` makes the background refill raise;
    # ``stall_refill_seconds`` sleeps it first (0 = no stall).
    fail_refill: float = 0.0
    stall_refill_seconds: float = 0.0
    # Cap on fires per site (0 = unlimited).
    max_per_site: int = 0

    def __post_init__(self) -> None:
        for name in _RATES:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in "
                                 f"[0, 1], got {getattr(self, name)}")
        for name in ("delay_seconds", "stall_refill_seconds",
                     "max_per_site"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got "
                                 f"{getattr(self, name)}")

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


@dataclass
class FaultStats:
    """Counts of evaluations and fires, per site, for reporting."""

    evaluated: Dict[str, int] = field(default_factory=dict)
    fired: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {"evaluated": dict(self.evaluated), "fired": dict(self.fired)}


class FaultInjector:
    """Stateful evaluator of a :class:`FaultPlan`.

    Owns the per-site counters (thread-safe: the pool evaluates kills
    from each shard's round thread, the server from multiple asyncio
    callbacks and the keystore from refill threads).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self.stats = FaultStats()

    def _fire(self, site: str, rate: float) -> bool:
        with self._lock:
            count = self._counters.get(site, 0)
            self._counters[site] = count + 1
            self.stats.evaluated[site] = self.stats.evaluated.get(site, 0) + 1
            if (
                self.plan.max_per_site
                and self.stats.fired.get(site, 0) >= self.plan.max_per_site
            ):
                return False
            if not _decide(self.plan.seed, site, count, rate):
                return False
            self.stats.fired[site] = self.stats.fired.get(site, 0) + 1
            return True

    # -- worker faults -------------------------------------------------

    def kill_worker(self, shard: int) -> bool:
        """Should this shard worker hard-exit before running the round?"""
        plan = self.plan
        if plan.kill_worker <= 0.0:
            return False
        if (
            plan.kill_worker_shards is not None
            and shard not in plan.kill_worker_shards
        ):
            return False
        return self._fire("kill-worker:%d" % shard, plan.kill_worker)

    # -- wire faults ---------------------------------------------------

    def frame_action(self, site: str = "frame:send"):
        """None, "drop", "truncate", or ("delay", seconds) for one frame.

        Evaluated in a fixed order (drop, truncate, delay) so a plan
        arming several wire faults stays deterministic.
        """
        plan = self.plan
        if self._fire(site + ":drop", plan.drop_frame):
            return "drop"
        if self._fire(site + ":truncate", plan.truncate_frame):
            return "truncate"
        if self._fire(site + ":delay", plan.delay_frame):
            return ("delay", plan.delay_seconds)
        return None

    # -- keystore faults -----------------------------------------------

    def claim_action(self):
        """None, "fail" (claim raises early) or "crash" (die mid-claim)."""
        plan = self.plan
        if self._fire("claim:fail", plan.fail_claim):
            return "fail"
        if self._fire("claim:crash", plan.crash_claim):
            return "crash"
        return None

    def refill_should_fail(self) -> bool:
        return self._fire("refill:fail", self.plan.fail_refill)

    def refill_stall(self) -> float:
        """Seconds to sleep before attempting the refill (0 = none)."""
        if self.plan.stall_refill_seconds <= 0.0:
            return 0.0
        if self._fire("refill:stall", 1.0):
            return self.plan.stall_refill_seconds
        return 0.0

    # -- helpers -------------------------------------------------------

    def error(self, message: str) -> InjectedFault:
        """Build the canonical injected-fault exception for raising."""
        return InjectedFault(message)
