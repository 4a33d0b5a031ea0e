"""Job records and the bounded job store backing ``/v1/jobs``.

Every spec accepted by ``POST /v1/jobs`` becomes one :class:`Job` with
a server-unique id, a lifecycle (``queued`` → ``running`` → ``done`` |
``error`` | ``timed_out`` | ``quarantined``), and a completion event
request threads can block on (``?wait=``). The failure states are
*terminal* — a job whose worker was killed, whose deadline expired, or
whose spec was quarantined finishes with a classified state a client
can act on, never an eternal ``running``. The store caps retained
*finished* jobs so a long-lived server doesn't accumulate history
without bound; queued/running jobs are never evicted.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.server.wire import RawJSON
from repro.service.api import SimJobResult
from repro.service.cache import CacheEntry
from repro.service.spec import SimJobSpec

#: Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
TIMED_OUT = "timed_out"
QUARANTINED = "quarantined"

#: States a client can stop polling at.
TERMINAL_STATES = frozenset({DONE, ERROR, TIMED_OUT, QUARANTINED})


def classify_outcome(outcome: SimJobResult) -> str:
    """The terminal lifecycle state one outcome maps to."""
    if outcome.ok:
        return DONE
    if outcome.status == "failed" and outcome.failure is not None:
        if outcome.failure.get("quarantined"):
            return QUARANTINED
        if outcome.failure.get("timed_out"):
            return TIMED_OUT
    return ERROR


@dataclass
class Job:
    """One accepted simulation request."""

    id: str
    spec: SimJobSpec
    key: str  # content address (spec hash | code version)
    status: str = QUEUED
    #: True when this request attached to an execution another request
    #: had already started (in-flight coalescing).
    coalesced: bool = False
    outcome: Optional[SimJobResult] = None
    #: The outcome's result with its wire text (shared with the result
    #: cache), set when the job finishes with a result.
    entry: Optional[CacheEntry] = None
    created: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def envelope(self, include_result: bool = True) -> dict:
        """The ``GET /v1/jobs/{id}`` envelope, for :func:`wire.encode`.

        The result rides as :class:`~repro.server.wire.RawJSON` over
        the entry's stored text, so it is never re-encoded per response.
        """
        out = {
            "id": self.id,
            "status": self.status,
            "spec_hash": self.key,
            "coalesced": self.coalesced,
        }
        if self.outcome is not None:
            envelope = self.outcome.to_dict(include_result=False)
            envelope.pop("key", None)  # already present as spec_hash
            envelope.pop("status", None)  # lifecycle status wins
            out.update(envelope)
            if include_result and self.entry is not None:
                out["result"] = RawJSON(self.entry.text)
        else:
            out["spec"] = self.spec.to_dict()
        return out


class JobStore:
    """Thread-safe id → :class:`Job` map with finished-job eviction."""

    def __init__(self, max_finished: int = 4096) -> None:
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._finished: OrderedDict[str, None] = OrderedDict()
        self._ids = itertools.count(1)
        self.max_finished = max_finished

    def create(self, spec: SimJobSpec, key: str) -> Job:
        with self._lock:
            job = Job(id=f"job-{next(self._ids):08d}", spec=spec, key=key)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def discard(self, job_id: str) -> None:
        """Forget a job that was never admitted (backpressure path)."""
        with self._lock:
            self._jobs.pop(job_id, None)

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.status == QUEUED:
                job.status = RUNNING

    def finish(
        self,
        job_id: str,
        outcome: SimJobResult,
        entry: Optional[CacheEntry] = None,
    ) -> None:
        """Record the outcome and wake any ``?wait=`` blockers.

        ``entry`` is the cache entry holding ``outcome.result`` (``None``
        for an outcome without one); the cache stores the same entry, so
        its wire text is encoded once for every response.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            job.outcome = outcome
            job.entry = entry
            job.status = classify_outcome(outcome)
            job.finished = time.monotonic()
            self._finished[job_id] = None
            while len(self._finished) > self.max_finished:
                evicted, _ = self._finished.popitem(last=False)
                self._jobs.pop(evicted, None)
        job.done_event.set()

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state (gauges for ``/metrics``)."""
        out = {
            QUEUED: 0,
            RUNNING: 0,
            DONE: 0,
            ERROR: 0,
            TIMED_OUT: 0,
            QUARANTINED: 0,
        }
        with self._lock:
            for job in self._jobs.values():
                out[job.status] += 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
