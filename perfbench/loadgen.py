"""The benchmark's own load generator.

One process, at most ``os.cpu_count()`` sender threads, one HTTP
connection per request. Open-loop runs follow a seeded Poisson
schedule and time every request from its *intended* send time, so a
stall is charged to the requests it delays; late sends are counted.
Closed-loop runs send the next request when the previous one returns.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import itertools
import json
import os
import random
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from urllib.parse import urlsplit

import hostspeed
from specs import Checker, canonical, spec_id

#: Server-side wait budget for one job (``POST /v1/jobs?wait=``).
WAIT_S = 60
#: A send more than this late counts as a late send.
LATE_S = 0.005


@dataclass
class Request:
    at: float  # intended send time, seconds from the run's start
    kind: str  # "cold" | "hit" | "miss"
    sid: str
    body: bytes


def request(spec: dict, kind: str, at: float = 0.0) -> Request:
    return Request(at, kind, spec_id(spec), canonical(spec))


@dataclass
class Sample:
    kind: str
    intended: float
    sent: float
    done: float
    error: str | None = None
    engine_report: bool = False
    sid: str = ""
    status: int = 0
    body: bytes | None = None  # the response, until verify() reads it
    ref: float = 0.0  # reference time next to it (see hostspeed.py)

    @property
    def latency(self) -> float:
        return self.done - self.intended

    @property
    def lag(self) -> float:
        return self.sent - self.intended


def post_job(base_url: str, body: bytes) -> tuple[int, bytes]:
    """POST one job and wait for its result, on a fresh connection.

    Like the project's own ``ServerClient`` and the router's forwarder
    (both urllib), each request opens its own connection. A keep-alive
    connection would also measure the gateway's split header/body
    writes stalling on delayed ACKs (about 40 ms per response).
    """
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=WAIT_S + 10
    )
    try:
        conn.request(
            "POST", f"/v1/jobs?wait={WAIT_S}", body,
            {"Content-Type": "application/json", "Connection": "close"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def send(url: str, req: Request, intended: float) -> Sample:
    """One timed request. The response is kept, unparsed, for
    :func:`verify`, so checking costs no time while load runs."""
    sent = time.perf_counter()
    try:
        status, data = post_job(url, req.body)
    except (http.client.HTTPException, OSError) as exc:
        return Sample(
            req.kind, intended, sent, time.perf_counter(),
            f"transport: {exc}",
        )
    return Sample(
        req.kind, intended, sent, time.perf_counter(),
        sid=req.sid, status=status, body=data,
    )


def verify(samples: list[Sample], checker: Checker) -> list[Sample]:
    """Check each kept response byte for byte; frees the bodies."""
    for sample in samples:
        data, sample.body = sample.body, None
        if sample.error is not None:
            continue
        if sample.status != 200:
            sample.error = f"HTTP {sample.status}"
            continue
        try:
            job = json.loads(data)["jobs"][0]
        except (ValueError, KeyError, IndexError):
            sample.error = "malformed envelope"
            continue
        if job.get("status") != "done":
            sample.error = f"job {job.get('status')}: {job.get('error')}"
            continue
        sample.error = checker.check(sample.sid, job.get("result"))
        sample.engine_report = job.get("engine_report") is not None
    return samples


def closed_loop(
    url: str, reqs: Iterable[Request], checker: Checker, seconds: float,
    probe=None,
) -> tuple[list[Sample], float]:
    """One client, next request on completion, until ``seconds`` pass
    or ``reqs`` run out. Returns the samples and the elapsed time.

    With ``probe``, the host speed is probed before the first request
    and after each one, and each sample's ``ref`` is set from the
    probes around it (see ``hostspeed.py``)."""
    samples = []
    with no_gc():
        start = time.perf_counter()
        probes = [probe()] if probe else []
        for req in reqs:
            if time.perf_counter() - start >= seconds:
                break
            samples.append(send(url, req, time.perf_counter()))
            if probe:
                probes.append(probe())
    if probe:
        for sample, ref in zip(samples, hostspeed.local_refs(probes)):
            sample.ref = ref
    end = samples[-1].done if samples else time.perf_counter()
    return verify(samples, checker), end - start


def poisson_times(rate: float, seconds: float, rng: random.Random):
    """Poisson arrivals conditioned on their count: ``rate * seconds``
    uniform times, sorted. Gaps are exponential as in an unconditioned
    Poisson process, but every seed offers exactly the same load."""
    n = round(rate * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def open_loop(
    url: str, reqs: list[Request], checker: Checker
) -> list[Sample]:
    """Send ``reqs`` at their ``at`` offsets from one sender thread per
    CPU."""
    threads = min(os.cpu_count() or 1, len(reqs)) or 1
    samples: list = [None] * len(reqs)
    order = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.02

    def sender() -> None:
        while True:
            with lock:
                i = next(order)
            if i >= len(reqs):
                return
            intended = start + reqs[i].at
            delay = intended - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            samples[i] = send(url, reqs[i], intended)

    pool = [threading.Thread(target=sender) for _ in range(threads)]
    with no_gc():
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    return verify(samples, checker)


@contextlib.contextmanager
def no_gc():
    """Keep the generator's own garbage collector from pausing the
    sender threads (and inflating latencies) while load runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (0 <= q <= 1); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(samples: list[Sample], seconds: float) -> dict:
    """Latency percentiles (ms, errors excluded), lateness, errors,
    and successful completions per second over ``seconds``."""
    good = [s.latency for s in samples if s.error is None]
    lags = [s.lag for s in samples]
    tail = lags[-max(1, len(lags) // 5):]
    return {
        "requests": len(samples),
        "errors": sum(s.error is not None for s in samples),
        "p50_ms": quantile(good, 0.50) * 1e3,
        "p99_ms": quantile(good, 0.99) * 1e3,
        "late": sum(lag > LATE_S for lag in lags),
        "tail_lag_ms": quantile(tail, 0.5) * 1e3 if tail else 0.0,
        "achieved_rps": len(good) / seconds,
    }


def span(samples: list[Sample]) -> float:
    """Seconds from the first intended send to the last completion."""
    return max(s.done for s in samples) - min(s.intended for s in samples)
