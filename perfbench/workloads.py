"""The three end-to-end workloads (untraced).

``cold-sweep``
    Closed loop, one client, against a fresh ``repro.server``
    (workers=1, memory-only cache). Each job is a substrate the server
    has never profiled, so every job pays stream build, schedule and
    validate.
``hot-hits``
    Open-loop Poisson arrivals at ``HOT_RATES``, and one closed-loop
    client, against one ``repro.server``; every request hits a pool
    warmed during set-up.
``mixed-writes``
    Open-loop Poisson arrivals at ``MIXED_RATES`` through a 2-shard
    ``repro.cluster`` sharing an on-disk cache: ``MISS_SHARE`` of the
    requests are warm-substrate misses (fresh batch size), the rest
    hit the warmed pool.
"""

from __future__ import annotations

import itertools
import random
import statistics
import threading
import time
from pathlib import Path

import hostspeed
import loadgen
import specs
from loadgen import Sample, request
from sut import SUT

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Offered rates (requests/s), lowest first. The lowest is the
#: reference rate that ``latency_*`` and ``miss_p50_ms`` report; the
#: highest saturates the SUT. The hot reference rate is kept low: at
#: 100/s, queueing on a 2-core host turned every slow phase of the
#: host into a p50 up to twice as high.
HOT_RATES = (40.0, 150.0, 1500.0)
MIXED_RATES = (50.0, 70.0, 300.0)
#: p99 latency limits for ``max_rate_rps``.
HOT_LIMIT_MS = 25.0
MIXED_LIMIT_MS = 100.0
#: Share of a run's measuring time over which each rate's arrivals
#: are drawn. The reference rate gets most samples. The top rate's
#: backlog takes longer than its share to drain.
RATE_SHARES = (0.75, 0.07, 0.08)
#: hot-hits gives a quarter of the run to one closed-loop client, whose
#: figures it gates (``ref_*``): a closed loop never leaves the CPU idle,
#: so the host's wake-up stalls, which the host-speed probe cannot see,
#: do not queue its requests.
HOT_SHARES = (0.50, 0.07, 0.08)
CLOSED_SHARE = 0.25
#: The ladder runs this many times, each with its share of every
#: rate, so that each rate's figures average over the whole run rather
#: than over the stretch of it one long phase would get, and so that
#: the host-speed probes between blocks (see ``hostspeed.py``) come
#: every few seconds. The host's speed drifts over seconds to minutes.
LADDER_CYCLES = 12
#: Share of mixed-writes requests that are misses.
MISS_SHARE = 0.3


class Run:
    """Shared state of one workload run: samples, SUTs, lines."""

    def __init__(self, name: str, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        self.checker = specs.Checker()
        self.samples: list[Sample] = []
        self.lines: list[str] = []
        self.notes: dict[str, float] = {}
        self.setup_count = SETUPS

    def say(self, text: str) -> None:
        self.lines.append(f"[{self.name}] {text}")

    def record(self, samples: list[Sample]) -> list[Sample]:
        self.samples.extend(samples)
        return samples

    def setups(self, boot, warm) -> tuple[SUT, float]:
        """Launch a SUT with ``boot()`` and warm it with ``warm(sut)``,
        ``setup_count`` times; keep the last SUT and return it with the
        median set-up time."""
        times, sut = [], None
        for _ in range(self.setup_count):
            if sut is not None:
                sut.stop()
            started = time.perf_counter()
            sut = boot()
            try:
                warm(sut)
            except BaseException:
                sut.stop()
                raise
            times.append(time.perf_counter() - started)
        self.say(
            "set-up s: " + ", ".join(f"{t:.3f}" for t in times)
        )
        return sut, statistics.median(times)

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.samples)

    def errors(self) -> list[str]:
        return sorted({s.error for s in self.samples if s.error})


def _latencies_ms(
    samples: list[Sample], kind: str | None = None, at_ref: bool = False
):
    """Successful latencies in ms; ``at_ref``: at the reference host
    speed (see ``hostspeed.py``)."""
    return [
        (hostspeed.corrected(s.latency, s.ref) if at_ref else s.latency)
        * 1e3
        for s in samples
        if s.error is None and (kind is None or s.kind == kind)
    ]


# ----------------------------------------------------------------------
def cold_sweep(run: Run, seed: int, seconds: float) -> dict:
    sut, setup_s = run.setups(
        lambda: SUT("server", run.workdir), lambda sut: None
    )
    try:
        before = sut.metrics()
        reqs = [request(s, "cold") for s in specs.cold_sweep_specs(seed)]
        samples, elapsed = loadgen.closed_loop(
            sut.url, reqs, run.checker, seconds, hostspeed.probe
        )
        for sample in samples:
            if sample.error is None and not sample.engine_report:
                sample.error = "cold job carried no engine_report"
        run.record(samples)
        _server_counts(run, sut, before)
        rss = sut.peak_rss_mb()
    finally:
        sut.stop()
    lat = _latencies_ms(samples)
    ref_lat = _latencies_ms(samples, at_ref=True)
    # One client: the SUT is busy exactly while a job is out.
    jobs_per_s = len(lat) / (sum(lat) / 1e3)
    run.say(
        f"{len(samples)} jobs in {elapsed:.2f} s (closed loop, 1 client, "
        "host-speed probes between jobs)"
    )
    return {
        "setup_s": setup_s,
        "latency_p50_ms": loadgen.quantile(lat, 0.5),
        "latency_p90_ms": loadgen.quantile(lat, 0.9),
        "latency_p99_ms": loadgen.quantile(lat, 0.99),
        "ref_latency_p50_ms": loadgen.quantile(ref_lat, 0.5),
        "jobs_per_s": jobs_per_s,
        "ref_jobs_per_s": len(ref_lat) / (sum(ref_lat) / 1e3),
        # Closed loop: the sustained rate is the capacity itself.
        "max_rate_rps": jobs_per_s,
        "peak_rss_mb": rss,
    }


def hot_hits(run: Run, seed: int, seconds: float) -> dict:
    pool = specs.hot_pool()

    def warm(sut: SUT) -> None:
        run.record(loadgen.closed_loop(
            sut.url, [request(s, "warm") for s in pool], run.checker,
            float("inf"),
        )[0])

    sut, setup_s = run.setups(lambda: SUT("server", run.workdir), warm)
    rng = random.Random(f"hot-hits:{seed}")

    def closed(block_s: float) -> list[Sample]:
        hits = (request(rng.choice(pool), "hit") for _ in itertools.count())
        return loadgen.closed_loop(sut.url, hits, run.checker, block_s)[0]

    try:
        blocks = _open_blocks(
            run, sut, HOT_RATES, HOT_SHARES, rng,
            lambda times: [
                request(rng.choice(pool), "hit", at) for at in times
            ],
        )
        measured = _ladder(
            run, sut, seconds, [*blocks, ("closed", CLOSED_SHARE, closed)]
        )
        rss = sut.peak_rss_mb()
    finally:
        sut.stop()
    out = _rate_summary(
        run, [(rate, *measured[rate]) for rate in HOT_RATES], HOT_LIMIT_MS
    )
    samples, busy, ref_busy = measured["closed"]
    completed = sum(s.error is None for s in samples)
    run.say(
        f"closed loop, 1 client: {completed} hits in {busy:.2f} s, "
        f"p50 {loadgen.quantile(_latencies_ms(samples), 0.5):.2f} ms"
    )
    out.update(
        ref_latency_p50_ms=loadgen.quantile(
            _latencies_ms(samples, at_ref=True), 0.5
        ),
        jobs_per_s=completed / busy,
        ref_jobs_per_s=completed / ref_busy,
        setup_s=setup_s,
        peak_rss_mb=rss,
    )
    return out


def mixed_writes(run: Run, seed: int, seconds: float) -> dict:
    warm = specs.mixed_warm_specs()
    pool = [spec for shard in warm for spec in shard]

    def warm_up(sut: SUT) -> None:
        # Warm every substrate on every shard, by direct requests to
        # each shard gateway, then touch the pool once through the
        # router so each spec's owner shard holds it in memory.
        threads = [
            threading.Thread(
                target=lambda url=url, shard=shard: run.record(
                    loadgen.closed_loop(
                        url, [request(s, "warm") for s in shard],
                        run.checker, float("inf"),
                    )[0]
                )
            )
            for url, shard in zip(sut.shard_urls(), warm)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        run.record(loadgen.closed_loop(
            sut.url, [request(s, "warm") for s in pool], run.checker,
            float("inf"),
        )[0])

    sut, setup_s = run.setups(
        lambda: SUT("cluster", run.workdir), warm_up
    )
    rng = random.Random(f"mixed-writes:{seed}")
    misses = iter(specs.mixed_miss_specs(seed))

    def make(times: list[float]) -> list:
        """Exactly MISS_SHARE misses, at seeded positions."""
        n_miss = round(len(times) * MISS_SHARE)
        is_miss = [True] * n_miss + [False] * (len(times) - n_miss)
        rng.shuffle(is_miss)
        reqs = []
        for at, miss in zip(times, is_miss):
            if not miss:
                reqs.append(request(rng.choice(pool), "hit", at))
                continue
            spec = next(misses, None)
            if spec is None:
                raise SystemExit(
                    "mixed-writes ran out of distinct misses; "
                    "lower --seconds"
                )
            reqs.append(request(spec, "miss", at))
        return reqs

    try:
        measured = _ladder(run, sut, seconds, _open_blocks(
            run, sut, MIXED_RATES, RATE_SHARES, rng, make
        ))
        rss = sut.peak_rss_mb()
    finally:
        sut.stop()
    per_rate = [(rate, *measured[rate]) for rate in MIXED_RATES]
    out = _rate_summary(run, per_rate, MIXED_LIMIT_MS)
    # At the top rate the senders are never idle: this is the SUT's own
    # completion rate, not the offered one.
    _, top, busy, ref_busy = per_rate[-1]
    completed = sum(s.error is None for s in top)
    reference = per_rate[0][1]
    out.update(
        ref_latency_p50_ms=loadgen.quantile(
            _latencies_ms(reference, at_ref=True), 0.5
        ),
        jobs_per_s=completed / busy,
        ref_jobs_per_s=completed / ref_busy,
    )
    out["miss_p50_ms"] = loadgen.quantile(
        _latencies_ms(reference, "miss"), 0.5
    )
    measured_misses = [s for _, samples, _, _ in per_rate for s in samples
                       if s.kind == "miss"]
    run.say(
        f"{sum(s.engine_report for s in measured_misses)} of "
        f"{len(measured_misses)} misses carried an engine_report "
        "(0 means the set-up warm-up covered every substrate)"
    )
    out.update(setup_s=setup_s, peak_rss_mb=rss)
    return out


# ----------------------------------------------------------------------
def _open_blocks(run: Run, sut: SUT, rates, shares, rng, make):
    """Ladder blocks (see :func:`_ladder`) of open-loop Poisson
    arrivals at each offered rate; ``make(arrival_times)`` builds a
    block's requests."""
    return [
        (
            rate, share,
            lambda block_s, rate=rate: loadgen.open_loop(
                sut.url,
                make(loadgen.poisson_times(rate, block_s, rng)),
                run.checker,
            ),
        )
        for rate, share in zip(rates, shares)
    ]


def _ladder(run: Run, sut: SUT, seconds: float, blocks) -> dict:
    """Runs each ``(key, share, send)`` of ``blocks`` in turn,
    ``LADDER_CYCLES`` times over; ``send(block_s)`` sends one block of
    ``share * seconds / LADDER_CYCLES`` seconds and returns its checked
    samples. The host speed is probed between blocks, while the SUT is
    idle. Returns {key: (samples, busy seconds, busy seconds at the
    reference speed)} and prints the server-side counts."""
    before = sut.metrics()
    sent, probes = [], [hostspeed.probe()]
    for _ in range(LADDER_CYCLES):
        for key, share, send in blocks:
            block = send(seconds * share / LADDER_CYCLES)
            probes.append(hostspeed.probe())
            sent.append((key, run.record(block)))
    _server_counts(run, sut, before)
    out = {key: ([], 0.0, 0.0) for key, _, _ in blocks}
    for (key, block), ref in zip(sent, hostspeed.local_refs(probes)):
        for sample in block:
            sample.ref = ref
        samples, busy, ref_busy = out[key]
        span = loadgen.span(block)
        out[key] = (
            samples + block, busy + span,
            ref_busy + hostspeed.corrected(span, ref),
        )
    return out


def _rate_summary(run: Run, per_rate, limit_ms: float) -> dict:
    """Per-rate lines, reference-rate latency, and ``max_rate_rps``:
    the completion rate at the highest offered rate whose p99 meets
    the limit with no errors and no growing send lag."""
    max_rate = 0.0
    for rate, samples, busy, _ in per_rate:
        stats = loadgen.summarize(samples, busy)
        ok = (
            stats["errors"] == 0
            and stats["p99_ms"] <= limit_ms
            and stats["tail_lag_ms"] <= limit_ms / 5
        )
        if ok:
            max_rate = stats["achieved_rps"]
        run.say(
            f"rate {rate:g}/s: {stats['requests']} requests, "
            f"p50 {stats['p50_ms']:.2f} ms, p99 {stats['p99_ms']:.2f} ms, "
            f"late sends {stats['late']}, tail lag "
            f"{stats['tail_lag_ms']:.2f} ms, errors {stats['errors']}, "
            f"completed {stats['achieved_rps']:.1f}/s -> "
            f"{'meets' if ok else 'misses'} p99 <= {limit_ms:g} ms"
        )
    latencies = _latencies_ms(per_rate[0][1])
    return {
        "latency_p50_ms": loadgen.quantile(latencies, 0.5),
        "latency_p90_ms": loadgen.quantile(latencies, 0.9),
        "latency_p99_ms": loadgen.quantile(latencies, 0.99),
        "max_rate_rps": max_rate,
    }


def _server_counts(run: Run, sut: SUT, before: dict) -> None:
    """Print the server-side counts of the measured phase, read as a
    diff of the public ``/metrics`` endpoint."""
    after = sut.metrics()
    run.notes = counts = server_counts(before, after)
    run.say(
        "server-side: " + ", ".join(
            f"{k} {v:.4g}" for k, v in counts.items()
        )
    )


def server_counts(before: dict, after: dict) -> dict[str, float]:
    def d(series: str) -> float:
        return after.get(series, 0.0) - before.get(series, 0.0)

    waits = d("repro_server_queue_wait_seconds_count")
    return {
        "executions": d("repro_server_executions_total"),
        "cache_hits": d("repro_server_cache_hits_total"),
        "coalesced": d("repro_server_coalesced_total"),
        "queue_wait_ms": (
            d("repro_server_queue_wait_seconds_sum") / waits * 1e3
            if waits else 0.0
        ),
        "forward_failures": d("repro_cluster_forward_failures_total"),
    }


WORKLOADS = {
    "cold-sweep": cold_sweep,
    "hot-hits": hot_hits,
    "mixed-writes": mixed_writes,
}
