"""The traced run: per-layer metrics (``--trace 1``).

Three parts, all driven from this file without edits to the program:

1. **Server-side counts.** A short untraced run of the workload
   against a freshly launched SUT; queue wait, executions and
   coalesced jobs (and router forward failures) are read as a diff of
   the public ``/metrics`` endpoint.
2. **Layer replay.** The workload's request stream is replayed in this
   process along the gateway's path: spec parse and hash, cache
   lookup, execution on a miss, cache write, envelope encode, and the
   router's decode. The layers' public entry points are wrapped (on
   the attribute each caller resolves) to record spans with self time
   and counts. The same replay also runs unwrapped; the ratio of the
   two wall times is ``trace.overhead_ratio``.
3. **Hit probe.** The same cached specs are sent alternately straight
   to a shard gateway and through the router of a 2-shard cluster:
   ``server.hit_ms`` is the direct median, ``cluster.router_overhead_ms``
   the difference of the medians.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import loadgen
import specs
import workloads
from loadgen import Sample, request
from sut import SUT

UNITS = {
    "engine.schedule_s": "s",
    "engine.commands": "count",
    "engine.ns_per_cmd": "ns",
    "engine.sim_cycles": "cycles",
    "model.build_stream_s": "s",
    "model.stream_commands": "count",
    "model.build_ns_per_cmd": "ns",
    "engine.validate_s": "s",
    "engine.validate_ns_per_cmd": "ns",
    "model.profile_self_s": "s",
    "model.profile_calls": "count",
    "model.profile_memo_ratio": "ratio",
    "system.simulate_self_ms": "ms",
    "pool.execute_s": "s",
    "spec.parse_us": "us",
    "spec.hash_us": "us",
    "service.cache_lookup_us": "us",
    "service.cache_write_ms": "ms",
    "cache.hit_ratio": "ratio",
    "serde.encode_ms": "ms",
    "serde.decode_ms": "ms",
    "serde.envelope_kb": "KiB",
    "server.hit_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.executions": "count",
    "server.coalesced": "count",
    "cluster.router_overhead_ms": "ms",
    "cluster.forward_failures": "count",
    "trace.overhead_ratio": "ratio",
}

#: Replay sizes (requests), fixed so counts repeat exactly per seed.
REPLAY_REQUESTS = {"cold-sweep": 12, "hot-hits": 3000, "mixed-writes": 600}
#: Hit-probe rounds over the hot pool (each round: every spec direct
#: and through the router).
PROBE_ROUNDS = 10


class Recorder:
    """Spans of the wrapped layer calls: totals, self times, counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span ``name``; ``after(recorder, args,
        result, frame)`` records counts once it returns."""
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            with recorder.span(name) as frame:
                result = fn(*args, **kwargs)
            if after is not None:
                after(recorder, args, result, frame)
            return result

        return wrapper

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _close(self, name: str, elapsed: float, frame: list) -> None:
        if self.stack:
            self.stack[-1][0] += elapsed
            self.stack[-1][1] += 1
        self.total[name] = self.total.get(name, 0.0) + elapsed
        self.self_time[name] = (
            self.self_time.get(name, 0.0) + elapsed - frame[0]
        )
        self.calls[name] = self.calls.get(name, 0) + 1


class _Span:
    """One span while the recorder is enabled; its frame is
    ``[child time, child spans]``."""

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder, self.name = recorder, name
        self.frame = [0.0, 0]

    def __enter__(self) -> list:
        if self.recorder.enabled:
            self.recorder.stack.append(self.frame)
            self.started = time.perf_counter()
        return self.frame

    def __exit__(self, *exc) -> None:
        if self.recorder.enabled:
            elapsed = time.perf_counter() - self.started
            self.recorder.stack.pop()
            self.recorder._close(self.name, elapsed, self.frame)


def _count_commands(name):
    def after(rec, args, result, frame):
        rec.add(name, len(result.commands))
    return after


def _after_schedule(rec, args, result, frame):
    rec.add("engine.commands", len(args[1]))
    rec.add("engine.sim_cycles", result.total_cycles)


def _after_validate(rec, args, result, frame):
    rec.add("engine.validated", len(args[0]))


def _after_validate_columnar(rec, args, result, frame):
    rec.add("engine.validated", args[0].stream.n)


def _after_profile(rec, args, result, frame):
    if frame[1] == 0:  # no engine work inside: a memo hit
        rec.add("model.profile_memo_hits", 1)


def _after_lookup(rec, args, result, frame):
    rec.add("cache.hits", result is not None)


class Wrapped:
    """Installs the layer wrappers; ``restore()`` puts the originals
    back."""

    def __init__(self, recorder: Recorder) -> None:
        from repro.dram.scheduler import CommandScheduler
        from repro.kernels.aos import AoSKernelGenerator
        from repro.kernels.compiler import UpdateKernelCompiler
        from repro.kernels.streams import BaselineStreamGenerator
        from repro.service import pool
        from repro.service.cache import ResultCache
        from repro.service.spec import SimJobSpec
        from repro.system import update_model
        from repro.system.training import NetworkResult, TrainingSimulator

        build = _count_commands("model.stream_commands")
        targets = [
            (UpdateKernelCompiler, "compile", "model.build_stream", build),
            (BaselineStreamGenerator, "generate", "model.build_stream",
             build),
            (AoSKernelGenerator, "generate", "model.build_stream", build),
            (CommandScheduler, "run", "engine.schedule", _after_schedule),
            (update_model, "validate_trace", "engine.validate",
             _after_validate),
            (update_model, "validate_trace_columnar", "engine.validate",
             _after_validate_columnar),
            (update_model.UpdatePhaseModel, "profile", "model.profile",
             _after_profile),
            (TrainingSimulator, "simulate", "system.simulate", None),
            (pool, "execute_spec", "pool.execute", None),
            (SimJobSpec, "from_dict", "spec.parse", None),
            (SimJobSpec, "content_hash", "spec.hash", None),
            (ResultCache, "get", "service.cache_lookup", _after_lookup),
            (ResultCache, "put", "service.cache_write", None),
            (NetworkResult, "to_dict", "serde.to_dict", None),
            (NetworkResult, "from_dict", "serde.from_dict", None),
        ]
        self.saved = []
        for owner, attr, name, after in targets:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(
                    recorder.timed(name, original.__func__, after)
                )
            else:
                patched = recorder.timed(name, original, after)
            setattr(owner, attr, patched)
            self.saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Layer replay
# ----------------------------------------------------------------------
def _stream(name: str, seed: int):
    """(warm-up specs, replayed (kind, spec) list) for a workload."""
    n = REPLAY_REQUESTS[name]
    if name == "cold-sweep":
        return [], [("cold", s) for s in specs.cold_sweep_specs(seed)[:n]]
    rng = random.Random(f"trace:{name}:{seed}")
    if name == "hot-hits":
        pool = specs.hot_pool()
        return pool, [("hit", rng.choice(pool)) for _ in range(n)]
    pool = [s for shard in specs.mixed_warm_specs() for s in shard]
    misses = iter(specs.mixed_miss_specs(seed))
    return pool, [
        ("miss", next(misses)) if rng.random() < workloads.MISS_SHARE
        else ("hit", rng.choice(pool))
        for _ in range(n)
    ]


def _replay(run, rec: Recorder, warm, stream) -> float:
    """One pass over ``stream`` along the gateway path; returns its
    wall time. Results are digest-checked outside the timed window."""
    from repro.service import pool
    from repro.service.cache import ResultCache
    from repro.service.spec import SimJobSpec
    from repro.system.training import NetworkResult

    cache = ResultCache()
    enabled, rec.enabled = rec.enabled, False
    for spec in warm:
        parsed = SimJobSpec.from_dict(spec)
        cache.put(parsed, pool.execute_spec(parsed))
    rec.enabled = enabled
    checks = []
    started = time.perf_counter()
    for kind, spec in stream:
        body = specs.canonical(spec)
        parsed = SimJobSpec.from_dict(json.loads(body))
        parsed.content_hash()
        result = cache.get(parsed)
        if result is None:
            result = pool.execute_spec(parsed)
            cache.put(parsed, result)
        with rec.span("serde.encode"):
            text = json.dumps({"result": result.to_dict()}, sort_keys=True)
        rec.add("serde.bytes", len(text))
        with rec.span("serde.decode"):
            decoded = NetworkResult.from_dict(json.loads(text)["result"])
        checks.append((kind, spec, decoded))
    wall = time.perf_counter() - started
    enabled, rec.enabled = rec.enabled, False
    now = time.perf_counter()
    for kind, spec, decoded in checks:
        sample = Sample(f"replay-{kind}", now, now, now)
        sample.error = run.checker.check(
            specs.spec_id(spec), decoded.to_dict()
        )
        run.samples.append(sample)
    rec.enabled = enabled
    return wall


def replay_layers(run, seed: int) -> tuple[dict, float, dict]:
    """Three passes over the workload's stream: an unwrapped warm-up
    (first-use costs), a wrapped pass (the layer metrics), and an
    unwrapped pass (the base of ``trace.overhead_ratio``). Returns the
    layer metrics, that ratio, and the wrapped pass's call counts."""
    from repro.service import pool

    warm, stream = _stream(run.name, seed)
    rec = Recorder()
    _replay(run, rec, warm, stream)
    pool.clear_model_cache()
    wrapped = Wrapped(rec)
    try:
        rec.enabled = True
        traced = _replay(run, rec, warm, stream)
    finally:
        rec.enabled = False
        wrapped.restore()
        pool.clear_model_cache()
    plain = _replay(run, rec, warm, stream)
    pool.clear_model_cache()
    return _layer_metrics(rec), traced / plain, rec.calls


def _layer_metrics(rec: Recorder) -> dict:
    t, s, n, c = rec.total, rec.self_time, rec.calls, rec.counts

    def per_call(name, scale):
        return t.get(name, 0.0) / n[name] * scale if n.get(name) else 0.0

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    schedule_s = t.get("engine.schedule", 0.0)
    build_s = t.get("model.build_stream", 0.0)
    validate_s = t.get("engine.validate", 0.0)
    sim_calls = n.get("system.simulate", 0)
    profile_calls = n.get("model.profile", 0)
    lookups = n.get("service.cache_lookup", 0)
    return {
        "engine.schedule_s": schedule_s,
        "engine.commands": c.get("engine.commands", 0),
        "engine.ns_per_cmd": ns_per(schedule_s, c.get("engine.commands")),
        "engine.sim_cycles": c.get("engine.sim_cycles", 0),
        "model.build_stream_s": build_s,
        "model.stream_commands": c.get("model.stream_commands", 0),
        "model.build_ns_per_cmd": ns_per(
            build_s, c.get("model.stream_commands")
        ),
        "engine.validate_s": validate_s,
        "engine.validate_ns_per_cmd": ns_per(
            validate_s, c.get("engine.validated")
        ),
        "model.profile_self_s": s.get("model.profile", 0.0),
        "model.profile_calls": profile_calls,
        "model.profile_memo_ratio": (
            c.get("model.profile_memo_hits", 0) / profile_calls
            if profile_calls else 0.0
        ),
        "system.simulate_self_ms": (
            s.get("system.simulate", 0.0) / sim_calls * 1e3
            if sim_calls else 0.0
        ),
        "pool.execute_s": t.get("pool.execute", 0.0),
        "spec.parse_us": per_call("spec.parse", 1e6),
        "spec.hash_us": per_call("spec.hash", 1e6),
        "service.cache_lookup_us": per_call("service.cache_lookup", 1e6),
        "service.cache_write_ms": per_call("service.cache_write", 1e3),
        "cache.hit_ratio": c.get("cache.hits", 0) / lookups if lookups else 0.0,
        "serde.encode_ms": per_call("serde.encode", 1e3),
        "serde.decode_ms": per_call("serde.decode", 1e3),
        "serde.envelope_kb": (
            c.get("serde.bytes", 0) / n["serde.encode"] / 1024
            if n.get("serde.encode") else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Hit probe
# ----------------------------------------------------------------------
def hit_probe(run) -> tuple[float, float]:
    pool = specs.hot_pool()
    cluster = SUT("cluster", run.workdir)
    try:
        shards = cluster.shard_urls()
        run.record(loadgen.closed_loop(
            cluster.url, [request(s, "warm") for s in pool], run.checker,
            float("inf"),
        )[0])
        for url in shards:  # backfill every shard's memory from disk
            run.record(loadgen.closed_loop(
                url, [request(s, "warm") for s in pool], run.checker,
                float("inf"),
            )[0])
        direct, routed = [], []
        for i, spec in itertools.product(range(PROBE_ROUNDS), pool):
            req = request(spec, "hit")
            for url, out in (
                (shards[i % len(shards)], direct), (cluster.url, routed)
            ):
                out.append(loadgen.send(url, req, time.perf_counter()))
    finally:
        cluster.stop()
    medians = []
    for samples in (direct, routed):
        run.record(loadgen.verify(samples, run.checker))
        medians.append(loadgen.quantile(
            [s.latency * 1e3 for s in samples if s.error is None], 0.5
        ))
    return medians[0], medians[1] - medians[0]


# ----------------------------------------------------------------------
def trace_workload(run, seed: int, seconds: float) -> dict:
    # 1. Server-side counts from a short untraced run with one set-up.
    run.setup_count = 1
    workloads.WORKLOADS[run.name](run, seed, seconds / 3)
    counts = run.notes
    # 2. Layer replay: warm-up, wrapped, then plain.
    layers, overhead, calls = replay_layers(run, seed)
    # 3. Direct vs routed hits.
    hit_ms, router_ms = hit_probe(run)
    layers.update({
        "server.hit_ms": hit_ms,
        "server.queue_wait_ms": counts["queue_wait_ms"],
        "server.executions": counts["executions"],
        "server.coalesced": counts["coalesced"],
        "cluster.router_overhead_ms": router_ms,
        "cluster.forward_failures": counts["forward_failures"],
        "trace.overhead_ratio": overhead,
    })
    covered = (
        layers["engine.schedule_s"] + layers["model.build_stream_s"]
        + layers["engine.validate_s"]
    )
    job_s = layers["pool.execute_s"]
    if covered:
        run.say(
            f"schedule + build_stream + validate cover {covered / job_s:.1%}"
            " of job time"
        )
    if run.name == "cold-sweep" and covered < 0.8 * job_s:
        run.samples.append(Sample(
            "replay-cold", 0.0, 0.0, 0.0,
            "schedule + build_stream + validate cover under 80% of "
            "cold job time",
        ))
    if run.name == "hot-hits" and (
        calls.get("engine.schedule") or calls.get("model.build_stream")
    ):
        run.samples.append(Sample(
            "replay-hit", 0.0, 0.0, 0.0,
            "hot-hits called the scheduler or a kernel generator",
        ))
    return layers
