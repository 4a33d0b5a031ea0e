"""The cluster front door: consistent-hash routing with failover.

Speaks the exact single-gateway ``/v1`` protocol (so ``ServerClient``
and ``repro-loadgen`` work against a cluster unchanged) and proxies
every job to the shard that owns its content hash:

- ``POST /v1/jobs[?wait=]`` routes each spec by ``cache_key(spec)``.
  A connection-level failure marks the shard down and *fails over*
  along the key's deterministic preference order; a shard's 503
  *spills* to the next live shard the same way. The router itself
  answers 503 + ``Retry-After`` only when no live shard can admit —
  and because specs are processed in batch order and the first
  unplaceable spec stops the batch, the accepted set is always a
  batch prefix, exactly the partial-batch contract
  ``ServerClient.submit`` retries against.
- ``GET /v1/jobs/{id}`` polls router-minted ids. The router remembers
  every job's spec, so when the owning shard dies mid-flight the job
  is transparently *re-homed*: resubmitted to a live shard under the
  same router id (deterministic specs + the shared content-addressed
  cache make the answer byte-identical, usually without
  re-simulation). While no shard is live the router answers a
  synthetic ``queued`` envelope — clients keep polling; they never
  see a hang or a lost job.
- ``GET /metrics`` aggregates: the router's own ``repro_cluster_*``
  series (shard_up, failovers, restarts, rehash moves, spills,
  re-homes) plus every live shard's full exposition relabelled with
  ``shard="sN"`` — family names are preserved, so dashboards and the
  loadgen per-stage attribution sum across shards unchanged.

``router.slow`` (seeded fault site) injects latency at the top of the
request path.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.cluster.config import ClusterConfig
from repro.cluster.shard import READY
from repro.cluster.supervisor import Supervisor
from repro.errors import ConfigError
from repro.obs.build import build_info
from repro.obs.log import configure_json_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    relabel_prometheus,
)
from repro.server.app import MAX_BODY_BYTES, WRITE_BUFFER_BYTES, _HTTPError
from repro.server.jobs import TERMINAL_STATES
from repro.service.cache import cache_key
from repro.service.spec import SimJobSpec

_logger = get_logger("repro.cluster.router")


class _ForwardError(Exception):
    """A connection-level failure talking to a shard (not an HTTP
    status — those are answers; this is the absence of one)."""


@dataclass
class RouterJob:
    """What the router remembers about one accepted job: enough to
    poll the owner and to re-home the job if the owner dies."""

    id: str
    spec_dict: dict
    key: str
    shard_id: str
    shard_job_id: str
    status: str = "queued"
    created: float = field(default_factory=time.monotonic)


class RouterJobStore:
    """Thread-safe router-id → :class:`RouterJob` map with bounded
    eviction of terminal records (mirrors the gateway's job store)."""

    def __init__(self, max_tracked: int = 16384) -> None:
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, RouterJob] = OrderedDict()
        self._terminal: OrderedDict[str, None] = OrderedDict()
        self._next = 1
        self.max_tracked = max_tracked

    def record(
        self,
        spec_dict: dict,
        key: str,
        shard_id: str,
        shard_job_id: str,
        status: str,
    ) -> RouterJob:
        with self._lock:
            job = RouterJob(
                id=f"cjob-{self._next:08d}",
                spec_dict=spec_dict,
                key=key,
                shard_id=shard_id,
                shard_job_id=shard_job_id,
                status=status,
            )
            self._next += 1
            self._jobs[job.id] = job
            self._note_status_locked(job)
            return job

    def get(self, job_id: str) -> Optional[RouterJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def update_status(self, job_id: str, status: Optional[str]) -> None:
        if not status:
            return
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.status = status
                self._note_status_locked(job)

    def reassign(
        self,
        job_id: str,
        shard_id: str,
        shard_job_id: str,
        status: Optional[str],
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            job.shard_id = shard_id
            job.shard_job_id = shard_job_id
            if status:
                job.status = status
                self._note_status_locked(job)

    def owned_by(self, shard_id: str) -> list[RouterJob]:
        """Non-terminal jobs currently homed on one shard."""
        with self._lock:
            return [
                job
                for job in self._jobs.values()
                if job.shard_id == shard_id
                and job.status not in TERMINAL_STATES
            ]

    def counts(self) -> dict[str, int]:
        with self._lock:
            out: dict[str, int] = {}
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
            return out

    def _note_status_locked(self, job: RouterJob) -> None:
        if job.status in TERMINAL_STATES:
            self._terminal[job.id] = None
            self._terminal.move_to_end(job.id)
            while len(self._terminal) > self.max_tracked:
                evicted, _ = self._terminal.popitem(last=False)
                self._jobs.pop(evicted, None)
        else:
            self._terminal.pop(job.id, None)


class ClusterRouter(ThreadingHTTPServer):
    """Router HTTP server + supervisor + shard fleet, one process."""

    daemon_threads = True

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        if config.log_json:
            configure_json_logging()
        if config.faults is not None:
            faults.install(faults.FaultPlan.parse(config.faults))
        else:
            faults.auto_install()
        self.metrics = MetricsRegistry(namespace="repro_cluster")
        self.jobs = RouterJobStore(max_tracked=config.max_tracked_jobs)
        self.supervisor = Supervisor(
            config, self.metrics, on_failover=self._drain_shard
        )
        self.started_at = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self.metrics.gauge(
            "uptime_seconds", lambda: time.monotonic() - self.started_at
        )
        self.metrics.gauge("build_info", lambda: 1.0, labels=build_info())
        self.metrics.gauge(
            "shards_ready", lambda: float(self.supervisor.ready_count())
        )
        super().__init__((config.host, config.port), _RouterHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self.supervisor.start()
        super().serve_forever(poll_interval=poll_interval)

    def start_background(self) -> str:
        self.supervisor.start()
        self._serve_thread = threading.Thread(
            target=super().serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-cluster-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self.url

    def stop(self) -> None:
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.supervisor.stop()
        self.server_close()

    # ------------------------------------------------------------------
    # Shard I/O
    # ------------------------------------------------------------------
    def _forward(
        self,
        base_url: str,
        method: str,
        path: str,
        body: Optional[dict],
        timeout: float,
    ) -> tuple[int, dict, str]:
        """One proxied round trip; :class:`_ForwardError` on transport
        failure, HTTP error statuses returned as answers."""
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            f"{base_url}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout
            ) as response:
                return (
                    response.status,
                    dict(response.headers),
                    response.read().decode("utf-8"),
                )
        except urllib.error.HTTPError as exc:
            return (
                exc.code,
                dict(exc.headers),
                exc.read().decode("utf-8", errors="replace"),
            )
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise _ForwardError(str(exc))

    def _shard_failed(self, shard_id: str) -> None:
        self.metrics.inc("forward_failures_total", {"shard": shard_id})
        self.supervisor.report_failure(shard_id)

    # ------------------------------------------------------------------
    # Admission with spill + failover
    # ------------------------------------------------------------------
    def submit_spec(
        self, spec_dict: dict, key: str, wait_seconds: float
    ) -> tuple[str, object]:
        """Place one spec on a live shard.

        Returns ``("ok", envelope)`` (router-id rewritten) or
        ``("rejected", retry_after_seconds)`` when no live shard can
        admit it. Walks the key's preference order: the ring owner
        first, then graceful spill — a shard's 503 or connection
        failure moves to the next candidate instead of rejecting the
        client.
        """
        tried: set[str] = set()
        retry_after = self.config.retry_after_seconds
        suffix = f"?wait={wait_seconds:g}" if wait_seconds > 0 else ""
        timeout = self.config.forward_timeout_seconds + wait_seconds
        while True:
            candidates = [
                s
                for s in self.supervisor.candidates(key)
                if s.id not in tried
            ]
            if not candidates:
                return ("rejected", retry_after)
            shard = candidates[0]
            spilled = bool(tried)
            try:
                status, headers, text = self._forward(
                    shard.url, "POST", f"/v1/jobs{suffix}",
                    {"jobs": [spec_dict]}, timeout,
                )
            except _ForwardError as exc:
                tried.add(shard.id)
                self._shard_failed(shard.id)
                _logger.warning(
                    "forward failed; failing over",
                    extra={"shard": shard.id, "detail": str(exc)},
                )
                continue
            payload = _parse_body(text)
            if status in (200, 202):
                envelope = payload["jobs"][0]
                job = self.jobs.record(
                    spec_dict,
                    key,
                    shard.id,
                    envelope["id"],
                    envelope.get("status", "queued"),
                )
                if spilled:
                    self.metrics.inc(
                        "spills_total", {"shard": shard.id}
                    )
                return (
                    "ok", dict(envelope, id=job.id, shard=shard.id)
                )
            if status == 503:
                tried.add(shard.id)
                try:
                    retry_after = float(
                        headers.get(
                            "Retry-After", str(retry_after)
                        )
                    )
                except ValueError:
                    pass
                continue
            raise _HTTPError(
                status if 400 <= status < 500 else 502,
                payload.get("error", text) if payload else text,
            )

    # ------------------------------------------------------------------
    # Polling with re-homing
    # ------------------------------------------------------------------
    def poll_job(self, job_id: str, summary: bool) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HTTPError(
                404, f"unknown (or evicted) job {job_id!r}"
            )
        # A failed owner poll (dead shard, or a 404 from one that
        # restarted with a fresh job store) falls through to re-homing.
        envelope = self._poll_once(job, summary)
        return (
            envelope
            if envelope is not None
            else self._rehome(job, summary=summary)
        )

    def _poll_once(self, job: RouterJob, summary: bool) -> Optional[dict]:
        """Forward one GET poll to the job's current owner; ``None``
        when the owner is absent/not ready or cannot answer 200."""
        shard = self.supervisor.get(job.shard_id)
        if shard is None or shard.state != READY or not shard.url:
            return None
        suffix = "?summary=1" if summary else ""
        try:
            status, _, text = self._forward(
                shard.url,
                "GET",
                f"/v1/jobs/{job.shard_job_id}{suffix}",
                None,
                self.config.forward_timeout_seconds,
            )
        except _ForwardError:
            self._shard_failed(job.shard_id)
            return None
        payload = _parse_body(text)
        if status != 200:
            return None
        self.jobs.update_status(job.id, payload.get("status"))
        return dict(payload, id=job.id, shard=job.shard_id)

    def _rehome(self, job: RouterJob, summary: bool = False) -> dict:
        """Resubmit a job whose owner cannot answer to a live shard,
        keeping the router id. Deterministic specs + the shared
        content-addressed cache keep the result byte-identical."""
        tried: set[str] = set()
        while True:
            candidates = [
                s
                for s in self.supervisor.candidates(job.key)
                if s.id not in tried
            ]
            if not candidates:
                # Nothing can take it *right now* (mass failure or
                # cluster-wide backpressure). Answer a synthetic
                # queued envelope: the client keeps polling and a
                # later poll re-homes — never a hang, never a loss.
                self.metrics.inc("polls_unplaced_total")
                return {
                    "id": job.id,
                    "status": "queued",
                    "spec_hash": job.key,
                    "coalesced": False,
                    "spec": job.spec_dict,
                    "shard": None,
                }
            shard = candidates[0]
            try:
                status, _, text = self._forward(
                    shard.url,
                    "POST",
                    "/v1/jobs",
                    {"jobs": [job.spec_dict]},
                    self.config.forward_timeout_seconds,
                )
            except _ForwardError:
                tried.add(shard.id)
                self._shard_failed(shard.id)
                continue
            payload = _parse_body(text)
            if status in (200, 202):
                envelope = payload["jobs"][0]
                self.jobs.reassign(
                    job.id,
                    shard.id,
                    envelope["id"],
                    envelope.get("status"),
                )
                self.metrics.inc(
                    "jobs_rehomed_total", {"shard": shard.id}
                )
                _logger.info(
                    "job re-homed",
                    extra={"job_id": job.id, "shard": shard.id},
                )
                out = dict(envelope, id=job.id, shard=shard.id)
                if envelope.get("status") in TERMINAL_STATES:
                    # A no-wait POST answers terminal (cache hit)
                    # envelopes without the result payload; follow up
                    # with the GET form so a re-homed poll keeps the
                    # single-gateway contract (done => result).
                    out = self._poll_once(job, summary) or out
                return out
            if status == 503:
                tried.add(shard.id)
                continue
            raise _HTTPError(
                status if 400 <= status < 500 else 502,
                payload.get("error", text) if payload else text,
            )

    def _drain_shard(self, shard_id: str) -> None:
        """Supervisor failover callback: eagerly re-home the dead
        shard's in-flight jobs instead of waiting for client polls."""
        stranded = self.jobs.owned_by(shard_id)
        if not stranded:
            return
        drained = 0
        for job in stranded:
            try:
                self._rehome(job)
                drained += 1
            except _HTTPError:
                pass  # lazy recovery at the job's next poll
        self.metrics.inc(
            "drained_jobs_total", {"shard": shard_id}, value=drained
        )
        _logger.warning(
            "drained in-flight jobs off dead shard",
            extra={"shard": shard_id, "jobs": drained},
        )

    # ------------------------------------------------------------------
    # Aggregated exposition
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        parts = [self.metrics.render()]
        shared = default_registry()
        if not shared.is_empty():
            parts.append(shared.render())
        for shard in self.supervisor.all_shards():
            if shard.state != READY or not shard.url:
                continue
            try:
                status, _, text = self._forward(
                    shard.url, "GET", "/metrics", None,
                    self.config.forward_timeout_seconds,
                )
            except _ForwardError:
                continue
            if status == 200:
                parts.append(
                    relabel_prometheus(text, {"shard": shard.id})
                )
        return "".join(
            part if part.endswith("\n") else part + "\n"
            for part in parts
        )


def create_cluster(
    config: Optional[ClusterConfig] = None,
) -> ClusterRouter:
    """Bind a :class:`ClusterRouter` (shards spawn on serve)."""
    return ClusterRouter(
        config if config is not None else ClusterConfig()
    )


class running_cluster:
    """Context manager: a live background cluster for tests.

    ::

        with running_cluster(ClusterConfig(port=0, shards=3)) as cluster:
            client = ServerClient(cluster.url)
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.cluster = create_cluster(config)

    def __enter__(self) -> ClusterRouter:
        self.cluster.start_background()
        return self.cluster

    def __exit__(self, *exc_info) -> None:
        self.cluster.stop()


class _RouterHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # One send per response, as in the gateway's handler.
    wbufsize = WRITE_BUFFER_BYTES
    disable_nagle_algorithm = True
    server: ClusterRouter  # narrowed type

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def log_message(self, format: str, *args) -> None:
        pass  # telemetry lives in /metrics, not stderr

    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        endpoint, status = "(unmatched)", 500
        try:
            endpoint, handler, arg = self._match(method, split.path)
            faults.sleep_site(faults.ROUTER_SLOW)
            status = handler(arg, query)
        except _HTTPError as exc:
            status = exc.status
            self._send_json(
                exc.status, {"error": str(exc)}, headers=exc.headers
            )
        except Exception as exc:  # never kill the connection thread
            status = 500
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            metrics = self.server.metrics
            metrics.observe(
                "request_seconds",
                time.perf_counter() - started,
                {"endpoint": endpoint},
            )
            metrics.inc(
                "requests_total",
                {"endpoint": endpoint, "status": str(status)},
            )

    def _match(self, method: str, path: str):
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return "GET /healthz", self._healthz, None
        if method == "GET" and parts == ["readyz"]:
            return "GET /readyz", self._readyz, None
        if method == "GET" and parts == ["metrics"]:
            return "GET /metrics", self._metrics, None
        if method == "POST" and parts == ["v1", "jobs"]:
            return "POST /v1/jobs", self._post_jobs, None
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["v1", "jobs"]
        ):
            return "GET /v1/jobs/{id}", self._get_job, parts[2]
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["v1", "results"]
        ):
            return (
                "GET /v1/results/{spec_hash}",
                self._get_result,
                parts[2],
            )
        raise _HTTPError(
            405
            if parts
            in (["v1", "jobs"], ["healthz"], ["readyz"], ["metrics"])
            else 404,
            f"no route for {method} {path}",
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _healthz(self, _arg, _query) -> int:
        server = self.server
        self._send_json(
            200,
            {
                "status": "ok",
                "role": "cluster-router",
                "uptime_seconds": time.monotonic() - server.started_at,
                "shards": server.supervisor.describe(),
                "ring_nodes": sorted(server.supervisor.ring.nodes()),
                "jobs": server.jobs.counts(),
                "faults": faults.describe_active(),
            },
        )
        return 200

    def _readyz(self, _arg, _query) -> int:
        ready_shards = self.server.supervisor.ready_count()
        ready = ready_shards > 0
        status = 200 if ready else 503
        body = {"ready": ready, "ready_shards": ready_shards}
        if not ready:
            body["reason"] = "no shard is ready"
        self._send_json(status, body)
        return status

    def _metrics(self, _arg, _query) -> int:
        body = self.server.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return 200

    def _post_jobs(self, _arg, query) -> int:
        payload = self._read_json()
        if isinstance(payload, dict) and "jobs" in payload:
            raw_specs = payload["jobs"]
            if not isinstance(raw_specs, list):
                raise _HTTPError(400, "'jobs' must be a list of specs")
        elif isinstance(payload, dict):
            raw_specs = [payload]
        else:
            raise _HTTPError(
                400, "body must be a spec object or {'jobs': [...]}"
            )
        if not raw_specs:
            raise _HTTPError(400, "empty job batch")
        if len(raw_specs) > self.server.config.max_batch:
            raise _HTTPError(
                400,
                f"batch of {len(raw_specs)} exceeds max_batch="
                f"{self.server.config.max_batch}",
            )
        try:
            specs = [SimJobSpec.from_dict(d) for d in raw_specs]
        except (ConfigError, TypeError, ValueError) as exc:
            raise _HTTPError(400, f"bad spec: {exc}")
        wait_seconds = self._wait_seconds(query)

        envelopes: list[dict] = []
        rejected_after: Optional[tuple[int, float]] = None
        for i, spec in enumerate(specs):
            outcome, value = self.server.submit_spec(
                spec.to_dict(), cache_key(spec), wait_seconds
            )
            if outcome == "ok":
                envelopes.append(value)
                continue
            # First unplaceable spec ends the batch: accepted jobs
            # stay accepted and form a strict prefix (the client
            # retries the remainder after Retry-After).
            rejected_after = (i, float(value))
            break

        if rejected_after is not None and not envelopes:
            raise _HTTPError(
                503,
                "no shard can admit work",
                headers={"Retry-After": f"{rejected_after[1]:g}"},
            )
        body = {"jobs": envelopes, "accepted": len(envelopes)}
        if rejected_after is not None:
            body["rejected"] = len(specs) - rejected_after[0]
            body["retry_after_seconds"] = rejected_after[1]
            status = 503
            headers = {"Retry-After": f"{rejected_after[1]:g}"}
        else:
            status = 200 if wait_seconds > 0 else 202
            headers = {}
        self._send_json(status, body, headers=headers)
        return status

    def _get_job(self, job_id: str, query) -> int:
        raw = query.get("summary", ["0"])[-1].lower()
        summary = raw not in ("0", "false", "no", "")
        envelope = self.server.poll_job(job_id, summary)
        self._send_json(200, envelope)
        return 200

    def _get_result(self, spec_hash: str, _query) -> int:
        # Any shard can answer from the shared disk cache; the ring
        # owner (preference head) is the best bet for a memory hit.
        for shard in self.server.supervisor.candidates(spec_hash):
            try:
                status, _, text = self.server._forward(
                    shard.url,
                    "GET",
                    f"/v1/results/{spec_hash}",
                    None,
                    self.server.config.forward_timeout_seconds,
                )
            except _ForwardError:
                self.server._shard_failed(shard.id)
                continue
            if status == 200:
                payload = _parse_body(text)
                self._send_json(200, dict(payload, shard=shard.id))
                return 200
        raise _HTTPError(
            404, f"no cached result for spec hash {spec_hash!r}"
        )

    # ------------------------------------------------------------------
    # Plumbing (same contract as the gateway handler)
    # ------------------------------------------------------------------
    def _wait_seconds(self, query) -> float:
        raw = query.get("wait", ["0"])[-1] or "0"
        try:
            seconds = float(raw)
        except ValueError:
            raise _HTTPError(400, f"bad wait value {raw!r}")
        return max(
            0.0, min(seconds, self.server.config.max_wait_seconds)
        )

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HTTPError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}")

    def _send_json(
        self, status: int, obj, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _parse_body(text: str) -> dict:
    try:
        payload = json.loads(text)
        return payload if isinstance(payload, dict) else {}
    except ValueError:
        return {}
