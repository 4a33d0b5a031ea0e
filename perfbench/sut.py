"""Launch, probe and stop the system under test (SUT).

The SUT is started by exec (``python -m repro.server`` or
``python -m repro.cluster``) in a fresh process group, never forked
from a process that has simulated, so no warm model state leaks in.
It inherits the benchmark's CPU (see ``hostspeed.py``).
It publishes its URL through ``--url-file``; set-up ends when
``/readyz`` answers 200.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from specs import HERE

REPO = HERE.parent
BOOT_TIMEOUT_S = 60.0


def http_get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class SUT:
    """One server (workers=1) or 2-shard cluster process tree."""

    def __init__(self, kind: str, workdir: Path) -> None:
        self.kind = kind
        url_file = workdir / f"{kind}-{time.monotonic_ns()}.url"
        args = ["--port", "0", "--url-file", str(url_file)]
        if kind == "server":
            args += ["--workers", "1"]
        else:
            args += [
                "--shards", "2",
                "--shard-workers", "1",
                "--cache-dir", str(workdir / f"cache-{url_file.stem}"),
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["PYTHONHASHSEED"] = "0"  # same dict layouts in every run
        env.pop("REPRO_FAULTS", None)
        self.log = open(workdir / f"{url_file.stem}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"repro.{kind}", *args],
            cwd=str(workdir),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.child_pids: list[int] = []
        try:
            self.url = self._await_url(url_file, started)
            self._await_ready(started)
            if kind == "cluster":
                self.shard_urls()
        except BaseException:
            self.stop()
            raise

    def _await_url(self, url_file: Path, started: float) -> str:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{self.kind} exited during boot")
            if url_file.exists():
                text = url_file.read_text().strip()
                if text.startswith("http"):
                    return text
            time.sleep(0.01)
        raise RuntimeError(f"{self.kind} published no URL")

    def _await_ready(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            try:
                status, _ = http_get(self.url + "/readyz", timeout=2.0)
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError(f"{self.kind} never became ready")

    # ------------------------------------------------------------------
    def shard_urls(self) -> list[str]:
        """Shard gateway URLs (cluster only), in shard-id order."""
        _, body = http_get(self.url + "/healthz")
        shards = json.loads(body)["shards"]
        self.child_pids = [
            info["pid"] for _, info in sorted(shards.items())
        ]
        return [info["url"] for _, info in sorted(shards.items())]

    def pids(self) -> list[int]:
        if self.kind == "cluster":
            self.shard_urls()
        return [self.proc.pid, *self.child_pids]

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` (peak resident set) of the SUT processes."""
        total_kb = 0
        for pid in self.pids():
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return total_kb / 1024.0

    def metrics(self) -> dict[str, float]:
        """``/metrics`` as {series: value}, summed over shard labels."""
        _, body = http_get(self.url + "/metrics")
        out: dict[str, float] = {}
        for line in body.decode().splitlines():
            if not line or line.startswith("#"):
                continue
            series, _, value = line.rpartition(" ")
            series = re.sub(r'shard="[^"]*",?', "", series)
            series = series.replace(",}", "}").replace("{}", "")
            try:
                out[series] = out.get(series, 0.0) + float(value)
            except ValueError:
                continue
        return out

    def stop(self) -> None:
        """SIGINT the leader (graceful drain), then SIGKILL the group,
        and wait until every process of the tree has ended."""
        pids = list(self.child_pids)
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
        self.log.close()


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
