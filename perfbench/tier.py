"""One ``repro serve`` deployment under test: launch, probe, stop.

The server runs as its own process tree (``python -m repro serve``,
or the tracing launcher wrapped around the same CLI).  Its output goes
to a log file in the run directory; the port is read from the CLI's
``serving on`` / ``routing on`` line.  Memory and CPU come from
``/proc`` over the whole tree, so a sharded tier counts its router and
every shard worker.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from httpclient import Connection, HttpError

_PORT_LINE = re.compile(r"(?:serving|routing) on http://[^:]+:(\d+)")

#: Seconds a launch may take before the run is abandoned.
LAUNCH_TIMEOUT_S = 120.0


class LaunchError(RuntimeError):
    """The server process exited or never became healthy."""


class Server:
    """One server process tree, from launch to stop.

    Args:
        argv: the full command line (interpreter included).
        log_path: file receiving the server's stdout and stderr.
        env: process environment.
    """

    def __init__(self, argv: list[str], log_path: Path, env: dict):
        self.argv = argv
        self.log_path = log_path
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def start(self) -> "Server":
        """Launch and block until ``/v1/healthz`` answers 200.

        A launch that fails is killed before the error propagates.
        """
        started = time.perf_counter()
        with self.log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT,
                env=self.env, stdin=subprocess.DEVNULL,
            )
        try:
            self._await_healthy(started + LAUNCH_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _await_healthy(self, deadline: float) -> None:
        while self.port is None:
            self._check_alive()
            match = _PORT_LINE.search(
                self.log_path.read_text(errors="replace")
            )
            if match:
                self.port = int(match.group(1))
            elif time.perf_counter() > deadline:
                raise LaunchError("server printed no port in time")
            else:
                time.sleep(0.005)
        conn = Connection("127.0.0.1", self.port, timeout=5.0)
        try:
            while True:
                self._check_alive()
                try:
                    status, _ = conn.request("GET", "/v1/healthz")
                except HttpError:
                    status = None
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise LaunchError("server never became healthy")
                time.sleep(0.005)
        finally:
            conn.close()

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise LaunchError(
                f"server exited with {self.proc.returncode}; see "
                f"{self.log_path.name}:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt (the CLI's graceful shutdown) and wait for exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise LaunchError(f"server ignored SIGINT for {timeout:g}s")

    def kill(self) -> None:
        """SIGKILL the whole tree (a launch whose state is thrown away)."""
        pids = self.pids()
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait(10.0)
        # Descendants are re-parented once the server dies, so they
        # cannot be waited on; poll /proc until they are gone.
        deadline = time.monotonic() + 10.0
        for pid in pids[1:]:
            while Path(f"/proc/{pid}").exists() and (
                    time.monotonic() < deadline):
                time.sleep(0.01)

    # -- /proc probes --------------------------------------------------

    def pids(self) -> list[int]:
        """The server process and all its descendants."""
        if self.proc is None:
            return []
        found = [self.proc.pid]
        i = 0
        while i < len(found):
            for task in Path(f"/proc/{found[i]}/task").glob("*"):
                try:
                    children = (task / "children").read_text().split()
                except OSError:
                    continue
                found.extend(int(c) for c in children if int(c) not in found)
            i += 1
        return found

    def peak_rss_mb(self) -> float:
        """Summed VmHWM (peak resident set) of the process tree, in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds consumed by the process tree."""
        tick = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / tick


def serve_argv(
    checkout: Path,
    spool: Path,
    models: Path,
    config: dict,
    spans: Path | None = None,
) -> list[str]:
    """The ``repro serve`` command line for one workload's tier."""
    head = [sys.executable, "-m", "repro"]
    if spans is not None:
        head = [sys.executable, str(checkout / "perfbench" / "launcher.py"),
                "--spans", str(spans)]
    return head + [
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--spool", str(spool), "--model-dir", str(models),
        "--shards", str(config["shards"]),
        "--workers", str(config["workers"]),
        "--batch-size", str(config["batch_size"]),
        "--pace", repr(float(config["pace_s_per_min"])),
    ]


def server_env(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def metrics_snapshot(port: int) -> dict:
    """``GET /v1/metrics.json`` (shard-labelled when behind a router)."""
    conn = Connection("127.0.0.1", port, timeout=30.0)
    try:
        status, payload = conn.get_json("/v1/metrics.json")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/v1/metrics.json answered {status}")
    return payload


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter over every series matching ``labels``."""
    return sum(
        entry["value"] for entry in snapshot.get("counters", [])
        if entry["name"] == name and all(
            entry["labels"].get(k) == v for k, v in labels.items()
        )
    )


def histogram_totals(snapshot: dict, name: str) -> tuple[float, int]:
    """``(sum, count)`` of a histogram over every label set."""
    total, count = 0.0, 0
    for entry in snapshot.get("histograms", []):
        if entry["name"] == name:
            total += entry["sum"]
            count += entry["count"]
    return total, count


def conservation(snapshot: dict) -> list[str]:
    """Violations of accepted == completed == scored with an empty queue.

    Summed over every shard label; the unlabelled ``serve_queue_depth``
    gauge of each shard is its pending + in-flight total.
    """
    accepted = counter_total(snapshot, "serve_submissions_total")
    completed = counter_total(snapshot, "serve_completed_total")
    scored = counter_total(snapshot, "serve_scored_total")
    depth = sum(
        entry["value"] for entry in snapshot.get("gauges", [])
        if entry["name"] == "serve_queue_depth"
        and "lane" not in entry["labels"]
    )
    problems = []
    if not accepted == completed == scored:
        problems.append(
            f"accepted {accepted:g} != completed {completed:g} "
            f"!= scored {scored:g}"
        )
    if depth:
        problems.append(f"queue depth {depth:g} at the end")
    return problems
