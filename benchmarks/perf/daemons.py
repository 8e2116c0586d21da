"""Subprocess hygiene: every daemon the benchmark starts, it also stops.

Daemons run as the program ships them (observability on), bind port 0, are
found through their stdout handshake, shut down through ``/shutdown`` and
killed — with their whole process group, so a supervisor's workers die with
it — on any error path.  ``Sandbox.close`` asserts nothing is left behind.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A request (or a daemon start) slower than this is a failure, never a hang.
REQUEST_TIMEOUT_S = 20.0
START_TIMEOUT_S = 120.0

_READY = re.compile(r"^READY port=(\d+) pid=(\d+)")
_SUPERVISING = re.compile(r" on (http://[0-9.]+:\d+) ")
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def http_text(url: str, method: str = "GET", timeout: float = REQUEST_TIMEOUT_S) -> str:
    request = urllib.request.Request(
        url, data=b"{}" if method == "POST" else None, method=method
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read().decode("utf-8")


def http_json(url: str, method: str = "GET", timeout: float = REQUEST_TIMEOUT_S) -> Dict[str, Any]:
    return json.loads(http_text(url, method, timeout))


def cpu_seconds(pids: List[int]) -> float:
    """utime + stime of the given live processes, from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            # Fields after the parenthesised command name; utime, stime are
            # fields 14 and 15 of the line, i.e. 11 and 12 after the ')'.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS_PER_SECOND


class Daemon:
    """One serving process (a single worker, or a supervisor and its fleet)."""

    def __init__(self, process: subprocess.Popen, url: str, fleet: bool) -> None:
        self.process = process
        self.url = url
        self.fleet = fleet

    def pids(self) -> List[int]:
        """The daemon's process and, for a fleet, its live workers."""
        pids = [self.process.pid]
        if self.fleet:
            health = http_json(self.url + "/health")
            pids += [w["pid"] for w in health["workers"] if w["pid"] is not None]
        return pids

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait(timeout=REQUEST_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def request_stop(self) -> None:
        """Ask for a graceful ``/shutdown``; ``reap`` collects the exit."""
        try:
            http_json(self.url + "/shutdown", method="POST", timeout=5.0)
        except (OSError, ValueError):
            self.kill()

    def reap(self) -> None:
        """Wait for the exit ``request_stop`` asked for; kill what lingers."""
        try:
            self.process.wait(timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        self.kill()


class Sandbox:
    """The run's temp dir and daemons; nothing of either outlives ``close``."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        # Inside the checkout: a run reads and writes nowhere else.
        self.directory = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        #: Every daemon started and not yet collected; the ones asked to stop.
        self.daemons: List[Daemon] = []
        self._stopping: List[Daemon] = []
        self._stores = 0

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def new_store_path(self) -> str:
        self._stores += 1
        return str(self.directory / f"store-{self._stores}.sqlite")

    def start_daemon(
        self,
        store: str,
        name: str,
        fleet: bool,
        background: Optional[str] = None,
    ) -> Daemon:
        """Spawn a daemon and return once its ``/health`` answers."""
        if fleet:
            command = [
                sys.executable, "-m", "repro", "serve", "--store", store,
                "--name", name, "--workers", "2", "--port", "0",
            ]
        else:
            command = [
                sys.executable, "-m", "repro.serve.worker", "--store", store,
                "--name", name, "--port", "0",
            ]
            if background is not None:
                command += ["--background", background]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_RUNTIME"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(self.directory),
            text=True,
            start_new_session=True,
        )
        daemon = Daemon(process, "", fleet)
        self.daemons.append(daemon)
        try:
            daemon.url = self._handshake(process, fleet)
            deadline = time.monotonic() + START_TIMEOUT_S
            while True:
                try:
                    if http_json(daemon.url + "/health", timeout=5.0)["status"] == "ok":
                        return daemon
                except (OSError, ValueError):
                    pass
                if time.monotonic() > deadline or process.poll() is not None:
                    raise RuntimeError(f"daemon never became healthy: {command}")
                time.sleep(0.02)
        except BaseException:
            daemon.kill()
            raise

    @staticmethod
    def _handshake(process: subprocess.Popen, fleet: bool) -> str:
        """Parse the daemon's one stdout line, bounded by the start timeout."""
        box: List[str] = []
        assert process.stdout is not None
        reader = threading.Thread(
            target=lambda: box.append(process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(START_TIMEOUT_S)
        line = box[0] if box else ""
        if fleet:
            match = _SUPERVISING.search(line)
            if match:
                return match.group(1)
        else:
            match = _READY.match(line)
            if match:
                return f"http://127.0.0.1:{match.group(1)}"
        raise RuntimeError(
            f"daemon handshake failed (exit {process.poll()}): {line!r}"
        )

    def stop_daemon(self, daemon: Daemon) -> None:
        """Begin a graceful shutdown; the exit is collected by ``reap``.

        A daemon takes up to a second to notice (a supervisor, two), all of
        it asleep, so the run goes on meanwhile instead of waiting.
        """
        daemon.request_stop()
        self._stopping.append(daemon)

    def discard(self, daemon: Daemon) -> None:
        """Kill a daemon nobody will ask anything more of (a set-up sample)."""
        daemon.kill()
        self.daemons.remove(daemon)

    def reap(self) -> None:
        """Collect every daemon that was asked to stop."""
        for daemon in self._stopping:
            daemon.reap()
            self.daemons.remove(daemon)
        self._stopping.clear()

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.kill()
        survivors = [d.process.pid for d in self.daemons if d.process.poll() is None]
        self.daemons.clear()
        shutil.rmtree(self.directory, ignore_errors=True)
        if survivors or self.directory.exists():
            raise RuntimeError(
                f"benchmark left processes {survivors} or {self.directory} behind"
            )
