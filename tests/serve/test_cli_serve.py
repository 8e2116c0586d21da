"""``repro serve`` as a real process: banner, answers, SIGTERM drains to exit 0."""

import os
import re
import signal
import subprocess
import sys
import time

from repro.serve import ServeClient
from repro.store.checkpoint import open_readonly_session

REQUIRED = 5
START_TIMEOUT_SECONDS = 60.0


def test_repro_serve_answers_then_drains_on_sigterm(planned_store):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--store", planned_store,
            "--name", "session", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
        text=True,
    )
    try:
        banner = process.stdout.readline()
        url = re.search(r" on (http://\S+) ", banner).group(1)
        with ServeClient(url) as client:
            deadline = time.monotonic() + START_TIMEOUT_SECONDS
            while client.health()["status"] != "ok":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            with open_readonly_session(planned_store) as local:
                assert client.query(required_results=REQUIRED) == local.query(
                    required_results=REQUIRED
                )
            # The client still holds its kept-alive connection: a clean exit
            # proves the daemon ended it rather than dying under it.
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=START_TIMEOUT_SECONDS) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
