"""``repro serve`` as a real process: banner, answers, SIGTERM drains to exit 0."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient
from repro.store.checkpoint import open_readonly_session
from repro.workloads.queries import paper_example_query

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


@pytest.mark.parametrize("workers", [1, 2])
def test_repro_serve_background_serves_real_content(real_store, workers):
    path, background = real_store
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--store", path,
            "--background", "medical", "--workers", str(workers), "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
        text=True,
    )
    try:
        banner = process.stdout.readline()
        url = re.search(r" on (http://\S+) ", banner).group(1)
        query = paper_example_query()
        with ServeClient(url) as client:
            served = client.query(query=query, include_answer=True)
            with open_readonly_session(path, background=background) as local:
                expected = local.query(query=query, include_answer=True)
            assert served.answer is not None, "the paper query must be answerable"
            assert served == expected
            client.shutdown()
            assert process.wait(timeout=START_TIMEOUT_SECONDS) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()


def test_repro_serve_rejects_unknown_background(planned_store):
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", "--store", planned_store,
            "--background", "nonesuch", "--port", "0",
        ],
        capture_output=True,
        text=True,
        timeout=START_TIMEOUT_SECONDS,
    )
    assert result.returncode == 2
    assert "unknown background knowledge 'nonesuch'" in result.stderr
