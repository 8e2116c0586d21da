"""The CLI runs behind ``golden_figures.json``.

Figures 4–6 are three readings of one maintenance sweep; however that sweep
is scheduled, each figure command must print what it printed when every
figure ran its own simulations.  The SHA-256 of ``repro.cli.main(argv)``'s
stdout was recorded once for each run below, before the figures shared a
sweep, and ``test_golden_figures.py`` holds every later commit to it.  The
runs cover each maintenance figure, ``all`` (where one sweep feeds the three
tables), a single-α ``fig4`` and an ``all`` whose α set differs from
``fig4``'s default.  ROADMAP 2(e)'s tolerance register replaces this golden
once it lands.  Regenerate only for a deliberate change of what a figure
reports::

    PYTHONPATH=src python tests/experiments/golden_figures.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List

from repro.cli import main

FIXTURE = Path(__file__).with_name("golden_figures.json")

_SMALL = ["--sizes", "16,32", "--hours", "1", "--seed", "3", "--json"]

#: Run name -> CLI arguments.
RUNS: Dict[str, List[str]] = {
    "fig4-small": ["fig4", *_SMALL],
    "fig5-small": ["fig5", *_SMALL],
    "fig6-small": ["fig6", *_SMALL],
    "all-small": ["all", *_SMALL],
    "fig4-alpha-0.3": ["fig4", "--alphas", "0.3", "--sizes", "16", "--json"],
    "all-alpha-0.5": ["all", "--alphas", "0.5", "--sizes", "16", "--hours", "1", "--json"],
}


def stdout_digest(argv: List[str]) -> str:
    """SHA-256 of what ``main(argv)`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


if __name__ == "__main__":
    digests = {name: stdout_digest(argv) for name, argv in RUNS.items()}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
