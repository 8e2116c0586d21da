"""Checkpoint format history: every older stored text, read as today's.

Each format number names one text.  :mod:`repro.store.checkpoint` captures
and restores only :data:`FORMAT`; every older text reaches it through
:func:`upgrade`, one step per number:

* **Format 1** — pending events and peer states as dicts, each link under
  both of its ends, and an ``overlay.nodes`` list nothing read.  The first
  writers left out ``config``'s retry knobs, the overlay's ``rng`` and
  ``maintenance.cold_starts``; later ones wrote a ``runtime`` name and,
  until a run kept one tally, ``config.retry_backoff_*`` and the
  maintenance engine's message copies and reconciliation history.
* **Format 2** — events as rows over ``simulator.keys``, each link's latency
  once, and an ``overlay.peers`` row per adjacency row, ``[role, online,
  summary_peer_id, summary_peer_distance, known_summary_peers]``.  Once a
  peer became its id, the same number was written with ``overlay.offline``.
* **Format 3** — that ``overlay.offline`` text, every key its writer always
  writes present.

1 → 2 is frozen: format-2 deltas stored on format-1 bases were diffed
against its output, ``overlay.peers`` rows and all.  2 → 3 reads only each
row's ``online`` column, and fills each key a restore once defaulted with
that default.  A delta's patch applies to its base upgraded to the delta's
own format; a delta older than its base is refused.

Restore keeps reading every older text through this module: no pass
rewrites a store and no format is refused.  The recorded checkpoints under
``tests/store`` are the contract.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.exceptions import StoreError

#: The format :mod:`repro.store.checkpoint` writes and restores.
FORMAT = 3


def check_format(document: Dict[str, Any], name: str) -> Dict[str, Any]:
    """``document`` itself, once its format is one :func:`upgrade` reads."""
    if document.get("format") not in (1, 2, FORMAT):
        raise StoreError(
            f"unsupported checkpoint format in {name!r}: {document.get('format')!r}"
        )
    return document


def upgrade(payload: Dict[str, Any], to_format: int = FORMAT) -> Dict[str, Any]:
    """A resolved payload as format ``to_format`` stores it (never downgraded)."""
    while payload["format"] < to_format:
        payload = (_from_format_1, _from_format_2)[payload["format"] - 1](payload)
    return payload


def _from_format_1(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Format 1 as format 2 stores it, ``overlay.peers`` rows and all.

    A link whose two ends disagree raises a :class:`~repro.exceptions.NetworkError`.
    """
    from repro.store.checkpoint import (
        _adjacency_rows, _event_key_table, _event_row, _malformed,
    )

    with _malformed("format-1 row"):
        simulator, overlay = payload["simulator"], payload["overlay"]
        events = [
            _event_row(event["time"], event["sequence"], event["label"], event["spec"])
            for event in simulator["events"]
        ]
        links = {node: dict(neighbours) for node, neighbours in overlay["adjacency"]}
        states = {state["peer_id"]: state for state in overlay["peers"]}
        if states.keys() != links.keys():
            raise StoreError("format-1 checkpoint peers do not match its adjacency")
        columns = ("role", "online", "summary_peer_id", "summary_peer_distance",
                   "known_summary_peers")
        peers = [[states[node][key] for key in columns] for node in links]
    upgraded = {"adjacency": _adjacency_rows(links), "peers": peers}
    if "rng" in overlay:
        upgraded["rng"] = overlay["rng"]
    return {
        **payload,
        "format": 2,
        "simulator": {**simulator, "keys": _event_key_table(), "events": events},
        "overlay": upgraded,
    }


def _from_format_2(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A format-2 payload as format 3 stores it."""
    from repro.core.config import ProtocolConfig
    from repro.store.checkpoint import _config_payload, _malformed, _rng_payload

    with _malformed("format-2 overlay row"):
        overlay = dict(payload["overlay"])
        if "peers" in overlay:
            rows = overlay.pop("peers")
            nodes = [node for node, _entries in overlay["adjacency"]]
            if len(rows) != len(nodes):
                raise StoreError(
                    f"checkpoint overlay has {len(nodes)} adjacency rows but "
                    f"{len(rows)} peer rows"
                )
            overlay["offline"] = [node for node, row in zip(nodes, rows) if not row[1]]
    with _malformed("format-2 payload"):
        # The overlay's own stream, as Overlay seeds it, when none was kept.
        overlay.setdefault("rng", _rng_payload(random.Random(0)))
        config, maintenance = payload["config"], payload["maintenance"]
        defaults = _config_payload(ProtocolConfig())
        upgraded = {
            **payload,
            "format": 3,
            "config": {key: config.get(key, value) for key, value in defaults.items()},
            "overlay": overlay,
            "domains": [
                {**domain, "global_summary": domain.get("global_summary")}
                for domain in payload["domains"]
            ],
            "maintenance": {"reconciliations": maintenance["reconciliations"],
                            "cold_starts": maintenance.get("cold_starts", 0)},
        }
        upgraded.pop("runtime", None)
        if upgraded["mode"] == "real":
            upgraded.setdefault("queries", [])
    return upgraded
