"""Session checkpoint/restore: persist a whole :class:`NetworkSession`.

A checkpoint captures everything a running session is made of — overlay graph
and which peers are offline, domains with their cooperation lists and global
summaries, protocol configuration, content model (plan + RNG state), the
message counter, the reconciliation and cold-start counts, the simulator
clock and every pending churn/modification event — so that a session
restored with :meth:`repro.core.session.SystemBuilder.from_checkpoint`
continues *byte identically*: subsequent query routing, staleness snapshots
and traffic reports match the never-persisted session exactly.

Hierarchies (local summaries, global summaries) are not inlined: they are
filed in the same backend's content-addressed :class:`SnapshotStore` and the
checkpoint references them by hash, so identical hierarchies are stored once
across peers, checkpoints and runs.

Delta checkpoints
-----------------
``save_session(..., base=<name>)`` persists a *delta*: a structural patch
(:mod:`repro.store.deltas`) against the resolved payload of the ``base``
checkpoint, instead of the full document.  Between two nearby simulation
times most of a checkpoint — the overlay adjacency, domains, the assignment —
is unchanged, so the delta is a small fraction of the full size.  Restoring
a delta resolves its base chain first (a delta may build on another delta)
and replays the patches; the resolved payload is byte-identical to what a
full checkpoint at the same moment would have stored, so every continuation
guarantee below applies unchanged.

A delta save costs what changed since its base, plus one look at what did
not: each link of the base chain is read and parsed once (the walk that
guards against cycles is the walk the base payload is replayed from), the
diff confirms unchanged subtrees once per container and is a function of
the two stored texts alone (:mod:`repro.store.deltas`), and hierarchies are
filed by stamp — one that has not moved since it was last addressed, and
whose address the *destination* store already holds, is referenced without
being encoded again
(:meth:`~repro.store.snapshots.SnapshotStore.missing_snapshot`).  Nothing
about that memo enters a checkpoint, and the base is not kept resident
between saves: it is parsed again by the next delta.

A capture is laid out as the store will parse it back: every dict lists its
keys sorted, the order the backend writes them (literals are written in
that order; a ``state_payload()`` that keeps another order is sorted here),
and an overlay's adjacency rows are built on its first capture and kept,
weakly keyed by the overlay, since its links are fixed once it is built.
Where nothing moved, a fresh capture is then ``marshal``-identical to the
parsed base, and the diff confirms it without encoding either side.

Format 3
--------
A checkpoint writes each fact once (older formats: :mod:`repro.store.migrate`):

* ``simulator.events`` — one row per pending event,
  ``[time, sequence, key_index, *values]``.  ``key_index`` points into
  ``simulator.keys``, a fixed table of ``[kind, key, ...]`` entries, one per
  spec shape :meth:`SummaryManagementSystem.event_callback_from_spec`
  knows (optional keys included); the values follow the entry's keys.  The
  event's label is its spec's ``kind``, and a departure's ``depart_at`` is
  its fire time unless the row's entry names it.  The table is the same in
  every checkpoint, so a delta's patch of the queue is a splice.
* ``overlay.adjacency`` — ``[peer, [entry, ...]]`` per peer, neighbours in
  their order.  An entry is ``[neighbour, latency]`` when the neighbour's
  row comes later, and the bare neighbour id when it came earlier (its row
  holds the latency): each link's latency is written once.
* ``overlay.offline`` — the ids of the offline peers, in adjacency-row
  order.  A peer is its id: which domain it belongs to is the
  ``assignment`` and the domains' cooperation lists, so the overlay keeps
  no other per-peer state.  An id that names no adjacency row raises a
  :class:`~repro.exceptions.StoreError`.

Restore reads this one text by its exact keys: a missing key, or a malformed
row, raises a :class:`~repro.exceptions.StoreError`, and a link given two
latencies, or one end only, a :class:`~repro.exceptions.NetworkError`.

Determinism notes
-----------------
* Pending simulator events carry declarative specs (see
  :meth:`SummaryManagementSystem.schedule_event_from_spec`); their original
  sequence numbers are preserved so same-timestamp ties break as in the
  uninterrupted run.
* The overlay's links are written and read in their exact per-peer order:
  neighbour order feeds the selective walk's tie-breaking RNG, so
  byte-identical continuation needs the exact order, which an edge list
  cannot carry.
* Dict insertion orders that are protocol-visible (domain visit order,
  cooperation-list partner order, partner distances) are serialized as
  ordered lists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import random
import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.config import ProtocolConfig
from repro.core.content import PlannedContentModel, SummaryContentModel
from repro.core.cooperation import CooperationList
from repro.core.domain import Domain
from repro.core.freshness import Freshness, FreshnessMode
from repro.core.protocol import SummaryManagementSystem
from repro.exceptions import NetworkError, StoreError
from repro.network.metrics import MessageCounter
from repro.network.overlay import Overlay
from repro.store.backend import StoreBackend, open_store, owns_backend
from repro.store.deltas import apply_patch, diff_documents
from repro.store.lazy import HierarchySource, StoredSnapshot
from repro.store.migrate import FORMAT, check_format, upgrade
from repro.store.snapshots import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.service import LocalSummaryService
    from repro.core.session import NetworkSession, ReadOnlyNetworkSession
    from repro.database.engine import LocalDatabase
    from repro.fuzzy.background import BackgroundKnowledge
    from repro.runtime import RuntimeSpec
    from repro.saintetiq.hierarchy import SummaryHierarchy

#: The namespace checkpoints are filed under in any backend.
CHECKPOINT_KIND = "checkpoint"
#: Default checkpoint name when the caller does not pick one.
DEFAULT_CHECKPOINT_NAME = "session"

#: What a real query reaches past the system (which binds reformulation itself):
#: a real-content restore imports it, so that no answer imports a module.
_REAL_QUERY_MODULES = ("repro.saintetiq.serialization", "repro.querying.engine")


# -- small codec helpers ----------------------------------------------------------


def _rng_payload(rng: random.Random) -> List[object]:
    version, internal, position = rng.getstate()
    return [version, list(internal), position]


def _stored_order(node: Any) -> Any:
    """``node`` with every dict's keys in the order the store writes them."""
    if isinstance(node, dict):
        return {key: _stored_order(node[key]) for key in sorted(node)}
    if isinstance(node, list):
        return [_stored_order(item) for item in node]
    return node


def _rng_restore(rng: random.Random, payload: List[object]) -> None:
    version, internal, position = payload
    rng.setstate((version, tuple(internal), position))


@contextlib.contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Report a row too short, too long or of the wrong types as a StoreError."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed checkpoint {what}: {error!r}") from error


# -- overlay ----------------------------------------------------------------------


def _adjacency_rows(links: Dict[str, Dict[str, float]]) -> List[List[Any]]:
    """Each peer's neighbours in their order, each link's latency written once.

    A neighbour whose row came earlier is its bare id (its row holds the
    latency); one still to come is ``[id, latency]``.
    """
    rows: List[List[Any]] = []
    written: set = set()
    for node, neighbours in links.items():
        entries: List[Any] = []
        for neighbour, latency in neighbours.items():
            if neighbour not in written:
                entries.append([neighbour, latency])
            elif links[neighbour].get(node) == latency:
                entries.append(neighbour)
            else:
                raise NetworkError(
                    f"link {node!r} -> {neighbour!r} is one-sided or unequal"
                )
        rows.append([node, entries])
        written.add(node)
    return rows


#: Each overlay's adjacency rows, built on its first capture: its links are
#: fixed once it is built.  Held only while the overlay lives.
_ROWS: "weakref.WeakKeyDictionary[Overlay, List[List[Any]]]" = weakref.WeakKeyDictionary()


def _overlay_payload(overlay: Overlay) -> Dict[str, Any]:
    links, online = overlay.links, overlay.online_ids
    rows = _ROWS.get(overlay)
    if rows is None:
        rows = _ROWS[overlay] = _adjacency_rows(links)
    return {
        # Per-node adjacency in its exact iteration order (see module notes).
        "adjacency": rows,
        # The offline peers, in adjacency-row order.
        "offline": [peer_id for peer_id in links if peer_id not in online],
        # The overlay's own tie-breaking RNG (used when a selective walk is
        # invoked without an explicit one): its state must survive restore or
        # post-restore default walks would diverge from the live session.
        "rng": _rng_payload(overlay.rng),
    }


@_malformed("overlay row")
def _overlay_from_payload(payload: Dict[str, Any]) -> Overlay:
    links: Dict[str, Dict[str, float]] = {}
    for node, entries in payload["adjacency"]:
        if node in links:
            raise NetworkError(f"peer {node!r} has two adjacency rows")
        neighbours = links[node] = {}
        for entry in entries:
            if isinstance(entry, list):
                neighbour, latency = entry
                if neighbour in links:
                    raise NetworkError(
                        f"link {node!r} -> {neighbour!r} is given a latency twice"
                    )
                neighbours[neighbour] = latency
            else:
                # A bare id: its row came earlier and holds the latency.
                earlier = links.get(entry)
                latency = None if earlier is None else earlier.get(node)
                if latency is None or entry in neighbours:
                    raise NetworkError(
                        f"link {node!r} -> {entry!r} names no earlier row "
                        "that links back: one-sided or unknown"
                    )
                neighbours[entry] = latency
    offline = payload["offline"]
    if not isinstance(offline, list):
        raise StoreError(f"checkpoint overlay offline ids are not a list: {offline!r}")
    # ``Overlay`` rejects a one-sided, unequal or dangling link with a NetworkError.
    overlay = Overlay(links)
    _rng_restore(overlay.rng, payload["rng"])
    for peer_id in offline:
        if peer_id not in links:
            raise StoreError(
                f"checkpoint overlay offline id {peer_id!r} names no adjacency row"
            )
        overlay.set_online(peer_id, False)
    return overlay


# -- protocol configuration -------------------------------------------------------


def _config_payload(config: ProtocolConfig) -> Dict[str, Any]:
    return {
        "construction_ttl": config.construction_ttl,
        "count_reconciliation_ring_hops": config.count_reconciliation_ring_hops,
        "drift_threshold": config.drift_threshold,
        "flooding_ttl": config.flooding_ttl,
        "freshness_mode": config.freshness_mode.value,
        "freshness_threshold": config.freshness_threshold,
        "modification_probability": config.modification_probability,
        "push_max_retries": config.push_max_retries,
        "query_max_retries": config.query_max_retries,
        "query_rate_per_peer": config.query_rate_per_peer,
        "reconciliation_max_retries": config.reconciliation_max_retries,
        "selective_walk_max_hops": config.selective_walk_max_hops,
        "superpeer_fraction": config.superpeer_fraction,
    }


def _config_from_payload(payload: Dict[str, Any]) -> ProtocolConfig:
    named = {field.name: payload[field.name] for field in dataclasses.fields(ProtocolConfig)}
    named["freshness_mode"] = FreshnessMode(named["freshness_mode"])
    return ProtocolConfig(**named)


#: What a checkpoint files a summary from: the live hierarchy, or the stored
#: text a restored summary that was never touched is still pending on.
_Filed = Union["SummaryHierarchy", StoredSnapshot]


def _untouched(owner: Union[Domain, LocalSummaryService]) -> Optional[StoredSnapshot]:
    """The stored text ``owner``'s summary is still pending on, if any."""
    loader = owner._summary_loader  # noqa: SLF001
    return loader if isinstance(loader, StoredSnapshot) else None


# -- domains ----------------------------------------------------------------------


def _domain_payload(domain: Domain, stage: Callable[[_Filed], str]) -> Dict[str, Any]:
    summary = _untouched(domain) or domain.global_summary
    summary_hash = None if summary is None else stage(summary)
    return {
        "distances": [
            [peer_id, distance]
            for peer_id, distance in domain.partner_distances.items()
        ],
        "entries": [
            [entry.peer_id, int(entry.freshness), entry.updated_at]
            for entry in domain.cooperation
        ],
        "global_summary": summary_hash,
        "mode": domain.cooperation.mode.value,
        "summary_peer_id": domain.summary_peer_id,
    }


def _domain_from_payload(
    payload: Dict[str, Any],
    loader: Callable[[str], Callable[[], SummaryHierarchy]],
    background: Optional[BackgroundKnowledge],
) -> Domain:
    cooperation = CooperationList(FreshnessMode(payload["mode"]))
    for peer_id, freshness, updated_at in payload["entries"]:
        cooperation.add_partner(
            peer_id, freshness=Freshness(int(freshness)), now=float(updated_at)
        )
    domain = Domain(
        summary_peer_id=payload["summary_peer_id"],
        cooperation=cooperation,
        partner_distances={
            peer_id: float(distance) for peer_id, distance in payload["distances"]
        },
    )
    summary_hash = payload["global_summary"]
    if summary_hash is not None:
        if background is None:
            raise StoreError(
                "this checkpoint carries global summaries: restoring it needs "
                "the common background knowledge (pass background=...)"
            )
        domain.bind_summary_loader(loader(summary_hash))
    return domain


# -- databases and services (real content) ----------------------------------------


def _database_payload(database: LocalDatabase) -> Dict[str, Any]:
    relations = []
    for name in database.relation_names:
        relation = database.relation(name)
        # A record holds every attribute, in schema order; stored order is sorted.
        keys = sorted(a.name for a in relation.schema.attributes)
        relations.append(
            {
                "name": name,
                "records": [
                    {key: record._values[key] for key in keys}  # noqa: SLF001
                    for record in relation
                ],
                "schema": [
                    [a.name, a.type.value, a.nullable] for a in relation.schema.attributes
                ],
                "version": relation.version,
            }
        )
    payload: Dict[str, Any] = {"relations": relations}
    if database._retired:  # noqa: SLF001 - absent while nothing was dropped
        payload["retired"] = database._retired  # noqa: SLF001
    return payload


def _databases_from_payload(
    payload: List[Any], background: Optional[BackgroundKnowledge]
) -> Iterator[Tuple[str, LocalDatabase]]:
    from repro.database.engine import LocalDatabase
    from repro.database.schema import Attribute, AttributeType, Schema

    for peer_id, state in payload:
        database = LocalDatabase(background=background)
        database._retired = int(state.get("retired", 0))  # noqa: SLF001
        for spec in state["relations"]:
            schema = Schema(
                [
                    Attribute(name, AttributeType(type_value), nullable)
                    for name, type_value, nullable in spec["schema"]
                ]
            )
            relation = database.create_relation(spec["name"], schema, spec["records"])
            relation._version = int(spec["version"])  # noqa: SLF001 - exact restore
        yield peer_id, database


def _service_payload(
    service: LocalSummaryService, stage: Callable[[_Filed], str]
) -> Dict[str, Any]:
    return {
        "database_version_summarized": service._database_version_summarized,  # noqa: SLF001
        "published_signature": sorted(
            [d.attribute, d.label] for d in service._published_signature  # noqa: SLF001
        ),
        "summary": stage(_untouched(service) or service.summary),
    }


# -- pending events ---------------------------------------------------------------

#: Every declarative event spec a checkpoint can hold (see
#: ``event_callback_from_spec``), as its kind and the keys its row's values
#: follow.  The table is written whole into each checkpoint and a row names
#: its entry by index, so the indexes never depend on which events are
#: pending; append, never reorder.
_EVENT_KEYS: Tuple[Tuple[str, ...], ...] = (
    (
        "departure", "peer_id", "graceful", "rejoin", "downtime_seconds",
        "horizon", "graceful_fraction", "lifetime_mean_seconds",
        "lifetime_median_seconds",
    ),
    ("modification", "peer_id"),
    ("rejoin", "peer_id"),
    ("heal",),
    ("partition", "fraction"),
    ("partition", "fraction", "groups"),
    ("domain_failure", "count"),
    ("massacre", "fraction", "graceful"),
    ("massacre", "fraction", "graceful", "rejoin_after"),
    ("flash_crowd",),
    ("flash_crowd", "rejoin_count"),
    (
        "departure", "peer_id", "graceful", "rejoin", "depart_at",
        "downtime_seconds", "horizon", "graceful_fraction",
        "lifetime_mean_seconds", "lifetime_median_seconds",
    ),
)
#: The spec key that restates its event's fire time, per kind: a row leaves
#: it out whenever it equals the time, and a restore reads it back from there.
_FIRE_TIME_KEYS = {"departure": "depart_at"}
#: (kind, the spec's key set with ``kind``) -> its table entry's index.
_EVENT_ROW_INDEX = {
    (keys[0], frozenset(("kind", *keys[1:]))): index
    for index, keys in enumerate(_EVENT_KEYS)
}


def _event_key_table() -> List[List[str]]:
    return [list(keys) for keys in _EVENT_KEYS]


def _event_row(
    time: float, sequence: int, label: str, spec: Dict[str, Any]
) -> List[Any]:
    """``[time, sequence, key_index, *values]`` for one pending event."""
    kind = spec.get("kind")
    if label != kind:
        raise StoreError(
            f"pending {label!r} event at t={time:.0f}s is labelled other than "
            f"its spec's kind {kind!r}"
        )
    fire = _FIRE_TIME_KEYS.get(kind)  # type: ignore[arg-type]
    keys = spec.keys()
    if fire is not None and spec.get(fire) == time:
        keys = keys - {fire}
    index = _EVENT_ROW_INDEX.get((kind, frozenset(keys)))
    if index is None:
        raise StoreError(
            f"pending {label!r} event at t={time:.0f}s has a spec "
            f"{sorted(spec)} that no checkpoint row describes"
        )
    return [time, sequence, index, *[spec[key] for key in _EVENT_KEYS[index][1:]]]


def _event_specs(
    simulator: Dict[str, Any]
) -> Iterator[Tuple[float, int, Dict[str, Any]]]:
    """``(time, sequence, spec)`` of each pending-event row, in stored order."""
    layouts = []
    for keys in simulator["keys"]:
        if tuple(keys) not in _EVENT_KEYS:
            raise StoreError(f"checkpoint event key table holds an unknown entry {keys!r}")
        kind, names = keys[0], tuple(keys[1:])
        fire = _FIRE_TIME_KEYS.get(kind)
        layouts.append((kind, names, 3 + len(names), None if fire in names else fire))
    for row in simulator["events"]:
        index = row[2]
        if type(index) is not int or not 0 <= index < len(layouts):
            raise StoreError(f"pending-event row {row!r} names no key table entry")
        kind, names, width, fire = layouts[index]
        if len(row) != width:
            raise StoreError(f"pending-event row {row!r} does not fit its keys {names}")
        time, sequence = float(row[0]), int(row[1])
        spec = dict(zip(names, row[3:]))
        spec["kind"] = kind
        if fire is not None:
            spec[fire] = time
        yield time, sequence, spec


# -- capture ----------------------------------------------------------------------


def capture_session(
    session: "NetworkSession", destination: Optional[SnapshotStore] = None
) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Encode a session into a checkpoint payload (hierarchies kept aside).

    Returns the payload and the referenced hierarchies as ``content hash ->
    canonical JSON text``, each encoded once; :func:`save_session` writes
    both into the target backend.  Told the ``destination`` they are bound
    for, the texts are only those it does not hold yet: a hierarchy that has
    not moved since it was filed there is referenced by its remembered
    address and not encoded again.  A restored summary that was never
    touched is filed from the text it was restored from, never decoded.
    The payload shares its adjacency rows with every later capture of the
    same overlay: treat it as read-only.
    """
    system = session.system
    snapshots: Dict[str, str] = {}

    def stage(summary: _Filed) -> str:
        if destination is None:
            digest, encoded = summary.content_snapshot()
        else:
            digest, encoded = destination.missing_snapshot(summary)
        if encoded is not None:
            snapshots[digest] = encoded
        return digest

    simulator = system.simulator
    events = []
    for event in simulator.pending():
        if event.spec is None:
            raise StoreError(
                f"pending simulator event {event.label or '<unlabelled>'!r} at "
                f"t={event.time:.0f}s carries no declarative spec and cannot "
                "be checkpointed; schedule protocol events through "
                "schedule_event_from_spec"
            )
        events.append(_event_row(event.time, event.sequence, event.label, event.spec))

    content = system.content
    if content is None:
        raise StoreError("cannot checkpoint a session with no content configured")
    planned = isinstance(content, PlannedContentModel)

    payload: Dict[str, Any] = {
        "format": FORMAT,
        "mode": "planned" if planned else "real",
        "horizon": session.horizon,
        "config": _config_payload(system.config),
        "system_rng": _rng_payload(system.rng),
        "counter": _stored_order(system.counter.state_payload()),
        "simulator": {
            "events": events,
            "keys": _event_key_table(),
            "next_sequence": simulator.next_sequence,
            "now": simulator.now,
            "processed": simulator.processed_events,
        },
        "overlay": _overlay_payload(system.overlay),
        "domains": [
            _domain_payload(domain, stage) for domain in system.domains.values()
        ],
        "assignment": [[peer, sp] for peer, sp in system.assignment.items()],
        "described": [
            [sp_id, sorted(peers)] for sp_id, peers in system.described.items()
        ],
        "maintenance": {
            "cold_starts": system.maintenance.stats.cold_starts,
            "reconciliations": system.maintenance.stats.reconciliations,
        },
        "query_counter": system._query_counter,  # noqa: SLF001 - exact restore
    }
    if system.faults is not None:
        # The injector travels whole: plan, RNG mid-stream state and current
        # partition.  Its *scheduled* adversities need no re-scheduling —
        # they ride in the pending-event specs above.
        payload["faults"] = _stored_order(system.faults.state_payload())
    if planned:
        payload["content"] = content.state_payload()
    else:
        payload["databases"] = [
            [peer_id, _database_payload(database)]
            for peer_id, database in system.databases.items()
        ]
        payload["services"] = [
            [peer_id, _service_payload(service, stage)]
            for peer_id, service in system.services.items()
        ]
        from repro.database.query import query_payload

        payload["queries"] = [
            [query_id, _stored_order(query_payload(query))]
            for query_id, query in system._queries.items()  # noqa: SLF001
        ]
    return dict(sorted(payload.items())), snapshots


def save_session(
    session: "NetworkSession",
    target: Union[None, str, StoreBackend],
    name: str = DEFAULT_CHECKPOINT_NAME,
    base: Optional[str] = None,
) -> str:
    """Checkpoint ``session`` into ``target`` under ``name``; returns the name.

    ``target`` is a backend or a path (see :func:`repro.store.open_store`).
    Hierarchies are stored content-addressed alongside the checkpoint, so
    checkpoints sharing hierarchies share their storage.

    With ``base=<existing checkpoint name>`` a *delta* checkpoint is stored
    instead: only the structural patch against the base's resolved payload
    (plus whatever new snapshots the session references).  The base — and,
    transitively, its own base chain — must stay in the store for the delta
    to restore; :func:`repro.store.gc.collect_garbage` treats the whole chain
    as live.

    Everything that can refuse a save — a missing base, a base that is
    ``name`` itself directly or through its chain, a session that cannot be
    captured — is checked before the first write, so a refused save writes
    nothing on any backend.  The new snapshots and the document are then
    written inside one :meth:`~repro.store.backend.StoreBackend.transaction`:
    on SQLite that is one commit per save (``synchronous=FULL`` still, so a
    save is as durable as before), and a save that fails while writing rolls
    back whole, leaving neither a checkpoint without its snapshots nor
    snapshots without their checkpoint.  A JSON directory files each object
    as it goes: a save that fails part-way can leave orphan snapshots, which
    :func:`repro.store.gc.collect_garbage` reclaims.
    """
    backend = open_store(target)
    try:
        links = None if base is None else _base_links(backend, name, base)
        destination = SnapshotStore(backend)
        payload, staged = capture_session(session, destination)
        document = payload
        if links is not None:
            document = {
                "format": FORMAT,
                "base": base,
                "patch": diff_documents(upgrade(_replay_chain(links)), payload),
            }
        with backend.transaction():
            for digest in sorted(staged):
                destination.put_encoded(digest, staged[digest])
            backend.put(CHECKPOINT_KIND, name, document)
        return name
    finally:
        if owns_backend(target):
            backend.close()


def _base_links(
    backend: StoreBackend, name: str, base: str
) -> List[Tuple[str, Dict[str, Any]]]:
    """The chain links a delta ``name`` would be diffed against, checked.

    Refuses a missing base and a base that is ``name`` itself, directly or
    through its chain: overwriting a checkpoint with a delta whose base
    chain runs back through it (a -> b -> a) would destroy the full payload
    and leave both unrestorable.  The one walk that names the chain also
    fetches every document the base payload is replayed from.
    """
    if base == name:
        raise StoreError(f"a delta checkpoint cannot use itself as base ({name!r})")
    links, _seed = _walk_chain(backend, base)
    base_chain = [link for link, _document in links]
    if name in base_chain:
        raise StoreError(
            f"a delta checkpoint cannot use itself as base: {base!r} "
            f"resolves through {name!r} ({' -> '.join(base_chain)})"
        )
    return links


# -- delta-chain resolution --------------------------------------------------------


def _get_link(
    backend: StoreBackend, name: str, referrer: Optional[str] = None
) -> Dict[str, Any]:
    """Fetch one chain link in a supported format, a miss as a chain-context error.

    One ``get`` per link on the common path; ``contains`` runs only on the
    error path to distinguish a missing document from a corrupt one.
    """
    try:
        return check_format(backend.get(CHECKPOINT_KIND, name), name)
    except StoreError:
        if backend.contains(CHECKPOINT_KIND, name):
            raise  # stored but unreadable: surface the original error
        suffix = "" if referrer is None else f" (base of {referrer!r})"
        known = ", ".join(backend.keys(CHECKPOINT_KIND)) or "<none>"
        raise StoreError(
            f"no checkpoint {name!r}{suffix} in {backend.location()} "
            f"(stored checkpoints: {known})"
        ) from None


def _walk_chain(
    backend: StoreBackend,
    name: str,
    _cache: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Tuple[List[Tuple[str, Dict[str, Any]]], Optional[Dict[str, Any]]]:
    """Fetch the chain links from ``name`` down, each document exactly once.

    Returns ``(links, seed)`` where ``links`` is ``[(name, document), ...]``
    ordered from ``name`` toward its base, and ``seed`` is the already
    resolved payload of the first cached link met (the walk stops there), or
    ``None`` when the walk reached the full base.
    """
    links: List[Tuple[str, Dict[str, Any]]] = []
    seen: set = set()
    current, referrer = name, None
    while True:
        if current in seen:
            raise StoreError(
                f"cyclic delta-checkpoint chain at {current!r}: "
                f"{' -> '.join([link for link, _doc in links] + [current])}"
            )
        if _cache is not None and current in _cache:
            return links, _cache[current]
        document = _get_link(backend, current, referrer)
        seen.add(current)
        links.append((current, document))
        base = document.get("base")
        if base is None:
            return links, None
        referrer, current = current, base


def checkpoint_base_chain(
    target: Union[None, str, StoreBackend], name: str
) -> List[str]:
    """The chain ``[name, base, base-of-base, ...]`` ending at a full checkpoint.

    A full checkpoint is its own one-element chain.  Raises :class:`StoreError`
    on a missing link or a cyclic chain.
    """
    backend = open_store(target)
    try:
        links, _seed = _walk_chain(backend, name)
        return [link for link, _document in links]
    finally:
        if owns_backend(target):
            backend.close()


def resolve_checkpoint_payload(
    backend: StoreBackend,
    name: str,
    _cache: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The full payload of a checkpoint, replaying its delta chain if any.

    The payload is in the current format whatever format the chain was
    written in (see :mod:`repro.store.migrate`).  ``_cache`` (name → resolved
    payload, each in the format of its own link) lets a caller resolving
    *many* checkpoints — the GC resolves every stored one — replay each
    chain link once instead of re-resolving shared prefixes per checkpoint;
    treat the cached payloads as read-only.
    """
    return upgrade(_resolve_stored(backend, name, _cache))


def _resolve_stored(
    backend: StoreBackend,
    name: str,
    _cache: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The payload ``name``'s chain resolves to, in the format of ``name``."""
    if _cache is not None and name in _cache:
        return _cache[name]
    links, seed = _walk_chain(backend, name, _cache)
    return _replay_chain(links, seed, _cache)


def _replay_chain(
    links: List[Tuple[str, Dict[str, Any]]],
    seed: Optional[Dict[str, Any]] = None,
    _cache: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Resolve what :func:`_walk_chain` fetched: patches replayed base first.

    A patch applies to the text it was computed against: its base upgraded
    to the patch's own format.  A delta older than its base is refused.
    """
    payload = seed
    for link, document in reversed(links):
        if "base" not in document:
            payload = document
        else:
            assert payload is not None  # a delta always follows its base
            if document["format"] < payload["format"]:
                raise StoreError(
                    f"format-{document['format']} delta checkpoint {link!r} rests "
                    f"on a base that is now format {payload['format']}"
                )
            payload = apply_patch(upgrade(payload, document["format"]), document["patch"])
        if _cache is not None:
            _cache[link] = payload
    assert payload is not None  # a chain always ends in a full checkpoint
    return payload


def compact_checkpoint(
    target: Union[None, str, StoreBackend], name: str = DEFAULT_CHECKPOINT_NAME
) -> bool:
    """Fold a delta checkpoint's chain into a fresh full checkpoint.

    A long ``full → delta → … → delta`` chain keeps every link restore-time
    relevant (and GC-live).  Compaction resolves ``name`` through its chain
    and overwrites it with the resolved payload — byte-identical to what a
    full checkpoint taken at the same moment would have stored, so restores
    are unaffected while the chain's earlier links become reclaimable (once
    no *other* delta still bases on them).  The payload keeps the format
    its delta was written in: other deltas may rest on ``name``, and their
    patches were computed against that text.

    Returns ``True`` when the checkpoint was a delta and got compacted,
    ``False`` when it already was a full checkpoint (a no-op).
    """
    backend = open_store(target)
    try:
        document = _get_link(backend, name)
        if "base" not in document:
            return False
        backend.put(CHECKPOINT_KIND, name, _resolve_stored(backend, name))
        return True
    finally:
        if owns_backend(target):
            backend.close()


def compact_checkpoints(target: Union[None, str, StoreBackend]) -> List[str]:
    """Compact every delta checkpoint of a store; returns the compacted names.

    Each chain link is resolved at most once (shared resolution cache), so
    compacting a store full of stacked deltas costs one chain replay.
    """
    backend = open_store(target)
    try:
        compacted: List[str] = []
        resolved_cache: Dict[str, Dict[str, Any]] = {}
        for name in backend.keys(CHECKPOINT_KIND):
            document = _get_link(backend, name)
            if "base" not in document:
                continue
            payload = _resolve_stored(backend, name, _cache=resolved_cache)
            backend.put(CHECKPOINT_KIND, name, payload)
            compacted.append(name)
        return compacted
    finally:
        if owns_backend(target):
            backend.close()


# -- restore ----------------------------------------------------------------------


def restore_session(
    target: Union[None, str, StoreBackend],
    name: str = DEFAULT_CHECKPOINT_NAME,
    background: Optional[BackgroundKnowledge] = None,
    runtime: "RuntimeSpec" = None,
) -> "NetworkSession":
    """Rebuild the checkpointed session from ``target``.

    Real-content checkpoints (databases + summaries) need the common
    ``background`` knowledge, exactly like the summary wire format; planned
    content restores without one.  Delta checkpoints are resolved through
    their base chain transparently.

    Restore decodes no summary hierarchy.  It fetches the stored text of
    every snapshot the checkpoint references (a missing one raises
    :class:`StoreError` here) and binds each domain and summary service a
    :class:`~repro.store.lazy.StoredSnapshot` over it.  A summary is decoded
    on its first touch: a query decodes the global summaries of the domains
    it visits, and a reconciliation or cold start every local summary (the
    maintenance engine is handed all of them).  Each consumer decodes its
    own object, so peers whose summaries share a digest never share a
    hierarchy.  Since every text is held from restore on, the
    caller may close the backend as soon as this returns.  A summary still
    untouched when the session is checkpointed is filed from its text.

    The restored session runs on the simulator unless ``runtime`` passes
    another backend.  A checkpoint records no backend: every backend
    continues byte-identically.
    """
    backend = open_store(target)
    try:
        return _restore_session(backend, name, background, runtime=runtime)
    finally:
        if owns_backend(target):
            backend.close()


def open_readonly_session(
    target: Union[None, str, StoreBackend],
    name: str = DEFAULT_CHECKPOINT_NAME,
    background: Optional[BackgroundKnowledge] = None,
) -> "ReadOnlyNetworkSession":
    """Open a checkpoint as a shared, read-only serving session.

    Both opens load hierarchies lazily, on first touch.  Differences from
    :func:`restore_session`:

    * **Shared hierarchies** — every consumer pulls from one
      :class:`~repro.store.lazy.HierarchySource` (LRU keyed by snapshot
      hash), so peers and threads touching one digest share one object, and
      a snapshot's text is fetched from the store on first touch, not at
      open.  Opening a large checkpoint therefore costs the structural
      payload only.
    * **Read-only** — the returned
      :class:`~repro.core.session.ReadOnlyNetworkSession` takes queries and
      staleness requests from any number of threads at once, rejects every
      mutating operation with
      :class:`~repro.exceptions.ReadOnlySessionError`, and hands each request
      a throwaway copy of the little a query advances (next id, plan or query
      registry, RNGs, tallies) instead of the system's own, so answers stay
      byte-identical to a fresh restore regardless of request order.  One
      such session is all a serve process holds; processes, not sessions,
      are the unit of CPU parallelism (``repro serve --workers N``).
    * **Backend lifetime** — when ``target`` is a path the opened backend
      stays open for the session's lifetime (lazy loads need it); the session
      owns it and closes it in :meth:`ReadOnlyNetworkSession.close` (or on
      ``with`` exit).  A caller-provided backend is left open as usual.
    """
    from repro.core.session import ReadOnlyNetworkSession

    # check_same_thread=False: server worker threads fetch lazy hierarchies
    # and close the session; the HierarchySource lock serializes every
    # post-open read of the connection, and the session is closed only once
    # its requests have drained.
    backend = open_store(target, check_same_thread=False, exclusive=False)
    owns = owns_backend(target)
    try:
        source = HierarchySource(SnapshotStore(backend), background)
        session = _restore_session(
            backend,
            name,
            background,
            source=source,
            session_cls=ReadOnlyNetworkSession,
        )
        assert isinstance(session, ReadOnlyNetworkSession)
        session.bind_store(backend, owns_backend=owns, hierarchy_source=source)
        return session
    except Exception:
        if owns:
            backend.close()
        raise


def _stored_snapshots(
    snapshots: SnapshotStore, background: Optional[BackgroundKnowledge]
) -> Callable[[str], StoredSnapshot]:
    """A loader per consumer over texts fetched now, each digest fetched once."""
    texts: Dict[str, str] = {}

    def loader(digest: str) -> StoredSnapshot:
        if digest not in texts:
            texts[digest] = snapshots.get_encoded(digest)
        return StoredSnapshot(digest, texts[digest], background)

    return loader


@_malformed("payload")
def _restore_session(
    backend: StoreBackend,
    name: str,
    background: Optional[BackgroundKnowledge],
    source: Optional[HierarchySource] = None,
    session_cls: Optional[type] = None,
    runtime: "RuntimeSpec" = None,
) -> "NetworkSession":
    from repro.core.session import NetworkSession

    if session_cls is None:
        session_cls = NetworkSession

    payload = resolve_checkpoint_payload(backend, name)
    # Both opens bind loaders and decode nothing here: a mutable restore
    # binds each consumer its own text, a read-only open the shared source.
    loader = (
        _stored_snapshots(SnapshotStore(backend), background)
        if source is None
        else source.loader
    )
    planned = payload["mode"] == "planned"

    overlay = _overlay_from_payload(payload["overlay"])
    config = _config_from_payload(payload["config"])
    system = SummaryManagementSystem(
        overlay, config=config, background=background, seed=0, runtime=runtime
    )
    _rng_restore(system.rng, payload["system_rng"])

    # Message accounting: the counter instance is shared with the maintenance
    # engine, churn handler and router, so it is rebuilt in place.
    system.counter.reset()
    system.counter.merge(MessageCounter.from_state(payload["counter"]))

    stats = system.maintenance.stats
    stats.reconciliations = int(payload["maintenance"]["reconciliations"])
    stats.cold_starts = int(payload["maintenance"]["cold_starts"])

    # Content model, databases and services.
    if planned:
        system._content = PlannedContentModel.from_state(  # noqa: SLF001
            payload["content"]
        )
    else:
        if background is None:
            raise StoreError(
                "this checkpoint was taken from a real-content session: "
                "restoring it needs the common background knowledge "
                "(pass background=...)"
            )
        from repro.core.service import LocalSummaryService
        from repro.database.query import query_from_payload
        from repro.fuzzy.linguistic import Descriptor

        for module in _REAL_QUERY_MODULES:
            importlib.import_module(module)
        for peer_id, database in _databases_from_payload(payload["databases"], background):
            if peer_id not in overlay.links:
                raise StoreError(f"checkpoint database of unknown peer {peer_id!r}")
            system._databases[peer_id] = database  # noqa: SLF001
        for peer_id, service_payload in payload["services"]:
            # The service learns its attributes and clustering parameters
            # from the hierarchy when (if ever) it is materialized.
            service = LocalSummaryService(
                peer_id,
                background,
                database=system._databases.get(peer_id),  # noqa: SLF001
            )
            service.bind_summary_loader(loader(service_payload["summary"]))
            service._published_signature = frozenset(  # noqa: SLF001
                Descriptor(attribute, label)
                for attribute, label in service_payload["published_signature"]
            )
            service._database_version_summarized = int(  # noqa: SLF001
                service_payload["database_version_summarized"]
            )
            system._services[peer_id] = service  # noqa: SLF001
        for query_id, query_payload in payload["queries"]:
            system._queries[int(query_id)] = query_from_payload(  # noqa: SLF001
                query_payload
            )
        system._content = SummaryContentModel(  # noqa: SLF001
            system._queries, system._databases  # noqa: SLF001
        )
    system._query_counter = int(payload["query_counter"])  # noqa: SLF001
    if payload.get("faults") is not None:
        from repro.network.faults import FaultInjector

        system.attach_fault_state(FaultInjector.from_state(payload["faults"]))

    # Domains, assignment and described sets (insertion order preserved).
    for domain_payload in payload["domains"]:
        domain = _domain_from_payload(domain_payload, loader, background)
        system._domains[domain.summary_peer_id] = domain  # noqa: SLF001
    system._assignment.update(  # noqa: SLF001
        {peer: sp for peer, sp in payload["assignment"]}
    )
    for sp_id, peers in payload["described"]:
        system._described[sp_id] = set(peers)  # noqa: SLF001

    # Simulator clock and pending events (original sequence numbers kept).
    simulator_payload = payload["simulator"]
    system.simulator.load_state(
        now=float(simulator_payload["now"]),
        processed=int(simulator_payload["processed"]),
        next_sequence=int(simulator_payload["next_sequence"]),
    )
    with _malformed("pending-event row"):
        for time, sequence, spec in _event_specs(simulator_payload):
            system.simulator.restore_event(
                time=time,
                sequence=sequence,
                callback=system.event_callback_from_spec(spec),
                label=spec["kind"],
                spec=spec,
            )

    return session_cls(
        system, construction_report=None, horizon=payload["horizon"]
    )


def list_checkpoints(target: Union[None, str, StoreBackend]) -> List[str]:
    """Names of the checkpoints stored in ``target``, sorted."""
    backend = open_store(target)
    try:
        return backend.keys(CHECKPOINT_KIND)
    finally:
        if owns_backend(target):
            backend.close()
