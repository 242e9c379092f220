"""Policy layer: where each request runs, and where its data lives.

Sits between demand (:mod:`repro.workloads.demand` — when/who/which key)
and service (:mod:`repro.workloads.service` — what the machine does).  A
placement policy maps every request of a :class:`~.demand.Schedule` onto a
serving node, and every key onto a data shard, as two pure vectorized
functions — no stateful router process, so placement adds nothing to the
simulation and cannot perturb determinism.

A placement is a *row selector* per node, not a node per request: a
Python slice or an int64 index array, either of which indexes the
schedule's columns.  Round-robin's selectors are slices, so each server's
columns are strided views of the schedule and placement stores nothing
per request.  The other two policies keep one sorted index array per
node (8 bytes per request in total) and no full-length node array.

Three policies, mirroring the ``LOCK_FACTORIES`` registry pattern:

``static-shard``
    ``node = key mod n_nodes``.  Perfect data affinity — a key is always
    served where its shard lives — but a Zipf-hot key turns its home node
    into a hot spot.

``round-robin``
    ``node = request_index mod n_nodes``.  Perfect load balance, zero
    affinity: every node touches every hot shard, which is exactly the
    read/write-sharing regime where the coherence protocols diverge.

``hot-key``
    Static sharding for the cold tail, but the top ``hot_k`` keys by
    empirical popularity (measured on the schedule itself — the policy is
    allowed to know the demand it places) are spread round-robin over the
    nodes.  The compromise a real front end makes for skewed traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

import numpy as np

from .demand import Schedule

__all__ = [
    "POLICY_FACTORIES",
    "Placement",
    "make_policy",
    "StaticShardPolicy",
    "RoundRobinPolicy",
    "HotKeyPolicy",
]


#: A node's rows of the schedule: a slice or a sorted int64 index array.
RowSelector = Union[slice, np.ndarray]


@dataclass(slots=True)
class Placement:
    """The policy's decision for one schedule on one machine size."""

    #: Row selector per serving node; together they partition the rows.
    rows: List[RowSelector]
    #: Data shard per key (int64, length ``n_keys``); shard ``s`` lives on
    #: the s-th shared block the service allocates.
    shard_of_key: np.ndarray

    def requests_of(self, node_id: int) -> RowSelector:
        """The row selector of the requests served by ``node_id``.

        Index a schedule column with it to get that node's requests in
        issue order.  It is a slice or a sorted index array, not
        necessarily an index array: ``np.arange(n)[sel]`` spells the rows
        out.  A slice selects a view, an index array a copy.
        """
        return self.rows[node_id]


def _rows_by_node(node: np.ndarray, n_nodes: int) -> List[np.ndarray]:
    """Sorted row indices per node of a node-per-request array."""
    return [np.flatnonzero(node == i) for i in range(n_nodes)]


def _shards(schedule: Schedule, n_nodes: int) -> np.ndarray:
    return np.arange(schedule.n_keys, dtype=np.int64) % n_nodes


class StaticShardPolicy:
    """``node = key mod n_nodes``: full affinity, hot-spot prone."""

    name = "static-shard"

    def place(self, schedule: Schedule, n_nodes: int) -> Placement:
        rows = _rows_by_node(schedule.key % n_nodes, n_nodes)
        return Placement(rows=rows, shard_of_key=_shards(schedule, n_nodes))


class RoundRobinPolicy:
    """``node = index mod n_nodes``: full balance, zero affinity."""

    name = "round-robin"

    def place(self, schedule: Schedule, n_nodes: int) -> Placement:
        # Row r goes to node r mod n_nodes: node i's rows are the stride
        # starting at i, so no per-request array is made at all.
        rows = [slice(i, None, n_nodes) for i in range(n_nodes)]
        return Placement(rows=rows, shard_of_key=_shards(schedule, n_nodes))


class HotKeyPolicy:
    """Shard the cold tail statically; spread the hot head round-robin.

    Hotness is empirical: the ``hot_k`` most-requested keys in the
    schedule (ties broken by key id, so the split is deterministic).
    Requests for a hot key rotate over all nodes by arrival order *within
    that key*, so a single molten key is served by every node instead of
    melting its home.
    """

    name = "hot-key"

    def __init__(self, hot_k: int = 4):
        if hot_k < 0:
            raise ValueError("hot_k must be >= 0")
        self.hot_k = hot_k

    def place(self, schedule: Schedule, n_nodes: int) -> Placement:
        counts = schedule.hot_key_counts()
        # argsort on (-count, key) via stable sort over key-ordered input.
        order = np.argsort(-counts, kind="stable")
        hot = set(int(k) for k in order[: self.hot_k])
        node = schedule.key % n_nodes
        for k in sorted(hot):
            rows = np.flatnonzero(schedule.key == k)
            node[rows] = np.arange(rows.size, dtype=np.int64) % n_nodes
        return Placement(
            rows=_rows_by_node(node, n_nodes), shard_of_key=_shards(schedule, n_nodes)
        )


#: Placement-policy registry: name -> zero/default-arg factory.
POLICY_FACTORIES: Dict[str, Callable] = {
    StaticShardPolicy.name: StaticShardPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    HotKeyPolicy.name: HotKeyPolicy,
}


def make_policy(name: str, **kwargs):
    """Instantiate the named placement policy."""
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; choose from {sorted(POLICY_FACTORIES)}"
        )
    return factory(**kwargs)
