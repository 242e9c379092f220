"""Static routes: destination-tag routing for the multistage Omega network,
and dimension-order (XY) routing for the 2D mesh.

An N-node Omega network (N a power of two) has ``k = log2 N`` stages of
``N/2`` two-by-two switches with a perfect-shuffle interconnection between
stages.  Routing is destination-tag: at stage ``i`` the switch routes the
message to its upper/lower output according to bit ``k-1-i`` of the
destination address (MSB first).

The *wire label* occupied after stage ``i`` is obtained by the classic
shift-register recurrence::

    v_0 = src
    v_{i+1} = ((v_i << 1) mod N) | bit_{k-1-i}(dst)

Two messages conflict at stage ``i`` exactly when they occupy the same wire
label there, which is what the contention model keys on.

A mesh of N nodes is a near-square ``rows x cols`` grid; an XY route moves
along the row first, then along the column.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["is_power_of_two", "num_stages", "omega_route", "mesh_dims", "xy_route"]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def num_stages(n_nodes: int) -> int:
    """Number of switch stages in an N-node Omega network."""
    if not is_power_of_two(n_nodes):
        raise ValueError(f"Omega network size must be a power of two, got {n_nodes}")
    return n_nodes.bit_length() - 1


def omega_route(src: int, dst: int, n_nodes: int) -> List[int]:
    """Wire labels occupied after each stage on the path ``src -> dst``.

    Returns a list of length ``log2(n_nodes)``; element ``i`` is the output
    wire of stage ``i``.  The final element always equals ``dst``.
    """
    k = num_stages(n_nodes)
    if not 0 <= src < n_nodes or not 0 <= dst < n_nodes:
        raise ValueError("src/dst out of range")
    mask = n_nodes - 1
    v = src
    wires = []
    for i in range(k):
        bit = (dst >> (k - 1 - i)) & 1
        v = ((v << 1) & mask) | bit
        wires.append(v)
    return wires


def mesh_dims(n_nodes: int) -> Tuple[int, int]:
    """Near-square (rows, cols) factorization for a power-of-two size."""
    if not is_power_of_two(n_nodes):
        raise ValueError(f"mesh size must be a positive power of two, got {n_nodes}")
    k = n_nodes.bit_length() - 1
    rows = 1 << (k // 2)
    return rows, n_nodes // rows


def xy_route(src: int, dst: int, rows: int, cols: int) -> List[Tuple[int, int]]:
    """Directed links (from_node, to_node) along the XY path src -> dst."""
    if not 0 <= src < rows * cols or not 0 <= dst < rows * cols:
        raise ValueError("src/dst out of range")
    links = []
    r, c = divmod(src, cols)
    dr, dc = divmod(dst, cols)
    while c != dc:  # X first
        nc = c + (1 if dc > c else -1)
        links.append((r * cols + c, r * cols + nc))
        c = nc
    while r != dr:  # then Y
        nr = r + (1 if dr > r else -1)
        links.append((r * cols + c, nr * cols + c))
        r = nr
    return links
