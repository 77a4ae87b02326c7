"""Divide and conquer over biconnected components.

For full diffusion the optimal total splits across the blocks of the
network: each block is solved as its own instance whose entry node is the
seed (or the cut node through which diffusion reaches the block), with all
out-of-block incoming weights frozen into external influence offsets so the
local total influence of every node equals its global value.  Summing the
block optima gives the global optimum, and concatenating the block
sequences, each block after the block holding its entry, gives a valid
global sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .network import (DiffusionInstance, InfluenceNetwork, SolveResult,
                      _induced, infeasible_result, sequence_time)


def _blocks(net: InfluenceNetwork, root: int):
    """Blocks of a connected network from one Tarjan DFS rooted at root.

    Returns a list of (sorted nodes, entry) in the order the DFS closes
    them, entry being the block's node nearest the root, so every block
    closes before the block holding its entry.  Raises ValueError when the
    network is disconnected.
    """
    n = net.node_count
    adj = [net.neighbors(i) for i in range(n)]  # ascending
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    mark = [0] * n  # edge-stack height before the tree edge into each node
    blocks = []
    estack = []

    disc[root] = low[root] = 0
    timer = 1
    stack = [(root, 0)]
    while stack:
        v, idx = stack[-1]
        if idx < len(adj[v]):
            stack[-1] = (v, idx + 1)
            w = adj[v][idx]
            if disc[w] == -1:
                parent[w] = v
                mark[w] = len(estack)
                estack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, 0))
            elif w != parent[v] and disc[w] < disc[v]:
                estack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    nodes = sorted({x for e in estack[mark[v]:] for x in e})
                    del estack[mark[v]:]
                    blocks.append((nodes, u))
    if timer != n:
        raise ValueError("network is disconnected")
    return blocks


def biconnected_components(net: InfluenceNetwork):
    """Blocks (as node sets) and cut nodes of a connected network.

    Returns (blocks, cut_nodes) where blocks is a list of frozensets in a
    deterministic order and cut_nodes, the nodes two or more blocks share,
    a frozenset.  A single-node network has no blocks.  Raises ValueError
    when the network is disconnected.
    """
    blocks = [frozenset(nodes) for nodes, _ in _blocks(net, 0)]
    shared = Counter(v for b in blocks for v in b)
    return blocks, frozenset(v for v, c in shared.items() if c > 1)


@dataclass(frozen=True)
class ComponentInstance:
    """A per-block subinstance with its mapping back to global node ids."""

    instance: DiffusionInstance
    to_global: tuple
    entry: int  # global id of the block's entry node


def component_instances(instance: DiffusionInstance):
    """Split a full-diffusion instance into per-block subinstances.

    Blocks come in the reverse of the order a DFS from the seed closes
    them, so every block's entry node is activated by an earlier block.
    Out-of-block incoming weights become external influence.
    """
    n = instance.network.node_count
    if instance.z != n:
        raise ValueError("decomposition applies to full diffusion only (z = node_count)")
    if n == 1:
        return [ComponentInstance(instance=instance, to_global=(instance.seed,),
                                  entry=instance.seed)]
    return [ComponentInstance(*_induced(instance, blk, entry, len(blk)), entry)
            for blk, entry in reversed(_blocks(instance.network, instance.seed))]


def solve_full_via_decomposition(instance: DiffusionInstance,
                                 solver) -> SolveResult:
    """Solve full diffusion by solving each block and splicing the sequences.

    solver is any full-diffusion solver taking a DiffusionInstance, e.g.
    dp_optimal; each block's sub-instance, like the instance itself, was
    checked when it was built.  The result is the replay of the merged
    sequence, whose total equals the sum of block optima up to rounding.
    """
    seq = [instance.seed]
    for comp in component_instances(instance):
        res = solver(comp.instance)
        if not res.feasible:
            return infeasible_result(instance.seed, "decompose")
        seq.extend(comp.to_global[local] for local in res.sequence[1:])
    if len(seq) != instance.network.node_count:
        raise RuntimeError("block merge lost nodes")  # pragma: no cover
    return sequence_time(instance, seq, solver="decompose")
