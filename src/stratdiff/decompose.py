"""Divide and conquer over biconnected components.

For full diffusion the optimal total splits across the blocks of the
network: each block is solved as its own instance whose entry node is the
seed (or the cut node through which diffusion reaches the block), with all
out-of-block incoming weights frozen into external influence offsets so the
local total influence of every node equals its global value.  Summing the
block optima gives the global optimum, and concatenating the block
sequences in breadth-first order of the block-cut tree gives a valid
global sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .network import (DiffusionInstance, InfluenceNetwork, SolveResult,
                      check_instance, infeasible_result, sequence_time)


def biconnected_components(net: InfluenceNetwork):
    """Blocks (as node sets) and cut nodes of a connected network.

    Returns (blocks, cut_nodes) where blocks is a list of frozensets in a
    deterministic order and cut_nodes a frozenset.  A single-node network
    has no blocks.  Raises ValueError when the network is disconnected.
    """
    n = net.node_count
    if n == 1:
        return [], frozenset()
    adj = [net.neighbors(i) for i in range(n)]
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    blocks = []
    cuts = set()
    estack = []
    timer = 0

    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    stack = [(0, 0)]
    while stack:
        v, idx = stack[-1]
        if idx < len(adj[v]):
            stack[-1] = (v, idx + 1)
            w = adj[v][idx]
            if disc[w] == -1:
                parent[w] = v
                if v == 0:
                    root_children += 1
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
                    comp = set()
                    while True:
                        e = estack.pop()
                        comp.add(e[0])
                        comp.add(e[1])
                        if e == (u, v):
                            break
                    blocks.append(frozenset(comp))
                    if u != 0:
                        cuts.add(u)
    if timer != n:
        raise ValueError("network is disconnected")
    if root_children > 1:
        cuts.add(0)
    return blocks, frozenset(cuts)


@dataclass(frozen=True)
class ComponentInstance:
    """A per-block subinstance with its mapping back to global node ids."""

    instance: DiffusionInstance
    to_global: tuple
    entry: int  # global id of the block's entry node


def component_instances(instance: DiffusionInstance):
    """Split a full-diffusion instance into per-block subinstances.

    Blocks are ordered by breadth-first traversal of the block-cut tree
    from the seed, so every block's entry node is activated by an earlier
    block.  Out-of-block incoming weights become external influence.
    """
    net = instance.network
    n = net.node_count
    if instance.z != n:
        raise ValueError("decomposition applies to full diffusion only (z = node_count)")
    if n == 1:
        return [ComponentInstance(instance=instance, to_global=(instance.seed,),
                                  entry=instance.seed)]
    blocks, cuts = biconnected_components(net)

    node_blocks = {}
    for bi, blk in enumerate(blocks):
        for v in blk:
            node_blocks.setdefault(v, []).append(bi)

    seed = instance.seed
    start = node_blocks[seed]
    visited = set(start)
    queue = deque((bi, seed) for bi in start)
    order = []
    while queue:
        bi, entry = queue.popleft()
        order.append((bi, entry))
        for c in sorted(blocks[bi]):
            if c in cuts and c != entry:
                for bj in node_blocks[c]:
                    if bj not in visited:
                        visited.add(bj)
                        queue.append((bj, c))

    out = []
    for bi, entry in order:
        blk = sorted(blocks[bi])
        local = {g: i for i, g in enumerate(blk)}
        inblk = set(blk)
        edges = [(local[u], local[v], wuv, wvu)
                 for u, v, wuv, wvu in net.edges if u in inblk and v in inblk]
        ext = []
        for g in blk:
            d = net.external_influence[g]
            for j, wjg in net.incoming(g):
                if j not in inblk:
                    d += wjg
            ext.append(d)
        sub = InfluenceNetwork(len(blk), edges, ext)
        inst = DiffusionInstance(network=sub, seed=local[entry], z=len(blk),
                                 alpha=instance.alpha, beta=instance.beta)
        out.append(ComponentInstance(instance=inst, to_global=tuple(blk), entry=entry))
    return out


def solve_full_via_decomposition(instance: DiffusionInstance,
                                 solver) -> SolveResult:
    """Solve full diffusion by solving each block and splicing the sequences.

    solver is any full-diffusion solver taking a DiffusionInstance, e.g.
    dp_optimal.  The result is the replay of the merged sequence, whose
    total equals the sum of block optima up to rounding.
    """
    check_instance(instance)
    seq = [instance.seed]
    for comp in component_instances(instance):
        res = solver(comp.instance)
        if not res.feasible:
            return infeasible_result(instance.seed, "decompose")
        seq.extend(comp.to_global[local] for local in res.sequence[1:])
    if len(seq) != instance.network.node_count:
        raise RuntimeError("block merge lost nodes")  # pragma: no cover
    return sequence_time(instance, seq, solver="decompose")
