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

from dataclasses import dataclass

from .network import (DiffusionInstance, InfluenceNetwork, SolveResult,
                      check_instance, infeasible_result, sequence_time)


def _blocks(net: InfluenceNetwork, root: int):
    """Blocks of a connected network from one Tarjan DFS rooted at root.

    Returns (blocks, cut_nodes): blocks is a list of (sorted nodes, edge
    records, entry) in the order the DFS closes them, entry being the block's
    node nearest the root, so every block closes before the block holding
    its entry.  Raises ValueError when the network is disconnected.
    """
    n = net.node_count
    adj = [[] for _ in range(n)]  # ascending neighbours, as net.edges is sorted
    for rec in net.edges:
        adj[rec[0]].append((rec[1], rec))
        adj[rec[1]].append((rec[0], rec))
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    mark = [0] * n  # edge-stack height before the tree edge into each node
    blocks = []
    cuts = set()
    estack = []

    disc[root] = low[root] = 0
    timer = 1
    root_children = 0
    stack = [(root, 0)]
    while stack:
        v, idx = stack[-1]
        if idx < len(adj[v]):
            stack[-1] = (v, idx + 1)
            w, rec = adj[v][idx]
            if disc[w] == -1:
                parent[w] = v
                if v == root:
                    root_children += 1
                mark[w] = len(estack)
                estack.append(rec)
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, 0))
            elif w != parent[v] and disc[w] < disc[v]:
                estack.append(rec)
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    recs = estack[mark[v]:]
                    del estack[mark[v]:]
                    nodes = sorted({x for rec in recs for x in rec[:2]})
                    blocks.append((nodes, recs, u))
                    if u != root:
                        cuts.add(u)
    if timer != n:
        raise ValueError("network is disconnected")
    if root_children > 1:
        cuts.add(root)
    return blocks, frozenset(cuts)


def biconnected_components(net: InfluenceNetwork):
    """Blocks (as node sets) and cut nodes of a connected network.

    Returns (blocks, cut_nodes) where blocks is a list of frozensets in a
    deterministic order and cut_nodes a frozenset.  A single-node network
    has no blocks.  Raises ValueError when the network is disconnected.
    """
    blocks, cuts = _blocks(net, 0)
    return [frozenset(nodes) for nodes, _, _ in blocks], cuts


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
    net = instance.network
    n = net.node_count
    if instance.z != n:
        raise ValueError("decomposition applies to full diffusion only (z = node_count)")
    if n == 1:
        return [ComponentInstance(instance=instance, to_global=(instance.seed,),
                                  entry=instance.seed)]
    blocks, _ = _blocks(net, instance.seed)
    out = []
    for blk, recs, entry in reversed(blocks):
        local = {g: i for i, g in enumerate(blk)}
        edges = [(local[u], local[v], wuv, wvu) for u, v, wuv, wvu in recs]
        ext = []
        for g in blk:
            d = net.external_influence[g]
            for j, wjg in net.incoming(g):
                if j not in local:
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
