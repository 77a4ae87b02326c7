"""Shared instance builders, and reference implementations, for the test suite."""

import itertools
import math
import random

from stratdiff import (DiffusionInstance, InfluenceNetwork, TreeDecomposition,
                       check_instance, infeasible_result, sequence_time)
from stratdiff.network import _step_time_masked
from stratdiff.treewidth import _chain, _restrict


def connected_unit_graphs(max_n):
    """Every connected graph on node sets {0..n-1}, n <= max_n, unit weights."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for emask in range(1 << len(pairs)):
            adj = [0] * n
            for i, (u, v) in enumerate(pairs):
                if emask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            seen = 1
            stack = [0]
            while stack:
                x = stack.pop()
                m = adj[x] & ~seen
                seen |= m
                while m:
                    low = m & -m
                    stack.append(low.bit_length() - 1)
                    m ^= low
            if seen != (1 << n) - 1:
                continue
            edges = [(u, v, 1.0, 1.0)
                     for i, (u, v) in enumerate(pairs) if emask >> i & 1]
            yield InfluenceNetwork(n, edges)


def random_weighted_net(n, rng, edge_prob=0.4, lo=0.5, hi=2.0):
    """Connected random network, independent uniform weights per direction."""
    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < edge_prob:
                pairs.add((u, v))
    edges = [(u, v, rng.uniform(lo, hi), rng.uniform(lo, hi))
             for u, v in sorted(pairs)]
    return InfluenceNetwork(n, edges)


def random_tree(n, rng, maxdeg=3, lo=0.5, hi=2.0, integer=False):
    """Random tree with bounded degree and per-direction weights."""
    deg = [0] * n
    cands = [0]  # the nodes below maxdeg, ascending
    edges = []
    for v in range(1, n):
        u = rng.choice(cands)
        deg[u] += 1
        deg[v] += 1
        if deg[u] == maxdeg:
            cands.remove(u)
        if deg[v] < maxdeg:
            cands.append(v)
        if integer:
            w1, w2 = float(rng.randint(int(lo), int(hi))), \
                float(rng.randint(int(lo), int(hi)))
        else:
            w1, w2 = rng.uniform(lo, hi), rng.uniform(lo, hi)
        edges.append((u, v, w1, w2))
    return InfluenceNetwork(n, edges)


def theta2_graph(n, rng, maxdeg=3):
    """Bounded-degree tree plus one or two chords (cyclomatic number <= 2)."""
    deg = [0] * n
    pairs = []
    for v in range(1, n):
        cands = [u for u in range(v) if deg[u] < maxdeg]
        u = rng.choice(cands)
        deg[u] += 1
        deg[v] += 1
        pairs.append((u, v))
    for _ in range(rng.randrange(1, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in pairs or deg[u] >= maxdeg or deg[v] >= maxdeg:
            continue
        pairs.append((u, v))
        deg[u] += 1
        deg[v] += 1
    edges = [(u, v, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
             for u, v in sorted(pairs)]
    return InfluenceNetwork(n, edges)


def blocky_graph(rng, n):
    """Chain a few small random blocks through shared cut nodes."""
    edges = []
    cur = 0
    nodes = 1
    while nodes < n:
        size = min(rng.randrange(2, 4), n - nodes + 1)
        block = [cur] + list(range(nodes, nodes + size - 1))
        nodes += size - 1
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if len(block) == 2 or rng.random() < 0.8 or v == block[-1]:
                    edges.append((u, v, rng.uniform(0.5, 2.0),
                                  rng.uniform(0.5, 2.0)))
        cur = block[-1] if rng.random() < 0.7 else block[0]
    seen = {u for e in edges for u in (e[0], e[1])}
    return InfluenceNetwork(max(seen) + 1, edges) if seen else path_net(2)


def cycle_chord_block(n, rng, chord_prob=0.15, lo=0.5, hi=2.0):
    """A biconnected block like the benchmark's chain blocks: the cycle
    0, 1, ..., n - 1 plus random chords, per-direction uniform weights."""
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    pairs |= {(i, j) for i in range(n) for j in range(i + 2, n)
              if rng.random() < chord_prob}
    return InfluenceNetwork(n, [(u, v, rng.uniform(lo, hi), rng.uniform(lo, hi))
                                for u, v in sorted(pairs)])


def path_net(n, w=1.0):
    return InfluenceNetwork(n, [(i, i + 1, w, w) for i in range(n - 1)])


def star_net(leaves):
    """Seed-centered star: every leaf has probability 1 once 0 is active."""
    return InfluenceNetwork(leaves + 1, [(0, i, 1.0, 1.0)
                                         for i in range(1, leaves + 1)])


def clique_net(n):
    return InfluenceNetwork(n, [(u, v, 1.0, 1.0)
                                for u in range(n) for v in range(u + 1, n)])


def wheel_net(rim):
    """Hub 0 joined to every node of the cycle 1, ..., rim."""
    rim_nodes = range(1, rim + 1)
    return InfluenceNetwork(rim + 1, [(0, i, 1.0, 1.0) for i in rim_nodes]
                            + [(i, i % rim + 1, 1.0, 1.0) for i in rim_nodes])


def full_instance(net, seed=0, **kw):
    return DiffusionInstance(network=net, seed=seed, z=net.node_count, **kw)


def dp_kernel_result(kernel, inst):
    """The SolveResult dp_optimal builds from one kernel's sequence."""
    seq = kernel(inst)
    if seq is None:
        return infeasible_result(inst.seed, "dp")
    return sequence_time(inst, seq, solver="dp")


def reference_min_fill(net):
    """Min-fill elimination that rescans every remaining vertex each step:
    the O(n^2)-per-step reference for treewidth.min_fill_decomposition."""
    n = net.node_count
    adj = [set(net.neighbors(i)) for i in range(n)]
    remaining = set(range(n))
    bags = []
    elim = []
    for _ in range(n):
        best_v = -1
        best_fill = None
        for v in sorted(remaining):
            nbl = sorted(adj[v])
            fill = 0
            for i, a in enumerate(nbl):
                for b in nbl[i + 1:]:
                    if b not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        v = best_v
        nbl = sorted(adj[v])
        bags.append(frozenset([v] + nbl))
        elim.append(v)
        for i, a in enumerate(nbl):
            for b in nbl[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbl:
            adj[a].discard(v)
        remaining.remove(v)
    pos = {v: i for i, v in enumerate(elim)}
    edges = []
    for i in range(n - 1):
        others = bags[i] - {elim[i]}
        parent = min(pos[x] for x in others) if others else n - 1
        edges.append((i, parent))
    return TreeDecomposition(bags=bags, edges=edges, root=n - 1)


def reference_reconstruct(td, tables, z, j):
    """Tree-DP reconstruction that copies the global sequence at every bag,
    finding each placed node with list.index: the O(n^2) reference for
    treewidth._reconstruct."""
    gstar = []
    pick = {td.root: (z, j)}
    for t in td.topdown():
        k, j = pick.get(t, (0, -1))
        if k == 0:
            continue
        table = tables[t]
        gamma = table.orderings[j]
        known = set(gstar)
        gstar = list(gstar)
        buf = []
        for x in gamma:
            if x in known:
                if buf:
                    i = gstar.index(x)
                    gstar[i:i] = buf
                    buf = []
            else:
                buf.append(x)
        gstar.extend(buf)
        profs = [prof[_restrict(gamma, s)] for s, prof in table.shared]
        chain = _chain(table.bases[j], profs, z)
        for kid, pv, prev in reversed(list(zip(td.children(t), profs, chain))):
            bm = min((m for m in sorted(prev) if k - m in pv),
                     key=lambda m: prev[m] + pv[k - m][0], default=None)
            if bm is None:
                raise RuntimeError("budget split lost during reconstruction")
            pick[kid] = (k - bm, pv[k - bm][1])
            k = bm
        if k not in table.bases[j]:
            raise RuntimeError("budget not fully assigned")
    return gstar


def _reference_run(instance, pick, name, rng):
    """Score every inactive node at every step: the full-scan reference for
    heuristics._run."""
    check_instance(instance)
    net = instance.network
    seq = [instance.seed]
    mask = 1 << instance.seed
    for _ in range(instance.z - 1):
        cands = []
        for i in range(net.node_count):
            if (mask >> i) & 1:
                continue
            st = _step_time_masked(net, mask, i, instance.alpha, instance.beta)
            if st < math.inf:
                cands.append((i, st))
        if not cands:
            return infeasible_result(instance.seed, name)
        score = {i: pick(i, st, mask) for i, st in cands}
        best = max(score.values())
        tied = [i for i, _ in cands if score[i] == best]
        choice = tied[0] if rng is None else rng.choice(tied)
        seq.append(choice)
        mask |= 1 << choice
    return sequence_time(instance, seq, solver=name)


def reference_greedy(instance, rng=None):
    return _reference_run(instance, lambda i, st, mask: -st, "greedy", rng)


def reference_majority(instance, rng=None):
    net = instance.network
    return _reference_run(
        instance,
        lambda i, st, mask: sum((mask >> j) & 1 for j in net.neighbors(i)),
        "majority", rng)


def reference_lower_bounds(masks, minc, short):
    """The array DP's LB, one numpy pass per node: each mask adds the minc of
    its inactive nodes in rising minc until `short` are added."""
    import numpy as np
    lb = np.zeros(masks.size)
    left = np.full(masks.size, short, dtype=np.int8)
    for i in sorted(range(len(minc)), key=minc.__getitem__):
        add = (left > 0) & ((masks & (1 << i)) == 0)
        np.add(lb, minc[i], out=lb, where=add)
        left -= add
    return lb
