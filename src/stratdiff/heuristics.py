"""Baseline sequence heuristics.

greedy picks the node with the highest activation probability each step;
majority picks the node with the most active neighbors.  Both keep a
frontier of activatable nodes in a heap keyed (-score, id) and re-price
only the last activated node's neighbours, so a run costs O(z * deg *
log n).  Ties go to the smallest id; with an rng, rng.choice draws from
the tied nodes in ascending id order.  Both can be arbitrarily far from
optimal: on the layered grid instances from generators.make_gk their
totals grow like k^2 * H_k against an optimal of order k^2, which
strategy_a_gk realizes.
"""

from __future__ import annotations

import heapq
import math

from .network import (DiffusionInstance, SolveResult, _step_time_masked,
                      infeasible_result, sequence_time)

INF = math.inf


def _run(instance: DiffusionInstance, pick, name, rng):
    net = instance.network
    seq = [instance.seed]
    mask = 1 << instance.seed
    key, heap = {}, []  # -score of each frontier node, and a heap over it
    count = [0] * net.node_count  # each node's active neighbours
    for _ in range(instance.z - 1):
        # A score reads only its node's neighbours: re-price the last one's
        for i in net.neighbors(seq[-1]):
            if not (mask >> i) & 1:
                count[i] += 1
                st = _step_time_masked(net, mask, i, instance.alpha, instance.beta)
                if st < INF:
                    key[i] = k = -pick(st, count[i])
                    heapq.heappush(heap, (k, i))
        tied = []  # best score, ascending id; skip stale and repeated entries
        while heap and (not tied or heap[0][0] == key[tied[0]]):
            k, i = heapq.heappop(heap)
            if key.get(i) == k and (not tied or tied[-1] != i):
                tied.append(i)
                if rng is None:
                    break
        if not tied:
            return infeasible_result(instance.seed, name)
        choice = tied[0] if rng is None else rng.choice(tied)
        for i in tied:  # the choice's entry goes stale with its key
            heapq.heappush(heap, (key[i], i))
        del key[choice]
        seq.append(choice)
        mask |= 1 << choice
    return sequence_time(instance, seq, solver=name)


def greedy_sequence(instance: DiffusionInstance, *, rng=None) -> SolveResult:
    """Highest activation probability first; ties to the smallest id.

    Pass a random.Random as rng to break ties randomly instead.
    """
    return _run(instance, lambda st, count: -st, "greedy", rng)


def majority_sequence(instance: DiffusionInstance, *, rng=None) -> SolveResult:
    """Most active neighbors first, among activatable nodes.

    The count ignores weights; nodes with zero activation probability are
    never picked.  Ties go to the smallest id, or to rng when given.
    """
    return _run(instance, lambda st, count: count, "majority", rng)


def strategy_a_gk(k: int, instance: DiffusionInstance | None = None) -> SolveResult:
    """The hand-crafted near-optimal order for the layered grid G(k).

    Activates k hub nodes, then every bridge node, then the remaining hubs;
    total is exactly 3k^2 - 2k.  Rejects instances that are not G(k).
    """
    from .generators import make_gk

    reference = make_gk(k)
    if instance is None:
        instance = reference
    elif instance != reference:
        raise ValueError(f"instance is not the G({k}) construction")
    kk = k * k
    seq = ([0] + list(range(1, k + 1))
           + list(range(kk + 1, kk + k))
           + list(range(k + 1, kk + 1)))
    return sequence_time(instance, seq, solver="strategy-a")
