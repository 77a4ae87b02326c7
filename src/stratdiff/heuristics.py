"""Baseline sequence heuristics.

greedy picks the node with the highest activation probability each step;
majority picks the node with the most active neighbors.  Both are fast and
can be arbitrarily far from optimal: on the layered grid instances from
generators.make_gk their totals grow like k^2 * H_k against an optimal of
order k^2, which strategy_a_gk realizes.
"""

from __future__ import annotations

import math

from .network import (DiffusionInstance, SolveResult, _step_time_masked,
                      check_instance, infeasible_result, sequence_time)

INF = math.inf


def _run(instance: DiffusionInstance, pick, name, rng):
    check_instance(instance)
    net = instance.network
    n = net.node_count
    seq = [instance.seed]
    mask = 1 << instance.seed
    for _ in range(instance.z - 1):
        cands = []
        for i in range(n):
            if (mask >> i) & 1:
                continue
            st = _step_time_masked(net, mask, i, instance.alpha, instance.beta)
            if st < INF:
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


def greedy_sequence(instance: DiffusionInstance, *, rng=None) -> SolveResult:
    """Highest activation probability first; ties to the smallest id.

    Pass a random.Random as rng to break ties randomly instead.
    """
    return _run(instance, lambda i, st, mask: -st, "greedy", rng)


def majority_sequence(instance: DiffusionInstance, *, rng=None) -> SolveResult:
    """Most active neighbors first, among activatable nodes.

    The count ignores weights; nodes with zero activation probability are
    never picked.  Ties go to the smallest id, or to rng when given.
    """
    net = instance.network

    def count(i, st, mask):
        return (net.neighbor_mask(i) & mask).bit_count()

    return _run(instance, count, "majority", rng)


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
