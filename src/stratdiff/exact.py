"""Exact solvers for the minimum expected-time activation sequence.

Both solvers answer the same question: starting from the seed, in what order
should z-1 further nodes be activated so that the sum of expected step times
is minimal.  brute_force_optimal enumerates sequences and is the reference
oracle for tiny inputs; dp_optimal runs a dynamic program over node subsets
and is exact for moderate n.
"""

from __future__ import annotations

import math
import os

from .network import (DiffusionInstance, SizeGuardError, SolveResult,
                      _step_time_masked, check_instance, infeasible_result,
                      sequence_time)

INF = math.inf

DP_NODE_CAP = 28
DP_CAP_ENV = "SD_MAX_DP_NODES"
BRUTE_NODE_CAP = 10


def brute_force_optimal(instance: DiffusionInstance, *,
                        force: bool = False) -> SolveResult:
    """Exhaustive search over activation sequences.

    Factorial time; refuses node_count > 10 unless force=True.  Among equal
    optima the lexicographically smallest sequence wins.
    """
    check_instance(instance)
    net = instance.network
    n = net.node_count
    if n > BRUTE_NODE_CAP and not force:
        raise SizeGuardError(
            f"brute force refused for n={n} > {BRUTE_NODE_CAP}; pass force=True")

    z = instance.z
    seed = instance.seed
    alpha, beta = instance.alpha, instance.beta
    best_total = INF
    best_seq = None
    seq = [seed]

    def extend(mask: int, total: float):
        nonlocal best_total, best_seq
        if len(seq) == z:
            if total < best_total:
                best_total = total
                best_seq = tuple(seq)
            return
        for i in range(n):
            if (mask >> i) & 1:
                continue
            st = _step_time_masked(net, mask, i, alpha, beta)
            if st == INF:
                continue
            cand = total + st
            # lex enumeration + strict improvement keeps the lex-smallest optimum
            if cand >= best_total:
                continue
            seq.append(i)
            extend(mask | (1 << i), cand)
            seq.pop()

    extend(1 << seed, 0.0)
    if best_seq is None:
        return infeasible_result(seed, "brute-force")
    return sequence_time(instance, best_seq, solver="brute-force")


def dp_optimal(instance: DiffusionInstance, *,
               max_nodes: int | None = None) -> SolveResult:
    """Subset dynamic program, exact for any z.

    States are activated node sets encoded as bitmasks, processed layer by
    layer on set size; only the current and next layer of times stay in
    memory, plus one predecessor map per layer for sequence reconstruction.
    States with infinite time are never stored.  O(2^n) memory; refuses
    node_count above the cap (default 28, override with max_nodes or the
    SD_MAX_DP_NODES environment variable).
    """
    check_instance(instance)
    net = instance.network
    n = net.node_count
    cap = max_nodes if max_nodes is not None else \
        int(os.environ.get(DP_CAP_ENV, DP_NODE_CAP))
    if n > cap:
        raise SizeGuardError(
            f"subset DP refused for n={n} > cap {cap}; raise the cap to override")

    z = instance.z
    seed = instance.seed
    alpha, beta = instance.alpha, instance.beta
    nbr = net._neighbor_mask
    times = {1 << seed: 0.0}
    preds = [None, None]  # preds[k]: layer-k mask -> last activated node

    for _ in range(z - 1):
        nxt = {}
        pred = {}
        for mask in sorted(times):
            t = times[mask]
            for i in range(n):
                bit = 1 << i
                if mask & bit or not (nbr[i] & mask):
                    continue
                st = _step_time_masked(net, mask, i, alpha, beta)
                if st == INF:
                    continue
                cand = t + st
                new = mask | bit
                cur = nxt.get(new, INF)
                if cand < cur:
                    nxt[new] = cand
                    pred[new] = i
        if not nxt:
            return infeasible_result(seed, "dp")
        times = nxt
        preds.append(pred)

    best_mask = None
    best_total = INF
    for mask in sorted(times):
        t = times[mask]
        if t < best_total:
            best_total = t
            best_mask = mask

    rev = []
    mask = best_mask
    for k in range(z, 1, -1):
        i = preds[k][mask]
        rev.append(i)
        mask ^= 1 << i
    return sequence_time(instance, [seed] + rev[::-1], solver="dp")
