"""Exact solvers for the minimum expected-time activation sequence.

Both solvers answer the same question: starting from the seed, in what order
should z-1 further nodes be activated so that the sum of expected step times
is minimal.  brute_force_optimal enumerates sequences and is the reference
oracle for tiny inputs; dp_optimal runs a dynamic program over node subsets
and is exact for moderate n.
"""

from __future__ import annotations

import math

import numpy as np

from .network import (DiffusionInstance, SizeGuardError, SolveResult,
                      _step_time_masked, _step_times_masked, check_instance,
                      infeasible_result, sequence_time)
from .heuristics import greedy_sequence

INF = math.inf

# brute_force_optimal refuses more sequences than 9!, the count at n = 10
BRUTE_SEQUENCE_BUDGET = math.factorial(9)
# dp_optimal refuses a layer whose estimated memory passes this many bytes
DP_MEMORY_BUDGET = 1 << 30
# Bytes per state (a layer's candidates plus the states kept so far), from
# tracemalloc peaks of random_connected(n, 0.3) solves; see CHANGES.md
_ARRAY_BYTES_PER_STATE = 14
_DICT_BYTES_PER_STATE = 75
# dp_optimal's numpy kernel runs for node counts in this range: below it the
# dict loop is faster (crossover measured on random_connected(n, 0.3), full
# z; see CHANGES.md), above it int64 masks would overflow
DP_VECTOR_MIN_NODES = 12
DP_VECTOR_MAX_NODES = 62


def brute_force_optimal(instance: DiffusionInstance, *,
                        force: bool = False) -> SolveResult:
    """Exhaustive search over activation sequences.

    Up to P(n - 1, z - 1) sequences; refuses more than
    BRUTE_SEQUENCE_BUDGET unless force=True.  Among equal optima the
    lexicographically smallest sequence wins.
    """
    check_instance(instance)
    net = instance.network
    n = net.node_count
    z = instance.z
    # past z = 11 the first ten factors alone pass the budget (10! > 9!)
    sequences = math.perm(n - 1, min(z - 1, 10))
    if sequences > BRUTE_SEQUENCE_BUDGET and not force:
        raise SizeGuardError(
            f"brute force refused for n={n}, z={z}: at least {sequences} "
            f"sequences, above {BRUTE_SEQUENCE_BUDGET}; pass force=True")

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
               force: bool = False) -> SolveResult:
    """Subset dynamic program, exact for any z.

    States are activated node sets encoded as bitmasks, processed layer by
    layer on set size.  Only states reachable with finite time are stored,
    so memory scales with the reachable states, not with 2^n; each layer
    keeps its states and their last activated node for the reconstruction.
    Two kernels give the same answer: a Python loop over a dict of masks,
    and a numpy kernel over sorted int64 arrays of masks.  The numpy kernel
    runs for DP_VECTOR_MIN_NODES <= node_count <= DP_VECTOR_MAX_NODES
    (below the measured crossover its per-layer overhead loses; above the
    top, int64 masks would overflow).  The numpy kernel also drops the
    states whose time plus a lower bound on the remaining steps exceeds
    the greedy total; the bound keeps every optimal path and its ties, so
    the answer does not change (see _dp_layers).  Before building each
    layer, either kernel estimates its memory from the layer's candidate
    states and the states kept so far, and raises SizeGuardError when the
    estimate passes DP_MEMORY_BUDGET, unless force=True.
    """
    check_instance(instance)
    n = instance.network.node_count
    vector = DP_VECTOR_MIN_NODES <= n <= DP_VECTOR_MAX_NODES
    seq = (_dp_layers if vector else _dp_dict)(instance, force)
    if seq is None:
        return infeasible_result(instance.seed, "dp")
    return sequence_time(instance, seq, solver="dp")


def _check_layer(layer, candidates, kept, bytes_per_state, force):
    """Refuse to build a DP layer whose estimated memory passes the budget.

    layer is the size of the active sets it would hold; candidates bounds
    its states before deduplication, kept counts the states of the layers
    held for the reconstruction.
    """
    need = bytes_per_state * (candidates + kept)
    if need > DP_MEMORY_BUDGET and not force:
        raise SizeGuardError(
            f"subset DP refused at layer {layer}: {candidates:,} candidate "
            f"states plus {kept:,} kept need about {need / 2**20:,.0f} MiB, "
            f"over the {DP_MEMORY_BUDGET / 2**20:,.0f} MiB budget; "
            f"pass force=True")


def _dp_dict(instance: DiffusionInstance, force: bool = False):
    """Push DP over a dict of masks; the optimal sequence, or None.

    Masks are pushed in ascending order and nodes tried in ascending order,
    with strict improvement: among tied predecessors the first pushed (the
    largest last node) wins, and the smallest tied final mask is read.
    """
    net = instance.network
    n = net.node_count
    seed = instance.seed
    alpha, beta = instance.alpha, instance.beta
    nbr = net._neighbor_mask
    times = {1 << seed: 0.0}
    preds = [None, None]  # preds[k]: layer-k mask -> last activated node
    kept = 1

    for layer in range(2, instance.z + 1):
        _check_layer(layer, len(times) * (n - layer + 1), kept,
                     _DICT_BYTES_PER_STATE, force)
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
            return None
        times = nxt
        preds.append(pred)
        kept += len(nxt)

    best_mask = None
    best_total = INF
    for mask in sorted(times):
        t = times[mask]
        if t < best_total:
            best_total = t
            best_mask = mask

    rev = []
    mask = best_mask
    for k in range(instance.z, 1, -1):
        i = preds[k][mask]
        rev.append(i)
        mask ^= 1 << i
    return [seed] + rev[::-1]


def _dp_layers(instance: DiffusionInstance, force: bool = False):
    """Layered DP over sorted int64 arrays of masks; _dp_dict's answer.

    Each layer holds only its reachable masks.  A new mask's time is the
    least, over its members i, of its predecessor's time plus i's step time,
    taken in ascending i with ties going to the later i; the final layer's
    first least time picks the smallest mask.  Both rules reproduce the
    push order of _dp_dict, and the additions are the same, so the answers
    are identical.

    Branch and bound: a state S with time t is dropped when t + LB(S)
    exceeds UB * (1 + 1e-9), UB being the greedy total.  minc_i, i's step
    time with every neighbour active, is the least step time i can have,
    and LB(S) sums the z - |S| smallest minc over S's inactive nodes (inf
    when too few are finite).  LB is consistent, LB(P) <= minc_i +
    LB(P + i), so every state on an optimal path passes, as does every
    predecessor float-tied to one; both tie rules then pick what they pick
    unbounded, and a dropped state can only raise the time of a state that
    is not optimal.  The margin absorbs LB's different summation order
    (at alpha = 0 every state sits exactly at UB).  An infeasible greedy
    run gives UB = inf and drops nothing.
    """
    net = instance.network
    n = net.node_count
    seed = instance.seed
    alpha, beta = instance.alpha, instance.beta
    nbr = np.array(net._neighbor_mask, dtype=np.int64)
    masks = np.array([1 << seed], dtype=np.int64)
    times = np.zeros(1)
    layers = []  # per layer after the seed's: (masks, last activated node)
    kept = 1
    ub = greedy_sequence(instance).total_time * (1 + 1e-9)
    minc = [_step_time_masked(net, net._neighbor_mask[i], i, alpha, beta)
            for i in range(n)]
    cheap = sorted(range(n), key=minc.__getitem__)

    for layer in range(2, instance.z + 1):
        # per node i, the masks it can join: i inactive, a neighbour active
        grow = [((masks & (1 << i)) == 0) & ((masks & nbr[i]) != 0)
                for i in range(n)]
        count = sum(map(np.count_nonzero, grow))
        _check_layer(layer, count, kept, _ARRAY_BYTES_PER_STATE, force)
        new = np.empty(count, dtype=np.int64)
        lo = 0
        for i, g in enumerate(grow):
            part = masks[g] | (1 << i)
            new[lo:lo + part.size] = part
            lo += part.size
        new.sort()  # then keep each distinct mask once
        first = np.ones(new.size, dtype=bool)
        np.not_equal(new[1:], new[:-1], out=first[1:])
        new = new[first]
        best = np.full(new.size, INF)
        pred = np.zeros(new.size, dtype=np.int8)
        for i, g in enumerate(grow):
            prev = masks[g]
            at = np.searchsorted(new, prev | (1 << i))
            cand = times[g] + _step_times_masked(net, prev, i, alpha, beta)
            win = cand <= best[at]
            best[at[win]] = cand[win]
            pred[at[win]] = i
        # the bound's pass sets the layer's peak: free the pull's arrays first
        del grow, part, prev, at, cand, win
        lb = np.zeros(new.size)
        short = np.full(new.size, instance.z - layer, dtype=np.int8)
        for i in cheap:  # add the cheapest inactive nodes LB still lacks
            add = (short > 0) & ((new & (1 << i)) == 0)
            np.add(lb, minc[i], out=lb, where=add)
            short -= add
        keep = (best < INF) & (best + lb <= ub)
        if not keep.any():
            return None
        masks, times = new[keep], best[keep]
        layers.append((masks, pred[keep]))
        kept += masks.size
        # free this layer's temporaries before the next layer allocates
        del first, new, best, pred, keep, lb, short, add

    mask = int(masks[np.argmin(times)])
    rev = []
    for layer_masks, layer_pred in reversed(layers):
        i = int(layer_pred[np.searchsorted(layer_masks, mask)])
        rev.append(i)
        mask ^= 1 << i
    return [seed] + rev[::-1]
