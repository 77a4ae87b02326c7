"""Exact solvers for the minimum expected-time activation sequence.

Both solvers answer the same question: starting from the seed, in what order
should z-1 further nodes be activated so that the sum of expected step times
is minimal.  brute_force_optimal enumerates sequences and is the reference
oracle for tiny inputs; dp_optimal runs a dynamic program over node subsets
and is exact for moderate n.  Its 12-62-node kernel _dp_layers and the
array helpers it calls, _in_table (once per solve), _step_times_masked and
_lower_bounds, are the only users of numpy here, and import it when they run.
"""

from __future__ import annotations

import math
from collections import Counter

from .network import (DP_MEMORY_BUDGET, DiffusionInstance, InfluenceNetwork,
                      SizeGuardError, SolveResult, _step_time_masked,
                      infeasible_result, sequence_time)
from .heuristics import greedy_sequence

INF = math.inf

# brute_force_optimal refuses more sequences than 9!, the count at n = 10
BRUTE_SEQUENCE_BUDGET = math.factorial(9)
# Bytes per state (a layer's candidates plus the states kept): tracemalloc
# peaks of unpruned random_connected(n, 0.3) solves read 11.7-14.8, n 18-24
_ARRAY_BYTES_PER_STATE = 14
# and per (state, node) pair of a layer's largest chunk, for the chunk's
# temporaries: pruned random_connected(n, 0.3) solves, n 22-40, peak at
# 12-21 B a pair above the states' bytes
_ARRAY_BYTES_PER_PAIR = 20
_DICT_BYTES_PER_STATE = 75
# dp_optimal's numpy kernel runs for node counts in this range: below it the
# dict loop is faster (crossover measured on random_connected(n, 0.3), full
# z; see CHANGES.md), above it int64 masks would overflow
DP_VECTOR_MIN_NODES = 12
DP_VECTOR_MAX_NODES = 62
# states kept per layer by _dp_layers' first pass, which finds an incumbent
BEAM_WIDTH = 8


def brute_force_optimal(instance: DiffusionInstance, *,
                        force: bool = False) -> SolveResult:
    """Exhaustive search over activation sequences.

    Up to P(n - 1, z - 1) sequences; refuses more than
    BRUTE_SEQUENCE_BUDGET unless force=True.  Among equal optima the
    lexicographically smallest sequence wins.
    """
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
        return infeasible_result(seed, "brute")
    return sequence_time(instance, best_seq, solver="brute")


def dp_optimal(instance: DiffusionInstance, *,
               force: bool = False) -> SolveResult:
    """Subset dynamic program, exact for any z.

    States are activated node sets encoded as bitmasks, processed layer by
    layer on set size; only states reachable with finite time are stored.
    Two kernels give the same answer: a Python loop over a dict of masks
    and, for DP_VECTOR_MIN_NODES <= node_count <= DP_VECTOR_MAX_NODES, a
    numpy kernel that builds each layer in one pass over its (state, node)
    pairs and drops the states a lower bound proves worse than an
    incumbent, the better of the greedy sequence and a beam pass's (see
    _dp_layers).  Either kernel estimates a layer's memory
    before building it and raises SizeGuardError past DP_MEMORY_BUDGET,
    unless force=True.
    """
    n = instance.network.node_count
    vector = DP_VECTOR_MIN_NODES <= n <= DP_VECTOR_MAX_NODES
    seq = (_dp_layers if vector else _dp_dict)(instance, force)
    if seq is None:
        return infeasible_result(instance.seed, "dp")
    return sequence_time(instance, seq, solver="dp")


def _check_layer(layer, candidates, kept, bytes_per_state, force):
    """Refuse a DP layer whose estimated memory passes the budget."""
    need = bytes_per_state * (candidates + kept)
    if need > DP_MEMORY_BUDGET and not force:
        raise SizeGuardError(
            f"subset DP refused at layer {layer}: {candidates:,} candidate "
            f"states plus {kept:,} kept need about {need / 2**20:,.0f} MiB, "
            f"over the {DP_MEMORY_BUDGET / 2**20:,.0f} MiB budget; "
            f"pass force=True")


def _neighbor_masks(net: InfluenceNetwork, force: bool):
    """Each node's neighbours as a bitmask, built from the edge list; refused
    before any is built when their bytes pass the budget, unless force=True
    (about n^2 / 15 bytes on a path)."""
    n = net.node_count
    # a mask whose top bit is k takes 28 + 4 * (k // 30) bytes, and k < n
    if n * (28 + 4 * (n // 30)) > DP_MEMORY_BUDGET and not force:
        need = sum(28 + 4 * (inc[-1][0] // 30) for inc in net._incoming if inc)
        if need > DP_MEMORY_BUDGET:
            raise SizeGuardError(
                f"subset DP refused: the neighbour masks of {n:,} nodes need "
                f"about {need / 2**20:,.0f} MiB, over the "
                f"{DP_MEMORY_BUDGET / 2**20:,.0f} MiB budget; pass force=True")
    nbr = [0] * n
    for u, v, _, _ in net.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


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
    nbr = _neighbor_masks(net, force)
    times = {1 << seed: 0.0}
    preds = [None, None]  # preds[k]: layer-k mask -> last activated node
    kept = 1
    wide = _DICT_BYTES_PER_STATE + 4 * ((n - 1) // 30)  # at n mask bits

    for layer in range(2, instance.z + 1):
        count, per = len(times) * (n - layer + 1), wide
        if per * (count + kept) > DP_MEMORY_BUDGET and not force:
            # over at the widest masks: count the frontier, per 30-bit width
            widths = Counter(max(m.bit_length() - 1, i) // 30 for m in times
                             for i in range(n) if not m >> i & 1 and nbr[i] & m)
            count = sum(widths.values())
            per = (sum(c * (_DICT_BYTES_PER_STATE + 4 * k) for k, c in
                       widths.items()) + wide * kept) / (count + kept)
        _check_layer(layer, count, kept, per, force)
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

    rev = []
    mask = min(sorted(times), key=times.__getitem__)  # smallest tied mask
    for k in range(instance.z, 1, -1):
        i = preds[k][mask]
        rev.append(i)
        mask ^= 1 << i
    return [seed] + rev[::-1]


def _dp_layers(instance: DiffusionInstance, force: bool = False):
    """Layered DP over sorted int64 arrays of masks; _dp_dict's answer.

    Each layer is one pass over its (state, node) pairs, i joining S when
    i is inactive with an active neighbour, in chunks of states: the new
    masks are deduplicated once, _step_times_masked prices every pair from
    the one _in_table that both passes share, and each new mask keeps the
    least time, ties to the largest node, as _dp_dict's push order does; the
    additions are the same and the final layer's first least time picks the
    smallest mask, so the answers agree.

    Branch and bound: a state S with time t is dropped when t + LB(S)
    exceeds UB * (1 + 1e-9), UB being the least replay total of the greedy
    sequence and of a first pass's, which keeps the BEAM_WIDTH states of
    least t + LB(S) per layer (ties to the smaller mask).  minc_i, i's step
    time with every neighbour active, is the least step time i can have,
    and LB(S) sums the z - |S| smallest minc over S's inactive nodes (inf
    when too few are finite).  LB is consistent, LB(P) <= minc_i +
    LB(P + i), and UB a real sequence's total, so every state on an optimal
    path passes, as does every predecessor float-tied to one; both tie
    rules then pick what they pick unbounded, and a dropped state can only
    raise the time of a state that is not optimal.  The margin absorbs LB's
    summation order (at alpha = 0 every state sits exactly at UB).  With
    neither sequence feasible UB = inf and nothing is dropped.
    """
    import numpy as np
    net = instance.network
    n = net.node_count
    seed, z = instance.seed, instance.z
    alpha, beta = instance.alpha, instance.beta
    nbr = _neighbor_masks(net, force)
    minc = [_step_time_masked(net, nbr[i], i, alpha, beta) for i in range(n)]
    table, powers = _in_table(net), {}  # ratio ** alpha; both passes share
    # rows in falling in-degree, the order _step_times_masked takes pairs in
    rows = np.argsort(-table[2], kind="stable")
    own, nbr = (1 << rows)[:, None], np.array(nbr, dtype=np.int64)[rows, None]
    # LB's rows: nodes in rising minc, the order it adds them in
    cheap = np.array(sorted(range(n), key=minc.__getitem__))
    bits, minc = (1 << cheap)[:, None], np.array(minc)[cheap, None]
    step = max(1, (1 << 15) // n)  # states per chunk: at most 32,768 pairs

    def solve(ub, beam=0):
        masks = np.array([1 << seed], dtype=np.int64)
        times = np.zeros(1)
        layers = []  # per layer after the seed's: (masks, last activated node)
        kept = 1
        for layer in range(2, z + 1):
            # per chunk of states and row: the node is off, and a neighbour on
            chunks = [masks[lo:lo + step] for lo in range(0, masks.size, step)]
            grow = [((m & own) == 0) & ((m & nbr) != 0) for m in chunks]
            count = sum(map(np.count_nonzero, grow))
            if not beam:  # the states, and the largest chunk's temporaries
                chunk = _ARRAY_BYTES_PER_PAIR * n * min(count, step)
                _check_layer(layer, count, kept, _ARRAY_BYTES_PER_STATE
                             + chunk / (count + kept), force)
            new = np.empty(count, dtype=np.int64)
            lo = 0
            for m, g in zip(chunks, grow):
                part = (m | own)[g]
                new[lo:lo + part.size] = part
                lo += part.size
            new.sort()  # then keep each distinct mask once
            first = np.ones(new.size, dtype=bool)
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new[first]
            best = np.full(new.size, INF)
            pred = np.zeros(new.size, dtype=np.int8)
            for lo, m, g in zip(range(0, masks.size, step), chunks, grow):
                row, s = np.nonzero(g)
                i, prev = rows[row], m[s]
                at = np.searchsorted(new, prev | (1 << i))
                cand = _step_times_masked(table, prev, i, alpha, beta, powers)
                cand += times[lo + s]
                old = best[at]
                np.minimum.at(best, at, cand)
                pred[at[best[at] < old]] = -1  # a mask whose time fell forgets
                win = cand == best[at]  # and takes the largest of its tied nodes
                np.maximum.at(pred, at[win], i[win].astype(np.int8))
            # free the pull's arrays before the bound's pass allocates
            del chunks, grow, part, row, s, i, prev, at, cand, old, win
            lb = _lower_bounds(new, bits, minc, z - layer, step)
            lb += best
            keep = np.flatnonzero((best < INF) & (lb <= ub))
            if beam:  # the least t + LB, ties to the smaller mask
                keep = np.sort(keep[np.argsort(lb[keep], kind="stable")[:beam]])
            if not keep.size:
                return None
            masks, times = new[keep], best[keep]
            layers.append((masks, pred[keep]))
            kept += masks.size
            # free this layer's temporaries before the next layer allocates
            del first, new, best, pred, keep, lb

        mask = int(masks[np.argmin(times)])
        rev = []
        for layer_masks, layer_pred in reversed(layers):
            i = int(layer_pred[np.searchsorted(layer_masks, mask)])
            rev.append(i)
            mask ^= 1 << i
        return [seed] + rev[::-1]

    ub = greedy_sequence(instance).total_time
    seq = solve(ub * (1 + 1e-9), BEAM_WIDTH)
    if seq is not None:
        ub = min(ub, sequence_time(instance, seq).total_time)
    return solve(ub * (1 + 1e-9))


def _lower_bounds(masks, bits, minc, short: int, step: int):
    """Per mask, the sum of its first `short` inactive nodes' minc, bits and
    minc being (n, 1) columns in rising minc: cumsum ranks, and the sum down
    the rows adds those minc and an exact 0.0 as a per-node loop would."""
    import numpy as np
    lb = np.empty(masks.size)
    for lo in range(0, masks.size, step):
        off = (masks[lo:lo + step] & bits) == 0
        off &= np.cumsum(off, axis=0, dtype=np.int8) <= short
        lb[lo:lo + step] = np.where(off, minc, 0.0).sum(axis=0)
    return lb


def _in_table(net: InfluenceNetwork):
    """_step_times_masked's table, built once per solve: row r of two (max
    in-degree, n) arrays holds each node's r-th in-neighbour id and weight
    bits (ascending j, padding 0), then in-degrees and total influences."""
    import numpy as np
    inc = net._incoming
    pad = ((0, 0.0),) * max(map(len, inc), default=0)
    j, w = np.array([lst + pad[len(lst):] for lst in inc], float).reshape(
        len(inc), len(pad), 2).T.copy()
    return (j.astype(np.intp), w.view(np.int64), np.array(list(map(len, inc))),
            np.array(net.total_influence))


def _step_times_masked(table, masks, nodes, alpha: float, beta: float,
                       powers=None):
    """Array form of _step_time_masked: node nodes[k] given active masks[k],
    table being the solve's _in_table(net).  nodes is one node, or an array
    whose in-degrees do not increase (one in-degree's pairs may interleave),
    so the pairs with an r-th in-neighbour form a prefix, priced from row r.
    Each element equals the scalar result bit for bit: the active in-weight
    is summed in the same ascending-j order (an inactive neighbour adds an
    exact 0.0), and the power is Python's ``**`` (numpy's can differ in the
    last bit) once per distinct ratio per solve, memoised in powers."""
    import numpy as np
    j, w, deg, total = table
    nodes = np.broadcast_to(nodes, masks.shape)
    ends = np.searchsorted(-deg[nodes], -np.arange(len(j))).tolist()
    s = np.zeros(masks.shape)
    for r, end in enumerate(ends):
        if not end:  # ends never increase: no pair has an r-th in-neighbour
            break
        bit = masks[:end] >> j[r][nodes[:end]]
        bit &= 1
        bit *= w[r][nodes[:end]]  # w's bits, or 0
        s[:end] += bit.view(np.float64)
    dead = s <= 0.0  # as at zero total influence, since s <= total
    s[dead] = INF
    ratio = total[nodes] / s  # 0.0 where dead, inf by the last line
    if alpha == 0.0:
        ratio = np.ones(ratio.shape)  # x ** 0.0 is 1.0 for every float x
    elif alpha != 1.0:
        powers = {} if powers is None else powers
        uniq, inv = np.unique(ratio, return_inverse=True)
        ratio = np.array([powers[r] if r in powers else
                          powers.setdefault(r, r ** alpha)
                          for r in uniq.tolist()])[inv]
    if beta != 1.0:
        ratio = ratio / beta
    ratio[dead] = INF
    return ratio
