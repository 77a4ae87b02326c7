"""Instance generators: adversarial families, reductions and random networks.

make_gk builds the layered grid family G(k) on which greedy-style
heuristics pay a harmonic-number factor over the optimum.  make_np_hardness
and make_inapprox build one set cover embedding (_cover_network); the
former ties a cover of size k to an optimal total t*, the latter scales
weights so a good sequence reads off a near-minimal cover, which
extract_cover finds by replaying it.  binarize_weights rewrites integer
weights into unit-weight two-paths, preserving optima up to an offset.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .network import (DP_MEMORY_BUDGET, DiffusionInstance, InfluenceNetwork,
                      SequenceError, SizeGuardError, _integer, sequence_time)

# binarize_weights' tracemalloc peak per unit of weight (relay node, its two
# edges and the network built on them), read at weights 10^4-10^5
_RELAY_BYTES = 842


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe {0..universe_size-1} and a family of covering sets."""

    universe_size: int
    sets: tuple

    def __init__(self, universe_size: int, sets):
        object.__setattr__(self, "universe_size",
                           _integer(universe_size, "universe size"))
        object.__setattr__(self, "sets", tuple(
            frozenset(_integer(e, "element") for e in s) for s in sets))
        if self.universe_size < 1:
            raise ValueError("universe must be nonempty")
        if not self.sets:
            raise ValueError("set family must be nonempty")
        for i, s in enumerate(self.sets):
            if not s:
                raise ValueError(f"set {i} is empty")
            if not all(0 <= e < self.universe_size for e in s):
                raise ValueError(f"set {i} contains elements outside the universe")


def brute_force_set_cover(sc: SetCoverInstance):
    """Size of the smallest cover, or None when the family cannot cover."""
    if len(sc.sets) > 20:
        raise ValueError("set family too large for exhaustive cover search")
    full = frozenset(range(sc.universe_size))
    union = frozenset().union(*sc.sets)
    if union != full:
        return None
    for r in range(1, len(sc.sets) + 1):
        for combo in itertools.combinations(sc.sets, r):
            if frozenset().union(*combo) == full:
                return r
    return None  # pragma: no cover


def make_gk(k: int) -> DiffusionInstance:
    """The layered grid G(k): a seed, k^2 hub nodes, k-1 bridge nodes.

    Node ids: seed 0, hubs 1..k^2, bridges k^2+1..k^2+k-1.  The seed
    touches every hub and every hub touches every bridge; all weights are
    1.  Full diffusion instance (z = k^2 + k).
    """
    if (k := _integer(k, "k")) < 1:
        raise ValueError("k must be at least 1")
    kk = k * k
    edges = []
    for a in range(1, kk + 1):
        edges.append((0, a, 1.0, 1.0))
    for a in range(1, kk + 1):
        for b in range(kk + 1, kk + k):
            edges.append((a, b, 1.0, 1.0))
    net = InfluenceNetwork(kk + k, edges)
    return DiffusionInstance(network=net, seed=0, z=kk + k)


def _cover_network(sc: SetCoverInstance, copies: int, cost,
                   relays: bool = False) -> InfluenceNetwork:
    """The set cover embedding both reductions share.

    Node ids: seed 0; set nodes 1..s; blocker nodes q_j = s+j and
    q'_j = 2s+j, which feed only each other and so never activate; element
    e's copy c at 1+3s + e*copies + c, fed by every set node covering e.
    A set node costs exactly cost right after the seed: its blocker feeds
    it cost - 1, as one edge or, with relays, through cost - 1 unit-weight
    relay nodes numbered after the rest, each fed only by the blocker.
    """
    s = len(sc.sets)
    nxt = 1 + 3 * s + sc.universe_size * copies
    edges = []
    for j, members in enumerate(sc.sets):
        set_node, q = 1 + j, 1 + s + j
        edges += [(0, set_node, 1.0, 1.0), (q, 1 + 2 * s + j, 1.0, 1.0)]
        if relays:
            for x in range(nxt, nxt + cost - 1):
                edges += [(set_node, x, 0.0, 1.0), (q, x, 1.0, 0.0)]
            nxt += cost - 1
        else:
            edges.append((q, set_node, cost - 1.0, 0.0))
        edges += [(set_node, 1 + 3 * s + e * copies + c, 1.0, 0.0)
                  for e in members for c in range(copies)]
    return InfluenceNetwork(nxt, edges)


def make_np_hardness(sc: SetCoverInstance, k: int, *,
                     binary_weights: bool = False):
    """Embed a set cover decision (cover of size <= k?) into diffusion.

    The embedding is _cover_network's with one copy of each element and
    set nodes costing |U||S| + 1, the blocker's share as unit-weight relays
    with binary_weights.  Returns (instance, t_star), the same either way:
    a cover of size <= k exists iff the optimum is <= t_star.
    """
    s = len(sc.sets)
    u = sc.universe_size
    if not (1 <= (k := _integer(k, "k")) <= s):
        raise ValueError(f"k must be in 1..{s}")
    net = _cover_network(sc, 1, u * s + 1, binary_weights)
    t_star = k * (u * s + 1.0) + u * s
    return DiffusionInstance(network=net, seed=0, z=k + u + 1), t_star


def inapprox_scale(sc: SetCoverInstance, lam: float = 1.0) -> float:
    """The set-node step cost used by make_inapprox."""
    s = len(sc.sets)
    z = sc.universe_size * (s + 1) + 1
    return z * float(s) ** (lam + 1.0)


def make_inapprox(sc: SetCoverInstance, lam: float = 1.0) -> DiffusionInstance:
    """Embed set cover so good sequences encode near-minimal covers.

    The embedding is _cover_network's with |S|+1 copies of each element
    and set nodes costing exactly a = z * |S|^(lam+1), and
    z = |U|(|S|+1) + 1, so the optimal total divided by a is sandwiched
    between the minimal cover size m and m * (1 + 1/|S|^lam).  A lam whose
    cost a is not a finite number >= 1 is refused.
    """
    s = len(sc.sets)
    try:
        a = inapprox_scale(sc, lam)
    except OverflowError:  # |S| ** (lam + 1) past the float range
        a = math.inf
    if not 1.0 <= a < math.inf:
        raise ValueError(f"lam {lam} gives a set-node cost of {a}; it must be "
                         "a finite number >= 1")
    net = _cover_network(sc, s + 1, a)
    return DiffusionInstance(network=net, seed=0, z=sc.universe_size * (s + 1) + 1)


def extract_cover(sc: SetCoverInstance, sequence) -> frozenset:
    """Read the cover off an activation sequence of a make_inapprox instance.

    Replays it with sequence_time, which checks its ids, seed and repeats;
    the wrong length, or a step that can never activate (a blocker, or an
    element copy before any set node covering it), raises SequenceError.
    Returns the 0-based indices of the set nodes it activates.
    """
    inst = make_inapprox(sc)
    res = sequence_time(inst, sequence)
    if len(res.sequence) != inst.z:
        raise SequenceError(f"sequence must activate exactly {inst.z} nodes")
    s = len(sc.sets)
    for v, st in zip(res.sequence, res.step_times):
        if st == math.inf:  # set nodes always activate; blockers are s+1..3s
            raise SequenceError(
                f"blocker node {v} can never activate" if v <= 3 * s else
                f"element copy {v} activated before any covering set node")
    return frozenset(v - 1 for v in res.sequence[1:] if v <= s)


def binarize_weights(net: InfluenceNetwork):
    """Rewrite integer edge weights as unit-weight two-paths.

    Every unit of directed weight u->v becomes a fresh relay node x with
    w(u->x) = 1 feeding x and w(x->v) = 1 feeding v (reverse directions 0).
    Returns (new_network, offset) with offset = total weight rewritten;
    the optimal full-diffusion time grows by exactly offset, since each
    relay costs one expected step after its source is active.  Requires
    nonnegative integer weights, and raises SizeGuardError, before any
    relay is built, when the relays would pass DP_MEMORY_BUDGET.
    """
    relays = 0
    for u, v, wuv, wvu in net.edges:
        for w in (wuv, wvu):
            if w != int(w):
                raise ValueError(f"edge ({u}, {v}) weight {w} is not a "
                                 "nonnegative integer")
            relays += int(w)
    if (need := relays * _RELAY_BYTES) > DP_MEMORY_BUDGET:
        raise SizeGuardError(
            f"binarize_weights refused: {relays:,} relay nodes need about "
            f"{need / 2**20:,.0f} MiB, over the "
            f"{DP_MEMORY_BUDGET / 2**20:,.0f} MiB budget")
    edges = []
    nxt = net.node_count
    for u, v, wuv, wvu in net.edges:
        for a, b, w in ((u, v, wuv), (v, u, wvu)):
            for x in range(nxt, nxt + int(w)):
                edges.append((a, x, 1.0, 0.0))
                edges.append((x, b, 1.0, 0.0))
            nxt += int(w)
    ext = tuple(net.external_influence) + (0.0,) * relays
    return InfluenceNetwork(nxt, edges, ext), float(relays)


def random_connected(n: int, edge_prob: float = 0.3,
                     weight_range=(0.5, 2.0), rng_seed: int = 0, *,
                     integer_weights: bool = False) -> InfluenceNetwork:
    """A connected random network with per-direction random weights.

    A random spanning tree guarantees connectivity; every other pair gets
    an edge with probability edge_prob.  Deterministic in rng_seed.
    """
    if (n := _integer(n, "n")) < 1:
        raise ValueError("n must be positive")
    rng = random.Random(rng_seed)
    lo, hi = weight_range

    def draw():
        if integer_weights:
            return float(rng.randint(int(lo), int(hi)))
        return rng.uniform(lo, hi)

    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < edge_prob:
                pairs.add((u, v))
    edges = [(u, v, draw(), draw()) for u, v in sorted(pairs)]
    return InfluenceNetwork(n, edges)
