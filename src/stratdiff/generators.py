"""Instance generators: adversarial families, reductions and random networks.

make_gk builds the layered grid family G(k) on which greedy-style
heuristics pay a harmonic-number factor over the optimum.  make_np_hardness
and make_inapprox embed set cover instances into diffusion networks; the
former ties a cover of size k to a concrete optimal total t*, the latter
scales weights so any good activation sequence reads off a near-minimal
cover (extract_cover).  binarize_weights rewrites integer weights into
unit-weight two-paths, preserving optima up to a known offset.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .network import (DiffusionInstance, InfluenceNetwork, SequenceError,
                      _checked_sequence)


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe {0..universe_size-1} and a family of covering sets."""

    universe_size: int
    sets: tuple

    def __init__(self, universe_size: int, sets):
        object.__setattr__(self, "universe_size", int(universe_size))
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in sets))
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
    if k < 1:
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


def make_np_hardness(sc: SetCoverInstance, k: int, *,
                     binary_weights: bool = False):
    """Embed a set cover decision (cover of size <= k?) into diffusion.

    Node ids: seed 0; set nodes 1..s; blocker nodes q_j = s+j and
    q'_j = 2s+j (never activatable, they only inflate set node influence);
    element nodes 1+3s..3s+|U|.  Returns (instance, t_star): a cover of
    size <= k exists iff the optimum is <= t_star.  With binary_weights
    the heavy blocker edge is replaced by unit-weight two-paths through
    extra nodes, leaving t_star unchanged.
    """
    s = len(sc.sets)
    u = sc.universe_size
    if not (1 <= k <= s):
        raise ValueError(f"k must be in 1..{s}")
    heavy = float(u * s)
    edges = []
    nxt = 1 + 3 * s + u
    for j in range(s):
        set_node = 1 + j
        q = 1 + s + j
        qp = 1 + 2 * s + j
        edges.append((0, set_node, 1.0, 1.0))
        if binary_weights:
            for _ in range(u * s):
                x = nxt
                nxt += 1
                edges.append((set_node, x, 0.0, 1.0))  # x feeds the set node
                edges.append((q, x, 1.0, 0.0))         # x only activatable via q
        else:
            edges.append((q, set_node, heavy, 0.0))
        edges.append((q, qp, 1.0, 1.0))
        for e in sorted(sc.sets[j]):
            elem = 1 + 3 * s + e
            edges.append((set_node, elem, 1.0, 0.0))
    net = InfluenceNetwork(nxt, edges)
    z = k + u + 1
    t_star = k * (heavy + 1.0) + heavy
    return DiffusionInstance(network=net, seed=0, z=z), t_star


def inapprox_scale(sc: SetCoverInstance, lam: float = 1.0) -> float:
    """The set-node step cost used by make_inapprox."""
    s = len(sc.sets)
    z = sc.universe_size * (s + 1) + 1
    return z * float(s) ** (lam + 1.0)


def make_inapprox(sc: SetCoverInstance, lam: float = 1.0) -> DiffusionInstance:
    """Embed set cover so good sequences encode near-minimal covers.

    Each element gets |S|+1 copies, each set node costs exactly
    a = z * |S|^(lam+1) to activate, and z = |U|(|S|+1) + 1, so the
    optimal total divided by a is sandwiched between the minimal cover
    size m and m * (1 + 1/|S|^lam).  Node ids: seed 0; set nodes 1..s;
    blockers q_j = s+j, q'_j = 2s+j; element copies
    1+3s + e*(s+1) + c for element e and copy c.
    """
    s = len(sc.sets)
    u = sc.universe_size
    a = inapprox_scale(sc, lam)
    edges = []
    for j in range(s):
        set_node = 1 + j
        q = 1 + s + j
        qp = 1 + 2 * s + j
        edges.append((0, set_node, 1.0, 1.0))
        edges.append((q, set_node, a - 1.0, 0.0))
        edges.append((q, qp, 1.0, 1.0))
        for e in sorted(sc.sets[j]):
            for c in range(s + 1):
                copy = 1 + 3 * s + e * (s + 1) + c
                edges.append((set_node, copy, 1.0, 0.0))
    net = InfluenceNetwork(1 + 3 * s + u * (s + 1), edges)
    z = u * (s + 1) + 1
    return DiffusionInstance(network=net, seed=0, z=z)


def extract_cover(sc: SetCoverInstance, sequence) -> frozenset:
    """Read the cover off an activation sequence of a make_inapprox instance.

    Checks the sequence is structurally feasible for the gadget (right
    length, starts at the seed, no blocker nodes, every element copy
    preceded by a covering set node) and returns the 0-based indices of
    the set nodes it activates.
    """
    s = len(sc.sets)
    u = sc.universe_size
    z = u * (s + 1) + 1
    n = 1 + 3 * s + u * (s + 1)
    seq = _checked_sequence(sequence, 0, n)
    if len(seq) != z:
        raise SequenceError(f"sequence must activate exactly {z} nodes")
    chosen = set()
    for v in seq[1:]:
        if 1 <= v <= s:
            chosen.add(v - 1)
        elif v <= 3 * s:
            raise SequenceError(f"blocker node {v} can never activate")
        else:
            e = (v - 1 - 3 * s) // (s + 1)
            if not any(e in sc.sets[j] for j in chosen):
                raise SequenceError(
                    f"element copy {v} activated before any covering set node")
    return frozenset(chosen)


def binarize_weights(net: InfluenceNetwork):
    """Rewrite integer edge weights as unit-weight two-paths.

    Every unit of directed weight u->v becomes a fresh relay node x with
    w(u->x) = 1 feeding x and w(x->v) = 1 feeding v (reverse directions 0).
    Returns (new_network, offset) with offset = total weight rewritten;
    the optimal full-diffusion time grows by exactly offset, since each
    relay costs one expected step after its source is active.  Requires
    nonnegative integer weights.
    """
    for u, v, wuv, wvu in net.edges:
        for w in (wuv, wvu):
            if w < 0 or w != int(w):
                raise ValueError(f"edge ({u}, {v}) weight {w} is not a "
                                 "nonnegative integer")
    edges = []
    nxt = net.node_count
    offset = 0.0
    for u, v, wuv, wvu in net.edges:
        for a, b, w in ((u, v, wuv), (v, u, wvu)):
            for _ in range(int(w)):
                x = nxt
                nxt += 1
                edges.append((a, x, 1.0, 0.0))
                edges.append((x, b, 1.0, 0.0))
                offset += 1.0
    ext = tuple(net.external_influence) + (0.0,) * (nxt - net.node_count)
    return InfluenceNetwork(nxt, edges, ext), offset


def random_connected(n: int, edge_prob: float = 0.3,
                     weight_range=(0.5, 2.0), rng_seed: int = 0, *,
                     integer_weights: bool = False) -> InfluenceNetwork:
    """A connected random network with per-direction random weights.

    A random spanning tree guarantees connectivity; every other pair gets
    an edge with probability edge_prob.  Deterministic in rng_seed.
    """
    if n < 1:
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
