"""Fixed-parameter solvers driven by a tree decomposition.

Each bag of the decomposition is widened to its closed neighborhood (the
bag plus every neighbor of a bag member), so the expected step time of any
bag member is fully determined by an ordering of that ground set.  A
bottom-up pass enumerates admissible orderings per bag, combines children
through compatibility on shared ground, and a top-down pass splices the
chosen orderings into one global sequence.

Two variants: tw_full_optimal activates everything (orderings are
permutations of the ground set), tw_partial_optimal activates exactly z
nodes (orderings are ordered subsequences and children contribute through
a budget convolution).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .network import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                      SizeGuardError, SolveResult, _step_time_masked,
                      check_instance, infeasible_result, sequence_time)

INF = math.inf

GROUND_CAP = 9


@dataclass(frozen=True)
class TreeDecomposition:
    """A rooted tree of bags.

    bags[i] is a frozenset of node ids; edges are (a, b) pairs of bag
    indices; root picks the bag the solvers orient from.  Child order is
    the edge input order, which only affects tie-breaking.
    """

    bags: tuple
    edges: tuple
    root: int = 0

    def __init__(self, bags, edges=(), root: int = 0):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in bags))
        object.__setattr__(self, "edges", tuple((int(a), int(b)) for a, b in edges))
        object.__setattr__(self, "root", int(root))

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @cached_property
    def _orientation(self):
        nb = len(self.bags)
        adj = [[] for _ in range(nb)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        parent = [-2] * nb
        parent[self.root] = -1
        children = [[] for _ in range(nb)]
        topo = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            topo.append(t)
            kids = []
            for w in adj[t]:
                if w == parent[t]:
                    continue
                if parent[w] != -2:
                    raise ValueError("decomposition edges contain a cycle")
                parent[w] = t
                kids.append(w)
            children[t] = kids
            stack.extend(reversed(kids))
        if len(topo) != nb:
            raise ValueError("decomposition edges do not connect all bags")
        return parent, children, topo

    def parent(self, t: int) -> int:
        return self._orientation[0][t]

    def children(self, t: int):
        return tuple(self._orientation[1][t])

    def topdown(self):
        """Bag indices, every parent before its children."""
        return tuple(self._orientation[2])


def validate_decomposition(net: InfluenceNetwork, td: TreeDecomposition):
    """Human-readable violations of the tree decomposition invariants."""
    out = []
    nb = len(td.bags)
    if not (0 <= td.root < nb):
        out.append(f"root {td.root} out of range")
        return out
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < net.node_count):
                out.append(f"bag {i} contains unknown node {v}")
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            out.append(f"tree edge ({a}, {b}) out of range")
            return out
    if len(td.edges) != nb - 1:
        out.append(f"tree needs {nb - 1} edges, has {len(td.edges)}")

    adj = [[] for _ in range(nb)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {td.root}
    stack = [td.root]
    while stack:
        t = stack.pop()
        for w in adj[t]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nb:
        out.append("tree edges do not connect all bags")

    covered = set()
    for bag in td.bags:
        covered |= bag
    for v in range(net.node_count):
        if v not in covered:
            out.append(f"node {v} appears in no bag")
    for u, v, _, _ in net.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            out.append(f"edge ({u}, {v}) is covered by no bag")

    for v in range(net.node_count):
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        if len(holding) <= 1:
            continue
        hold = set(holding)
        comp = {holding[0]}
        stack = [holding[0]]
        while stack:
            t = stack.pop()
            for w in adj[t]:
                if w in hold and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if len(comp) != len(holding):
            out.append(f"bags containing node {v} are not connected in the tree")
    return out


def min_fill_decomposition(net: InfluenceNetwork) -> TreeDecomposition:
    """Heuristic decomposition by min-fill elimination.

    Each eliminated vertex yields the bag of itself plus its current
    neighbors; a bag's parent is the bag of the first-eliminated other
    member.  Exact on trees (width 1); small widths on sparse graphs.
    """
    n = net.node_count
    adj = [set(net.neighbors(i)) for i in range(n)]
    remaining = set(range(n))
    bags = []
    elim = []
    for _ in range(n):
        best_v = -1
        best_fill = None
        for v in sorted(remaining):
            nb = adj[v]
            fill = 0
            nbl = sorted(nb)
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
        if others:
            parent = min(pos[x] for x in others)
        else:
            parent = n - 1  # isolated piece, hang it off the final bag
        edges.append((i, parent))
    return TreeDecomposition(bags=bags, edges=edges, root=n - 1)


# ---------------------------------------------------------------------------
# Decomposition files.
#
# JSON:  {"root": int, "bags": [[node,...],...], "edges": [[a,b],...]}
# .td:   PACE-style text, 1-based: "s td <bags> <maxbagsize> <n>",
#        "b <bag-id> <node...>" lines, then "<a> <b>" tree edge lines.
#        Bag 1 is the root.  Comment lines start with "c".


def load_td(path: str) -> TreeDecomposition:
    if path.endswith(".json"):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise NetworkFormatError(f"{path}: invalid JSON ({exc})") from exc
        try:
            return TreeDecomposition(bags=d["bags"], edges=d.get("edges", ()),
                                     root=d.get("root", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkFormatError(f"{path}: malformed decomposition ({exc})") from exc
    return _load_td_text(path)


def _load_td_text(path: str) -> TreeDecomposition:
    nb = None
    bags = {}
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            ln = raw.strip()
            if not ln or ln.startswith("c"):
                continue
            parts = ln.split()
            if parts[0] == "s":
                if len(parts) < 3 or parts[1] != "td":
                    raise NetworkFormatError(f"{path}:{lineno}: bad solution line")
                nb = int(parts[2])
            elif parts[0] == "b":
                try:
                    bid = int(parts[1]) - 1
                    bags[bid] = frozenset(int(x) - 1 for x in parts[2:])
                except ValueError as exc:
                    raise NetworkFormatError(f"{path}:{lineno}: {exc}") from exc
            else:
                if len(parts) != 2:
                    raise NetworkFormatError(f"{path}:{lineno}: bad edge line")
                try:
                    edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
                except ValueError as exc:
                    raise NetworkFormatError(f"{path}:{lineno}: {exc}") from exc
    if nb is None:
        raise NetworkFormatError(f"{path}: missing 's td' line")
    return TreeDecomposition(bags=[bags.get(i, frozenset()) for i in range(nb)],
                             edges=edges, root=0)


def save_td(td: TreeDecomposition, path: str):
    if path.endswith(".json"):
        d = {"root": td.root,
             "bags": [sorted(b) for b in td.bags],
             "edges": [list(e) for e in td.edges]}
        with open(path, "w") as fh:
            json.dump(d, fh, indent=1)
            fh.write("\n")
        return
    n = max((v for bag in td.bags for v in bag), default=-1) + 1
    maxbag = max((len(b) for b in td.bags), default=0)
    # text form has no root field; reorder so the root is bag 1
    order = [td.root] + [i for i in range(len(td.bags)) if i != td.root]
    renum = {old: new for new, old in enumerate(order)}
    with open(path, "w") as fh:
        fh.write(f"s td {len(td.bags)} {maxbag} {n}\n")
        for new, old in enumerate(order):
            nodes = " ".join(str(v + 1) for v in sorted(td.bags[old]))
            fh.write(f"b {new + 1} {nodes}\n".rstrip() + "\n")
        for a, b in td.edges:
            fh.write(f"{renum[a] + 1} {renum[b] + 1}\n")


# ---------------------------------------------------------------------------
# Orderings and compatibility.


def _restrict(seq, members):
    return tuple([x for x in seq if x in members])


def compatible(gamma, gamma_p, mode: str = "full", ground=None, ground_p=None):
    """Whether two bag orderings agree where they overlap.

    Full mode compares the orderings on their common support.  Partial mode
    needs both ground sets and compares restrictions to the ground
    intersection, so a node activated by one ordering but skipped by the
    other (while visible to both) is a disagreement.
    """
    if mode == "full":
        common = set(gamma) & set(gamma_p)
        return _restrict(gamma, common) == _restrict(gamma_p, common)
    if mode != "partial":
        raise ValueError(f"unknown mode {mode!r}")
    if ground is None or ground_p is None:
        raise ValueError("partial compatibility needs both ground sets")
    common = set(ground) & set(ground_p)
    return _restrict(gamma, common) == _restrict(gamma_p, common)


def bag_ground(net: InfluenceNetwork, bag) -> frozenset:
    """The bag plus every neighbor of a bag member."""
    g = set(bag)
    for i in bag:
        g.update(net.neighbors(i))
    return frozenset(g)


def _orderings(net, bag, ground, seed, mode):
    """Admissible orderings of the ground set, lexicographic.

    Constraints: the seed leads whenever it belongs to the bag, and every
    non-seed bag member is preceded by one of its neighbors.  Full mode
    yields permutations of the ground, partial mode every admissible
    ordered subsequence (including the empty one when the seed is not a
    bag member).
    """
    elems = sorted(ground)
    bagset = frozenset(bag)
    nbr = net._neighbor_mask
    out = []
    cur = []

    def dfs(placed_mask):
        if mode == "partial":
            if cur or seed not in bagset:
                out.append(tuple(cur))
        elif len(cur) == len(elems):
            out.append(tuple(cur))
            return
        for v in elems:
            bit = 1 << v
            if placed_mask & bit:
                continue
            if not cur and seed in bagset and v != seed:
                continue
            if v in bagset and v != seed and not (placed_mask & nbr[v]):
                continue
            cur.append(v)
            dfs(placed_mask | bit)
            cur.pop()

    dfs(0)
    return out


def enumerate_admissible(bag, instance: DiffusionInstance, children=(),
                         mode: str = "full", cap: int = GROUND_CAP):
    """Admissible orderings of a bag's ground set.

    children is an iterable of (ground, orderings) pairs for already-solved
    child bags; an ordering survives only if every child offers a
    compatible one.  Refuses ground sets larger than cap.
    """
    if mode not in ("full", "partial"):
        raise ValueError(f"unknown mode {mode!r}")
    net = instance.network
    ground = bag_ground(net, bag)
    if len(ground) > cap:
        raise SizeGuardError(
            f"bag {sorted(bag)} has a closed neighborhood of {len(ground)} "
            f"nodes, above cap {cap}")
    gammas = _orderings(net, bag, ground, instance.seed, mode)
    kid_keys = []
    for ground_c, orderings_c in children:
        s = frozenset(ground) & frozenset(ground_c)
        kid_keys.append((s, {_restrict(g, s) for g in orderings_c}))
    kept = []
    for g in gammas:
        for s, keys in kid_keys:
            if _restrict(g, s) not in keys:
                break
        else:
            kept.append(g)
    return tuple(kept)


# ---------------------------------------------------------------------------
# Solvers.


def _merge_ordering(gstar, gamma):
    """Splice a bag ordering into the global sequence under construction.

    New nodes collected between shared nodes are inserted immediately
    before the next shared node; a trailing run of new nodes is appended.
    """
    known = set(gstar)
    out = list(gstar)
    buf = []
    for x in gamma:
        if x in known:
            if buf:
                i = out.index(x)
                out[i:i] = buf
                buf = []
        else:
            buf.append(x)
    out.extend(buf)
    return out


def _tw_solve(instance, td, mode, cap):
    check_instance(instance)
    net = instance.network
    n = net.node_count
    if td is None:
        td = min_fill_decomposition(net)
    bad = validate_decomposition(net, td)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    if mode == "full" and instance.z != n:
        raise ValueError("full-diffusion solver requires z = node_count")
    z = instance.z
    seed = instance.seed
    alpha, beta = instance.alpha, instance.beta
    solver_name = "tw-full" if mode == "full" else "tw-partial"
    if z == 1:
        return SolveResult((seed,), 0.0, (0.0,), solver=solver_name)

    topo = td.topdown()
    recs = [None] * len(td.bags)

    for t in reversed(topo):
        bag = td.bags[t]
        bagset = set(bag)
        ground = bag_ground(net, bag)
        kid_ids = td.children(t)
        kid_data = []
        for c in kid_ids:
            rc = recs[c]
            s = ground & rc["ground"]
            shared_bag = bagset & rc["bag"]
            groups = {}
            for j, gp in enumerate(rc["gammas"]):
                groups.setdefault(_restrict(gp, s), []).append(j)
            prof = {}
            counts = {}
            for key, js in groups.items():
                sc_nodes = [x for x in key if x in shared_bag]
                cm0 = rc["costmaps"][js[0]]
                sc_cost = 0.0
                for x in sc_nodes:
                    sc_cost += cm0[x]
                counts[key] = len(sc_nodes)
                if mode == "full":
                    best = INF
                    for j in js:
                        v = rc["tstar"][j]
                        if v < best:
                            best = v
                    prof[key] = best - sc_cost if best < INF else INF
                else:
                    cnt = len(sc_nodes)
                    arr = [INF] * (z + 1)
                    for j in js:
                        a = rc["tstar"][j]
                        for mm in range(0, z + 1 - cnt):
                            v = a[mm + cnt]
                            if v < arr[mm]:
                                arr[mm] = v
                    prof[key] = [v - sc_cost if v < INF else INF for v in arr]
            kid_data.append((s, prof, counts))
        # A child's orderings matter here only through their restrictions
        # to the shared ground, which are the keys of its profile.
        gammas = enumerate_admissible(
            bag, instance, [(s, prof) for s, prof, _ in kid_data], mode, cap)

        kept_g, kept_cm, kept_ts, kept_tp = [], [], [], []
        for gamma in gammas:
            keys = [_restrict(gamma, s) for s, _, _ in kid_data]
            mask = 0
            cm = {}
            bagcost = 0.0
            for x in gamma:
                if x in bagset:
                    c = 0.0 if x == seed else \
                        _step_time_masked(net, mask, x, alpha, beta)
                    cm[x] = c
                    bagcost += c
                mask |= 1 << x
            if mode == "full":
                tot = bagcost
                for (s, prof, _), key in zip(kid_data, keys):
                    v = prof[key]
                    tot = tot + v if v < INF and tot < INF else INF
                kept_ts.append(tot)
            else:
                arr = [INF] * (z + 1)
                arr[0] = 0.0
                tp = [arr]
                for (s, prof, _), key in zip(kid_data, keys):
                    pv = prof[key]
                    nxt = [INF] * (z + 1)
                    for m in range(z + 1):
                        av = arr[m]
                        if av == INF:
                            continue
                        for mm in range(z + 1 - m):
                            w = pv[mm]
                            if w == INF:
                                continue
                            cand = av + w
                            if cand < nxt[m + mm]:
                                nxt[m + mm] = cand
                    arr = nxt
                    tp.append(arr)
                cnt_bag = len(cm)
                ts = [INF] * (z + 1)
                if bagcost < INF:
                    for k in range(cnt_bag, z + 1):
                        av = arr[k - cnt_bag]
                        if av < INF:
                            ts[k] = bagcost + av
                kept_ts.append(ts)
                kept_tp.append(tp)
            kept_g.append(gamma)
            kept_cm.append(cm)
        recs[t] = {"ground": ground, "bag": bagset, "gammas": kept_g,
                   "costmaps": kept_cm, "tstar": kept_ts, "tprime": kept_tp,
                   "kids": kid_ids, "kiddata": kid_data}

    root = td.root
    rr = recs[root]
    best = INF
    for j, _ in enumerate(rr["gammas"]):
        v = rr["tstar"][j] if mode == "full" else rr["tstar"][j][z]
        if v < best:
            best = v
    if best == INF:
        return infeasible_result(seed, solver_name)

    if mode == "full":
        gstar = []
        for t in topo:
            rt = recs[t]
            bj = -1
            bv = INF
            seen = _restrict(gstar, rt["ground"])
            for j, gamma in enumerate(rt["gammas"]):
                v = rt["tstar"][j]
                if v >= bv:
                    continue
                if compatible(gamma, seen):
                    bv = v
                    bj = j
            if bj < 0:
                raise RuntimeError("no compatible ordering during reconstruction")
            gstar = _merge_ordering(gstar, rt["gammas"][bj])
        if len(gstar) != n:
            raise RuntimeError("reconstruction did not cover every node")
    else:
        gstar = []
        known = set()

        def reconstruct(t, k):
            nonlocal gstar, known
            if k <= 0:
                return
            rt = recs[t]
            s_known = rt["ground"] & known
            want = _restrict(gstar, s_known)
            bj = -1
            bv = INF
            for j, gamma in enumerate(rt["gammas"]):
                v = rt["tstar"][j][k]
                if v >= bv:
                    continue
                if compatible(gamma, want, "partial", rt["ground"], s_known):
                    bv = v
                    bj = j
            if bj < 0:
                raise RuntimeError("no compatible ordering during reconstruction")
            gamma = rt["gammas"][bj]
            gstar = _merge_ordering(gstar, gamma)
            known |= rt["ground"]
            kp = k - len(rt["costmaps"][bj])
            tp = rt["tprime"][bj]
            for i in range(len(rt["kids"]) - 1, -1, -1):
                s, prof, counts = rt["kiddata"][i]
                key = _restrict(gamma, s)
                pv = prof[key]
                prev = tp[i]
                bm = -1
                bmv = INF
                for m in range(kp + 1):
                    if prev[m] == INF or pv[kp - m] == INF:
                        continue
                    cand = prev[m] + pv[kp - m]
                    if cand < bmv:
                        bmv = cand
                        bm = m
                if bm < 0:
                    raise RuntimeError("budget split lost during reconstruction")
                reconstruct(rt["kids"][i], (kp - bm) + counts[key])
                kp = bm
            if kp != 0:
                raise RuntimeError("budget not fully assigned")

        reconstruct(root, z)
        if len(gstar) != z:
            raise RuntimeError("reconstruction activated the wrong number of nodes")

    if gstar[0] != seed:
        raise RuntimeError("reconstructed sequence does not start at the seed")
    res = sequence_time(instance, gstar, solver=solver_name)
    if not (abs(res.total_time - best) <= 1e-9 * max(1.0, abs(best))):
        raise RuntimeError("reconstructed sequence does not match the optimum")
    return res


def tw_full_optimal(instance: DiffusionInstance,
                    td: TreeDecomposition | None = None, *,
                    cap: int = GROUND_CAP) -> SolveResult:
    """Optimal full diffusion along a tree decomposition (z = node_count)."""
    return _tw_solve(instance, td, "full", cap)


def tw_partial_optimal(instance: DiffusionInstance,
                       td: TreeDecomposition | None = None, *,
                       cap: int = GROUND_CAP) -> SolveResult:
    """Optimal partial diffusion (any z) along a tree decomposition."""
    return _tw_solve(instance, td, "partial", cap)
