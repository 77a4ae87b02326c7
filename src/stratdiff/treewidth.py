"""Fixed-parameter solvers driven by a tree decomposition.

Each bag of the decomposition is widened to its closed neighborhood (the
bag plus every neighbor of a bag member), so the expected step time of any
bag member is fully determined by an ordering of that ground set.  One
dynamic program serves both solvers.  Bottom-up, each bag keeps the
admissible orderings its children can match on shared ground, each with a
budget map {k: least time with k subtree nodes active} that folds in the
children's maps; a node's step time is paid at the highest bag holding it.
Top-down, the budget is split over the children and the chosen orderings
are spliced into one global sequence.

tw_partial_optimal orders subsequences of each ground and reads the root
at k = z.  tw_full_optimal orders permutations, so every map has the
single entry k = subtree size, read at k = n.  Both refuse a ground of
g > GROUND_CAP nodes, on the order of g! orderings, unless force=True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .network import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                      SizeGuardError, SolveResult, _read_json,
                      _step_time_masked, _write_json, check_instance,
                      infeasible_result, sequence_time)

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
                    raise ValueError("tree edges contain a cycle")
                parent[w] = t
                kids.append(w)
            children[t] = kids
            stack.extend(reversed(kids))
        if len(topo) != nb:
            raise ValueError("tree edges do not connect all bags")
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
    holding = [[] for _ in range(net.node_count)]  # node -> its bags, ascending
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < net.node_count:
                holding[v].append(i)
            else:
                out.append(f"bag {i} contains unknown node {v}")
    for a, b in td.edges:
        if not (0 <= a < nb and 0 <= b < nb):
            out.append(f"tree edge ({a}, {b}) out of range")
            return out
    if len(td.edges) != nb - 1:
        out.append(f"tree needs {nb - 1} edges, has {len(td.edges)}")

    try:
        parent = td._orientation[0]
    except ValueError as exc:  # not a tree; running intersection is moot
        out.append(str(exc))
        parent = None

    for v in range(net.node_count):
        if not holding[v]:
            out.append(f"node {v} appears in no bag")
    for u, v, _, _ in net.edges:
        if set(holding[u]).isdisjoint(holding[v]):
            out.append(f"edge ({u}, {v}) is covered by no bag")

    if parent is not None:
        # v's bags are connected iff exactly one has no parent holding v
        for v, bags in enumerate(holding):
            tops = sum(1 for t in bags if parent[t] < 0 or v not in td.bags[parent[t]])
            if tops > 1:
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
        d = _read_json(path)
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
        _write_json(d, path)
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
        ground, ground_p = gamma, gamma_p
    elif mode != "partial":
        raise ValueError(f"unknown mode {mode!r}")
    elif ground is None or ground_p is None:
        raise ValueError("partial compatibility needs both ground sets")
    common = set(ground) & set(ground_p)
    return _restrict(gamma, common) == _restrict(gamma_p, common)


def bag_ground(net: InfluenceNetwork, bag) -> frozenset:
    """The bag plus every neighbor of a bag member."""
    g = set(bag)
    for i in bag:
        g.update(net.neighbors(i))
    return frozenset(g)


def _checked_ground(net, bag, force):
    ground = bag_ground(net, bag)
    g = len(ground)
    if g > GROUND_CAP and not force:
        raise SizeGuardError(
            f"bag {sorted(bag)} has a closed neighborhood of {g} nodes, "
            f"above {GROUND_CAP}: on the order of {g}! orderings to "
            f"enumerate; pass force=True")
    return ground


def _orderings(net, bag, ground, seed, mode, kids=()):
    """Admissible orderings of the ground set, lexicographic.

    Constraints: the seed leads whenever it belongs to the bag, and every
    non-seed bag member is preceded by one of its neighbors.  Full mode
    yields permutations of the ground, partial mode every admissible
    ordered subsequence (including the empty one when the seed is not a
    bag member).

    kids holds (shared ground, keys) pairs.  Each ordering comes with its
    restriction to every shared ground and is kept only when each
    restriction is one of that kid's keys; the search leaves a branch as
    soon as a restriction is no prefix of any key.
    """
    elems = sorted(ground)
    bagset = frozenset(bag)
    nbr = net._neighbor_mask
    lead = seed in bagset
    partial = mode == "partial"
    keysets = [keys for _, keys in kids]
    prefixes = [{key[:i] for key in keys for i in range(len(key) + 1)}
                for keys in keysets]
    hits = {v: [i for i, (s, _) in enumerate(kids) if v in s] for v in elems}
    out = []
    cur = []

    def dfs(placed_mask, rest):
        if partial or len(cur) == len(elems):
            if (cur or not lead) and \
                    all(r in keys for r, keys in zip(rest, keysets)):
                out.append((tuple(cur), rest))
            if not partial:
                return
        for v in elems:
            bit = 1 << v
            if placed_mask & bit:
                continue
            if not cur and lead and v != seed:
                continue
            if v in bagset and v != seed and not (placed_mask & nbr[v]):
                continue
            nxt = rest
            for i in hits[v]:
                r = rest[i] + (v,)
                if r not in prefixes[i]:
                    break
                nxt = nxt[:i] + (r,) + nxt[i + 1:]
            else:
                cur.append(v)
                dfs(placed_mask | bit, nxt)
                cur.pop()

    dfs(0, ((),) * len(kids))
    return out


def enumerate_admissible(bag, instance: DiffusionInstance, children=(),
                         mode: str = "full"):
    """Admissible orderings of a bag's ground set.

    children is an iterable of (ground, orderings) pairs for already-solved
    child bags; an ordering survives only if every child offers a
    compatible one.  Refuses ground sets larger than GROUND_CAP.
    """
    if mode not in ("full", "partial"):
        raise ValueError(f"unknown mode {mode!r}")
    net = instance.network
    ground = _checked_ground(net, bag, False)
    kids = []
    for ground_c, orderings_c in children:
        s = ground & frozenset(ground_c)
        kids.append((s, {_restrict(g, s) for g in orderings_c}))
    return tuple(g for g, _ in
                 _orderings(net, bag, ground, instance.seed, mode, kids))


# ---------------------------------------------------------------------------
# Solvers.


@dataclass
class _BagTable:
    """One solved bag: its kept orderings and what each kid offers them."""

    ground: frozenset
    members: frozenset
    kids: tuple      # child bag indices, in decomposition order
    shared: list     # per kid: (shared ground, profile from _profile)
    orderings: list  # kept orderings, each with a nonempty budget map
    costs: list      # per ordering: {bag member: step time}, in its order
    maps: list       # per ordering: budget map of the whole subtree


def _chain(cost, profiles, cap):
    """Budget maps of one ordering: its bag alone, then each kid folded in.

    Each fold is a (min, +) convolution dropping counts above cap.
    """
    total = 0.0
    for c in cost.values():
        total += c
    acc = {len(cost): total} if total < INF and len(cost) <= cap else {}
    chain = [acc]
    for pv in profiles:
        nxt = {}
        for m, a in acc.items():
            for mm, b in pv.items():
                k = m + mm
                if k <= cap:
                    c = a + b
                    if c < nxt.get(k, INF):
                        nxt[k] = c
        acc = nxt
        chain.append(acc)
    return chain


def _profile(table, s, paid_above):
    """What a kid offers its parent, keyed by restriction to the shared ground.

    Each key maps to (count, map): the least budget map over the kid's
    orderings with that restriction, less the count and step times of its
    active members of paid_above, which the parent bag pays for.
    """
    prof = {}
    for gamma, cost, bmap in zip(table.orderings, table.costs, table.maps):
        key = _restrict(gamma, s)
        paid = [x for x in key if x in paid_above]
        sc = 0.0
        for x in paid:
            sc += cost[x]
        cnt, least = prof.setdefault(key, (len(paid), {}))
        for k, v in bmap.items():
            if v - sc < least.get(k - cnt, INF):
                least[k - cnt] = v - sc
    return prof


def _solve_bag(instance, td, t, tables, mode, force):
    net = instance.network
    members = td.bags[t]
    ground = _checked_ground(net, members, force)
    kids = td.children(t)
    shared = []
    for c in kids:
        s = ground & tables[c].ground
        shared.append((s, _profile(tables[c], s, members & tables[c].members)))
    table = _BagTable(ground, members, kids, shared, [], [], [])
    for gamma, keys in _orderings(net, members, ground, instance.seed, mode,
                                  shared):
        mask = 0
        cost = {}
        for x in gamma:
            if x in members:
                cost[x] = 0.0 if x == instance.seed else _step_time_masked(
                    net, mask, x, instance.alpha, instance.beta)
            mask |= 1 << x
        bmap = _chain(cost, [prof[key][1] for (_, prof), key
                             in zip(shared, keys)], instance.z)[-1]
        if bmap:
            table.orderings.append(gamma)
            table.costs.append(cost)
            table.maps.append(bmap)
    return table


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


def _reconstruct(td, tables, z):
    """Top-down: per bag, the least ordering for its budget that agrees with
    the sequence so far, then the budget split over its kids."""
    gstar = []
    known = frozenset()
    budget = {td.root: z}
    for t in td.topdown():
        k = budget.get(t, 0)
        if k == 0:
            continue
        table = tables[t]
        s_known = table.ground & known
        want = _restrict(gstar, s_known)
        bj = -1
        bv = INF
        for j, gamma in enumerate(table.orderings):
            v = table.maps[j].get(k, INF)
            if v < bv and _restrict(gamma, s_known) == want:
                bv = v
                bj = j
        if bj < 0:
            raise RuntimeError("no compatible ordering during reconstruction")
        gamma = table.orderings[bj]
        gstar = _merge_ordering(gstar, gamma)
        known |= table.ground
        picks = [prof[_restrict(gamma, s)] for s, prof in table.shared]
        chain = _chain(table.costs[bj], [pv for _, pv in picks], z)
        for i in range(len(picks) - 1, -1, -1):
            cnt, pv = picks[i]
            prev = chain[i]
            bm = min((m for m in sorted(prev) if k - m in pv),
                     key=lambda m: prev[m] + pv[k - m], default=None)
            if bm is None:
                raise RuntimeError("budget split lost during reconstruction")
            budget[table.kids[i]] = k - bm + cnt
            k = bm
        if k != len(table.costs[bj]):
            raise RuntimeError("budget not fully assigned")
    return gstar


def _tw_solve(instance, td, mode, force):
    check_instance(instance)
    net = instance.network
    if td is None:
        td = min_fill_decomposition(net)
    bad = validate_decomposition(net, td)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    if mode == "full" and instance.z != net.node_count:
        raise ValueError("full-diffusion solver requires z = node_count")
    z = instance.z
    solver_name = "tw-full" if mode == "full" else "tw-partial"

    tables = [None] * len(td.bags)
    for t in reversed(td.topdown()):
        tables[t] = _solve_bag(instance, td, t, tables, mode, force)
    best = min((m.get(z, INF) for m in tables[td.root].maps), default=INF)
    if best == INF:
        return infeasible_result(instance.seed, solver_name)

    gstar = _reconstruct(td, tables, z)
    if len(gstar) != z:
        raise RuntimeError("reconstruction activated the wrong number of nodes")
    if gstar[0] != instance.seed:
        raise RuntimeError("reconstructed sequence does not start at the seed")
    res = sequence_time(instance, gstar, solver=solver_name)
    if not (abs(res.total_time - best) <= 1e-9 * max(1.0, abs(best))):
        raise RuntimeError("reconstructed sequence does not match the optimum")
    return res


def tw_full_optimal(instance: DiffusionInstance,
                    td: TreeDecomposition | None = None, *,
                    force: bool = False) -> SolveResult:
    """Optimal full diffusion along a tree decomposition (z = node_count)."""
    return _tw_solve(instance, td, "full", force)


def tw_partial_optimal(instance: DiffusionInstance,
                       td: TreeDecomposition | None = None, *,
                       force: bool = False) -> SolveResult:
    """Optimal partial diffusion (any z) along a tree decomposition."""
    return _tw_solve(instance, td, "partial", force)
