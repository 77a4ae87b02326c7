"""Fixed-parameter solvers driven by a tree decomposition.

Each node is counted and priced once, at its top bag: the bag whose parent
does not hold it.  Its step time reads only P(v), its neighbors in the
block nearest the seed that holds it; the others lie in blocks v leads
into and cannot be active first.  So each bag is widened to its ground:
the bag plus P(v) of each top member, closed under running intersection
(never more than the closed neighborhood, bag_ground).  On a tree P(v) is
v's parent.  One dynamic program serves both solvers.  Bottom-up, each
bag keeps the admissible orderings its children can match on shared
ground, each with a budget map {k: least time with k subtree nodes
active} that folds in the children's maps; a child's profile records
which of its orderings reached each least value.  Top-down,
reconstruction reads the recorded choices back: each bag splits its
budget over its children, takes their recorded orderings, and splices
them into one global sequence.

Both solvers run this DP, read at k = z.  Every bag orders its ground by
one rule that the restriction of any z-sequence obeys, and prices each
ordering while the search builds it (see _orderings); at z = node_count
the rule leaves only permutations.  tw_full_optimal accepts only
z = node_count.  Both refuse a ground of g > GROUND_CAP nodes, on the
order of g! orderings, unless force=True, before any bag is solved.
tw_partial_optimal solves only the ball within z - 1 hops of the seed,
all a z-sequence can activate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import cached_property

from .decompose import _blocks
from .network import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                      SizeGuardError, SolveResult, _ball, _induced, _integer,
                      _read_json, _step_time_masked, _write_json,
                      infeasible_result, mask_of, sequence_time)

INF = math.inf

GROUND_CAP = 9


@dataclass(frozen=True)
class TreeDecomposition:
    """A rooted tree of bags.

    bags[i] is a frozenset of integer node ids; edges are (a, b) pairs of bag
    indices; root picks the bag the solvers orient from.  Child order is
    the edge input order, which only affects tie-breaking.
    """

    bags: tuple
    edges: tuple
    root: int = 0

    def __init__(self, bags, edges=(), root: int = 0):
        object.__setattr__(self, "bags", tuple(
            frozenset(_integer(v, "node id") for v in b) for b in bags))
        object.__setattr__(self, "edges", tuple(
            (_integer(a, "bag index"), _integer(b, "bag index")) for a, b in edges))
        object.__setattr__(self, "root", _integer(root, "root bag index"))

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


def _fill(adj, v) -> int:
    """Edges that eliminating v would add: non-adjacent pairs of neighbours.
    Each intersection iterates its smaller side: a star's centre is O(d)."""
    nb = adj[v]
    d = len(nb)
    return (d * (d - 1) - sum(len(nb & adj[a]) for a in nb)) // 2


def min_fill_decomposition(net: InfluenceNetwork) -> TreeDecomposition:
    """Heuristic decomposition by min-fill elimination.

    Each step eliminates the vertex of least fill, the smallest id among
    ties.  Each eliminated vertex yields the bag of itself plus its current
    neighbors; a bag's parent is the bag of the first-eliminated other
    member.  Exact on trees (width 1); small widths on sparse graphs.
    Fills sit in a heap keyed (fill, id).  Each is counted once, then kept
    exact: a fill edge updates its two ends and their common neighbours in
    O(min degree), and dropping an eliminated vertex costs O(1) per
    neighbour.  So the cost is the initial counts plus O(min degree) per
    fill edge, and O(n log n) on trees and stars.
    """
    n = net.node_count
    adj = [set(net.neighbors(i)) for i in range(n)]
    fill = [_fill(adj, v) for v in range(n)]
    heap = sorted(zip(fill, range(n)))  # a sorted list is a heap
    bags, elim = [], []
    while heap:
        f, v = heapq.heappop(heap)
        if fill[v] != f:  # eliminated, or changed since it was pushed
            continue
        nb = adj[v]
        bags.append(frozenset(nb | {v}))
        elim.append(v)
        changed = set(nb)
        if f:  # join nb into a clique, v still in the graph, edge by edge
            for x in nb:
                for y in nb - adj[x] - {x}:
                    common = adj[x] & adj[y]
                    # x gains the pairs (y, b) for its b not adjacent to y,
                    # and y likewise; (x, y) stops being missing for common
                    fill[x] += len(adj[x]) - len(common)
                    fill[y] += len(adj[y]) - len(common)
                    for w in common:
                        fill[w] -= 1
                    changed |= common
                    adj[x].add(y)
                    adj[y].add(x)
        fill[v] = -1
        for a in nb:  # nb is a clique: a loses its pairs of v with b outside nb
            fill[a] -= len(adj[a]) - len(nb)
            adj[a].discard(v)
        changed.discard(v)
        for u in changed:
            heapq.heappush(heap, (fill[u], u))

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
            try:
                if parts[0] == "s":
                    if nb is not None:
                        raise ValueError("second 's td' line")
                    if len(parts) < 3 or parts[1] != "td":
                        raise ValueError("bad solution line")
                    nb = int(parts[2])
                elif parts[0] == "b":
                    k = int(parts[1])
                    if nb is None:
                        raise ValueError("'b' line before the 's td' line")
                    if not 1 <= k <= nb:
                        raise ValueError(f"bag id {k} outside 1..{nb}")
                    if k - 1 in bags:
                        raise ValueError(f"bag {k} given twice")
                    bags[k - 1] = frozenset(int(x) - 1 for x in parts[2:])
                elif len(parts) == 2:
                    edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
                else:
                    raise ValueError("bad edge line")
            except (IndexError, ValueError) as exc:
                raise NetworkFormatError(f"{path}:{lineno}: {exc}") from exc
    if nb is None:
        raise NetworkFormatError(f"{path}: missing 's td' line")
    for i in range(nb):
        if i not in bags:
            raise NetworkFormatError(f"{path}: no 'b' line for bag {i + 1}")
    return TreeDecomposition(bags=[bags[i] for i in range(nb)], edges=edges, root=0)


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
# Orderings.


def _restrict(seq, members):
    return tuple([x for x in seq if x in members])


def bag_ground(net: InfluenceNetwork, bag) -> frozenset:
    """The bag plus every neighbor of a bag member: the upper bound of a
    ground (see _grounds)."""
    g = set(bag)
    for i in bag:
        g.update(net.neighbors(i))
    return frozenset(g)


def _preds(net, seed):
    """P(v) per node: v's neighbors in the block nearest the seed that
    holds v, the only ones that can be active before v; the seed's is
    empty.  Raises ValueError on a disconnected network."""
    preds = [frozenset()] * net.node_count
    for nodes, entry in _blocks(net, seed):
        inside = frozenset(nodes)
        for v in nodes:
            if v != entry:
                preds[v] = inside.intersection(net.neighbors(v))
    return preds


def _grounds(td, preds):
    """Each bag's ground: the bag plus P(u) of each member u whose top bag it
    is, closed under running intersection: v in P(u) joins every bag from
    top(v) up to top(u), the two being comparable as u's bags meet v's."""
    parent = td._orientation[0]
    grounds = [set(b) for b in td.bags]
    top, depth = {}, {-1: -1}
    for t in td.topdown():
        depth[t] = depth[parent[t]] + 1
        for v in td.bags[t]:
            top.setdefault(v, t)
    for u, t in top.items():
        for v in preds[u]:
            b = top[v]
            while depth[b] > depth[t]:
                b = parent[b]
                grounds[b].add(v)
    return [frozenset(g) for g in grounds]


def _orderings(instance, bag, top, ground, preds, kids=()):
    """Admissible orderings of the ground set, lexicographic, each priced.

    One rule holds for the restriction of every z-sequence to a ground of
    g nodes: the seed leads whenever it is in the ground, every bag member
    v with P(v) inside the ground (each top member) follows a node of P(v),
    and between g - (n - z) and min(g, z) nodes are ordered, as z nodes
    activate and n - z do not.  At z = node_count the rule leaves only
    permutations.

    kids holds (shared ground, keys) pairs.  Each ordering comes with its
    restriction to every shared ground and is kept only when each
    restriction is one of that kid's keys; the search leaves a branch as
    soon as a restriction is no prefix of any key.  Each ordering also
    comes with its count of top members and their step times summed in
    order, the seed's excluded; a branch ends at its first infinite step.
    """
    net = instance.network
    seed, alpha, beta = instance.seed, instance.alpha, instance.beta
    elems = sorted(ground)
    follow = {v: mask_of(preds[v]) for v in bag if preds[v] and preds[v] <= ground}
    lead = seed in ground
    lo = max(len(elems) - (net.node_count - instance.z), lead)
    hi = min(len(elems), instance.z)
    keysets = [keys for _, keys in kids]
    prefixes = [{key[:i] for key in keys for i in range(len(key) + 1)}
                for keys in keysets]
    hits = {v: [i for i, (s, _) in enumerate(kids) if v in s] for v in elems}
    out = []
    cur = []

    def dfs(placed_mask, rest, count, total):
        if len(cur) >= lo and all(r in keys for r, keys in zip(rest, keysets)):
            out.append((tuple(cur), rest, count, total))
        if len(cur) == hi:
            return
        for v in elems:
            bit = 1 << v
            if placed_mask & bit:
                continue
            if not cur and lead and v != seed:
                continue
            if v in follow and not placed_mask & follow[v]:
                continue
            nxt = rest
            for i in hits[v]:
                r = rest[i] + (v,)
                if r not in prefixes[i]:
                    break
                nxt = nxt[:i] + (r,) + nxt[i + 1:]
            else:
                tot = total
                if v in top and v != seed:
                    tot += _step_time_masked(net, placed_mask, v, alpha, beta)
                    if tot == INF:
                        continue
                cur.append(v)
                dfs(placed_mask | bit, nxt, count + (v in top), tot)
                cur.pop()

    dfs(0, ((),) * len(kids), 0, 0.0)
    return out


# ---------------------------------------------------------------------------
# Solvers.


@dataclass
class _BagTable:
    """One solved bag: its kept orderings and what each kid offers them."""

    ground: frozenset
    shared: list     # per kid, in td.children order: (shared ground, profile)
    orderings: list  # kept orderings, each with a nonempty budget map
    bases: list      # per ordering: {top-bag count: summed step time}
    maps: list       # per ordering: budget map of the subtree's top-bag nodes


def _chain(base, profiles, cap):
    """Budget maps of one ordering: its bag alone, then each kid folded in.

    Each fold is a (min, +) convolution dropping counts above cap.
    """
    acc = base
    chain = [acc]
    for pv in profiles:
        nxt = {}
        for m, a in acc.items():
            for mm, (b, _) in pv.items():
                k = m + mm
                if k <= cap:
                    c = a + b
                    if c < nxt.get(k, INF):
                        nxt[k] = c
        acc = nxt
        chain.append(acc)
    return chain


def _profile(table, s):
    """What a kid offers its parent: per restriction to the shared ground,
    {k: (least value, index of the first kid ordering that reaches it)}
    over the kid's orderings with that restriction.  The values count only
    nodes whose top bag is in the kid's subtree."""
    prof = {}
    for j, (gamma, bmap) in enumerate(zip(table.orderings, table.maps)):
        least = prof.setdefault(_restrict(gamma, s), {})
        for k, v in bmap.items():
            e = least.get(k)
            if e is None or v < e[0]:
                least[k] = (v, j)
    return prof


def _solve_bag(instance, td, t, tables, ground, preds):
    """Bag t's table; _orderings prices only the members whose top bag is t."""
    members = td.bags[t]
    p = td.parent(t)
    top = members - td.bags[p] if p >= 0 else members
    shared = []
    for c in td.children(t):
        s = ground & tables[c].ground
        shared.append((s, _profile(tables[c], s)))
    table = _BagTable(ground, shared, [], [], [])
    for gamma, keys, count, total in _orderings(instance, members, top,
                                                ground, preds, shared):
        base = {count: total}
        bmap = _chain(base, [prof[key] for (_, prof), key
                             in zip(shared, keys)], instance.z)[-1]
        if bmap:
            table.orderings.append(gamma)
            table.bases.append(base)
            table.maps.append(bmap)
    return table


def _reconstruct(td, tables, z, j):
    """Top-down from root ordering j at budget z: each bag splits its budget
    over its kids along its chain, and each kid takes the ordering its profile
    recorded for that budget under the bag ordering's restriction.  No search:
    a kid's ground meets earlier bags' grounds only inside its parent's.
    Each bag's new nodes are spliced in immediately before the next placed
    node x, after any runs spliced there before (before[x], in splice order),
    or appended to the tail; one stack pass flattens the runs at the end."""
    before, tail = {}, []
    pick = {td.root: (z, j)}
    for t in td.topdown():
        k, j = pick.get(t, (0, -1))
        if k == 0:
            continue
        table = tables[t]
        gamma = table.orderings[j]
        run = []
        for x in gamma:
            if x in before:
                before[x] += run
                run = []
            else:
                run.append(x)
        tail += run
        before |= {x: [] for x in gamma if x not in before}
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
    gstar, stack = [], tail[::-1]
    while stack:
        x = stack.pop()
        if runs := before.pop(x, None):
            stack += [x, *reversed(runs)]
        else:
            gstar.append(x)
    return gstar


def _tw_solve(instance, td, force, solver_name, names=None):
    """Tree DP along a valid td (min-fill's if None) on a connected network;
    a refusal calls v names[v]."""
    preds = _preds(instance.network, instance.seed)
    if td is None:
        td = min_fill_decomposition(instance.network)
    z = instance.z
    grounds = _grounds(td, preds)
    t = max(range(len(grounds)), key=lambda t: len(grounds[t]))
    if (g := len(grounds[t])) > GROUND_CAP and not force:
        ids = [v if names is None else names[v] for v in sorted(td.bags[t])]
        raise SizeGuardError(
            f"bag {ids} has a ground of {g} nodes, above {GROUND_CAP}: on "
            f"the order of {g}! orderings to enumerate; pass force=True "
            "(--force on the command line)")

    tables = [None] * len(td.bags)
    for t in reversed(td.topdown()):
        tables[t] = _solve_bag(instance, td, t, tables, grounds[t], preds)
    best, j = min(((m.get(z, INF), j) for j, m in enumerate(tables[td.root].maps)),
                  default=(INF, -1))
    if best == INF:
        return infeasible_result(instance.seed, solver_name)

    gstar = _reconstruct(td, tables, z, j)
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
    """Optimal full diffusion along a tree decomposition (z = node_count):
    tw_partial_optimal's answer, under this solver's name."""
    if instance.z != instance.network.node_count:
        raise ValueError("full-diffusion solver requires z = node_count")
    return replace(tw_partial_optimal(instance, td, force=force), solver="tw-full")


def tw_partial_optimal(instance: DiffusionInstance,
                       td: TreeDecomposition | None = None, *,
                       force: bool = False) -> SolveResult:
    """Optimal partial diffusion (any z) along a tree decomposition, on the
    ball within z - 1 hops of the seed: a given td is checked on the whole
    network, then cut to the ball: each bag is intersected with it, an
    empty bag is dropped and one inside its nearest kept ancestor merged
    into that.  The bags meeting the (connected) ball form a subtree, so
    the kept bags form a tree, rooted at the one nearest the old root."""
    if td is not None and (bad := validate_decomposition(instance.network, td)):
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    ball = _ball(instance)
    if len(ball) == instance.network.node_count:
        return _tw_solve(instance, td, force, "tw-partial")
    if len(ball) < instance.z:
        return infeasible_result(instance.seed, "tw-partial")
    sub, to_global = _induced(instance, ball, instance.seed, instance.z)
    if td is not None:
        local = {g: i for i, g in enumerate(ball)}
        cut = [frozenset(local[v] for v in bag if v in local) for bag in td.bags]
        bags, edges, near = [], [], {-1: None}  # near[t]: t, or where it merged
        for t in td.topdown():
            a = near[td.parent(t)]
            if cut[t] and (a is None or not cut[t] <= bags[a]):
                if a is not None:
                    edges.append((a, len(bags)))
                a = len(bags)
                bags.append(cut[t])
            near[t] = a
        td = TreeDecomposition(bags, edges)
    res = _tw_solve(sub, td, force, "tw-partial", to_global)
    if not res.feasible:
        return infeasible_result(instance.seed, "tw-partial")
    return sequence_time(instance, [to_global[v] for v in res.sequence], "tw-partial")
