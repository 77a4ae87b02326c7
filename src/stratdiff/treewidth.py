"""Fixed-parameter solvers driven by a tree decomposition.

Each bag of the decomposition is widened to its closed neighborhood (the
bag plus every neighbor of a bag member), so the expected step time of any
bag member is fully determined by an ordering of that ground set.  One
dynamic program serves both solvers.  Bottom-up, each bag keeps the
admissible orderings its children can match on shared ground, each with a
budget map {k: least time with k subtree nodes active} that folds in the
children's maps; a child's profile records which of its orderings reached
each least value.  Each node is counted and priced once, at its top bag:
the bag whose parent does not hold it.  Top-down, reconstruction reads the
recorded choices back: each bag splits its budget over its children, takes
their recorded orderings, and splices them into one global sequence.

Both solvers run this DP, read at k = z.  Every bag orders its ground by
one rule that the restriction of any z-sequence obeys, and prices each
ordering while the search builds it (see _orderings); at z = node_count
the rule leaves only permutations.  tw_full_optimal accepts only
z = node_count.  Both refuse a ground of g > GROUND_CAP nodes, on the
order of g! orderings, unless force=True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index

from .network import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                      SizeGuardError, SolveResult, _read_json,
                      _step_time_masked, _write_json, check_instance,
                      infeasible_result, sequence_time)

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
        object.__setattr__(self, "bags", tuple(frozenset(map(index, b)) for b in bags))
        object.__setattr__(self, "edges", tuple((index(a), index(b)) for a, b in edges))
        object.__setattr__(self, "root", index(root))

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


def _orderings(instance, bag, top, ground, kids=()):
    """Admissible orderings of the ground set, lexicographic, each priced.

    One rule holds for the restriction of every z-sequence to a ground of
    g nodes: the seed leads whenever it is in the ground, every non-seed
    bag member follows one of its neighbors, and between g - (n - z) and
    min(g, z) nodes are ordered, as z nodes activate and n - z do not.  At
    z = node_count the rule leaves only permutations.

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
    bagset = frozenset(bag)
    nbr = net._neighbor_mask
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
            if v in bagset and v != seed and not (placed_mask & nbr[v]):
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


def _solve_bag(instance, td, t, tables, force):
    """Bag t's table; _orderings prices only the members whose top bag is t."""
    net = instance.network
    members = td.bags[t]
    ground = _checked_ground(net, members, force)
    p = td.parent(t)
    top = members - td.bags[p] if p >= 0 else members
    shared = []
    for c in td.children(t):
        s = ground & tables[c].ground
        shared.append((s, _profile(tables[c], s)))
    table = _BagTable(ground, shared, [], [], [])
    for gamma, keys, count, total in _orderings(instance, members, top,
                                                ground, shared):
        base = {count: total}
        bmap = _chain(base, [prof[key] for (_, prof), key
                             in zip(shared, keys)], instance.z)[-1]
        if bmap:
            table.orderings.append(gamma)
            table.bases.append(base)
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


def _reconstruct(td, tables, z, j):
    """Top-down from root ordering j at budget z: each bag splits its budget
    over its kids along its chain, and each kid takes the ordering its profile
    recorded for that budget under the bag ordering's restriction.  No search:
    a kid's ground meets earlier bags' grounds only inside its parent's."""
    gstar = []
    pick = {td.root: (z, j)}
    for t in td.topdown():
        k, j = pick.get(t, (0, -1))
        if k == 0:
            continue
        table = tables[t]
        gamma = table.orderings[j]
        gstar = _merge_ordering(gstar, gamma)
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
    return gstar


def _tw_solve(instance, td, force, solver_name):
    """The tree DP on a checked instance; solver_name labels the result."""
    net = instance.network
    if td is None:
        td = min_fill_decomposition(net)
    bad = validate_decomposition(net, td)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    z = instance.z

    tables = [None] * len(td.bags)
    for t in reversed(td.topdown()):
        tables[t] = _solve_bag(instance, td, t, tables, force)
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
    """Optimal full diffusion along a tree decomposition (z = node_count)."""
    check_instance(instance)
    if instance.z != instance.network.node_count:
        raise ValueError("full-diffusion solver requires z = node_count")
    return _tw_solve(instance, td, force, "tw-full")


def tw_partial_optimal(instance: DiffusionInstance,
                       td: TreeDecomposition | None = None, *,
                       force: bool = False) -> SolveResult:
    """Optimal partial diffusion (any z) along a tree decomposition."""
    check_instance(instance)
    return _tw_solve(instance, td, force, "tw-partial")
