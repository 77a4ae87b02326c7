"""Core data model for strategic diffusion on weighted networks.

A network is an undirected topology where each edge {u, v} carries two
independent influence weights, one per direction.  A node may
additionally receive a fixed external influence offset that counts toward
its total incoming influence but never activates it.  The constructor
refuses a weight or offset that is negative or not finite.

Activation model: a node i with at least one active neighbor becomes active
in one time step with probability

    p(i) = beta * (sum of active incoming weights / total incoming weight) ** alpha

and the expected number of steps until activation is 1 / p(i).  A zero
probability means the node can never activate from the current set and the
expected time is infinite.  The convention 0**alpha = 0 applies for every
alpha including 0.  The step-time kernel's array form is in exact, by its
one caller, so this module imports no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import index

INF = math.inf
# dp_optimal refuses a DP layer, and InfluenceNetwork a network, whose
# estimated bytes pass this; a node costs _NODE_BYTES (tracemalloc peak of
# building an edgeless network)
DP_MEMORY_BUDGET = 1 << 30
_NODE_BYTES = 112


class NetworkFormatError(ValueError):
    """Raised when a network or instance file cannot be parsed."""


class SequenceError(ValueError):
    """Raised when an activation sequence is malformed for its instance."""


class ZeroInfluenceError(ValueError):
    """Raised when a probability is requested for a node with zero total influence."""


class SizeGuardError(RuntimeError):
    """Raised when a solver refuses an instance above its size guard."""


def _integer(x, what: str) -> int:
    """x through operator.index (Python and numpy ints pass, 2.7 does not)."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


def mask_of(nodes) -> int:
    """Encode an iterable of node ids as a bitmask."""
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def _problems(records, ext):
    """InfluenceNetwork's refusal: each negative or non-finite value, edges in
    (u, v) order, then external influence by node."""
    def kind(x):
        return "non-finite" if not math.isfinite(x) else "negative" if x < 0 else ""
    return ([f"{kind(w)} weight {w} on edge ({u}, {v}) direction {a}->{b}"
             for u, v, wuv, wvu in records
             for w, a, b in ((wuv, u, v), (wvu, v, u)) if kind(w)]
            + [f"{kind(x)} external influence {x} at node {i}"
               for i, x in enumerate(ext) if kind(x)])


class InfluenceNetwork:
    """Immutable weighted network.

    edges is an iterable of (u, v, w_uv, w_vu) records; w_uv is the influence
    u exerts on v.  Records are normalized so u < v and sorted.  The
    constructor rejects structural breakage (self-loops, duplicate pairs,
    out-of-range ids), a node count whose per-node storage would pass
    DP_MEMORY_BUDGET, and any weight or external influence that is negative
    or not finite, so every network in hand has finite, nonnegative values
    and nothing checks them again.  The one adjacency is the incoming
    lists, so storage is linear in nodes plus edges.
    """

    __slots__ = ("node_count", "edges", "external_influence", "total_influence",
                 "_incoming")

    def __init__(self, node_count: int, edges=(), external_influence=None):
        if (node_count := _integer(node_count, "node_count")) < 1:
            raise ValueError("node_count must be positive")
        records = []
        for u, v, wuv, wvu in edges:
            try:
                u, v = index(u), index(v)
            except TypeError:
                bad = v if hasattr(u, "__index__") else u
                raise ValueError(f"node id {bad!r} is not an integer") from None
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u > v:
                u, v, wuv, wvu = v, u, wvu, wuv
            records.append((u, v, float(wuv), float(wvu)))
        records.sort()  # by (u, v): pairs are distinct unless duplicated
        need = node_count * _NODE_BYTES
        if need > DP_MEMORY_BUDGET:
            raise ValueError(
                f"node_count {node_count:,} needs about {need / 2**20:,.0f} MiB "
                f"of per-node storage, over the {DP_MEMORY_BUDGET / 2**20:,.0f} "
                "MiB budget")
        if external_influence is None:
            ext = (0.0,) * node_count
        else:
            ext = tuple(float(x) for x in external_influence)
            if len(ext) != node_count:
                raise ValueError("external_influence length must equal node_count")

        # in (u, v) order each node meets its lower neighbours, then its
        # higher ones, ascending, so the lists and sums need no second pass
        incoming = [[] for _ in range(node_count)]
        total = list(ext)
        pu = pv = -1
        clean = external_influence is None or all(0.0 <= x < INF for x in ext)
        for u, v, wuv, wvu in records:
            if u == pu and v == pv:
                raise ValueError(f"duplicate edge ({u}, {v})")
            pu, pv = u, v
            if not 0.0 <= wuv < INF > wvu >= 0.0:  # both in [0, inf); not nan
                clean = False
            incoming[v].append((u, wuv))
            incoming[u].append((v, wvu))
            total[v] += wuv
            total[u] += wvu
        if not clean:
            raise ValueError("invalid network: " + "; ".join(_problems(records, ext)))

        self.node_count = node_count
        self.edges = tuple(records)
        self.external_influence = ext
        self.total_influence = tuple(total)
        self._incoming = tuple(tuple(lst) for lst in incoming)

    def incoming(self, i: int):
        """Pairs (j, w_ji) for neighbors j of i, ascending by j."""
        return self._incoming[i]

    def neighbors(self, i: int):
        return tuple(j for j, _ in self._incoming[i])

    def __eq__(self, other):
        if not isinstance(other, InfluenceNetwork):
            return NotImplemented
        return (self.node_count == other.node_count
                and self.edges == other.edges
                and self.external_influence == other.external_influence)

    def __hash__(self):
        return hash((self.node_count, self.edges, self.external_influence))

    def __repr__(self):
        return (f"InfluenceNetwork(node_count={self.node_count}, "
                f"edges={len(self.edges)})")


@dataclass(frozen=True)
class DiffusionInstance:
    """A network plus a seed node and an activation target.

    z counts the seed itself, so z=1 asks for nothing beyond the seed and
    z=node_count asks for full diffusion.  alpha and beta are the exponent
    and scale of the activation probability.  Construction, including
    dataclasses.replace and load_instance, runs check_instance, so every
    instance in hand is valid and no solver checks again.
    """

    network: InfluenceNetwork
    seed: int
    z: int
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for f in ("seed", "z"):  # stored as plain ints; 2.5 is refused
            object.__setattr__(self, f, _integer(getattr(self, f), f"invalid instance: {f}"))
        check_instance(self)


@dataclass(frozen=True)
class SolveResult:
    """An activation sequence with its per-step expected times.

    sequence starts at the seed; step_times aligns with it (seed step is 0).
    total_time is the running sum of step_times.  Infeasibility has two
    shapes, on purpose: a solver that finds no feasible sequence returns
    sequence=(seed,), step_times=(0.0,), total_time=inf, while
    sequence_time scores the whole sequence it was given, an unactivatable
    step as inf, and reports total_time=inf.
    """

    sequence: tuple
    total_time: float
    step_times: tuple
    solver: str = ""

    def __post_init__(self):
        if len(self.sequence) != len(self.step_times):
            raise ValueError("sequence and step_times lengths differ")
        if not self.sequence:
            raise ValueError("sequence must at least contain the seed")
        if self.total_time < INF:
            t = 0.0
            for s in self.step_times:
                t += s
            if t != self.total_time:
                raise ValueError("total_time does not equal the sum of step_times")

    @property
    def feasible(self) -> bool:
        return self.total_time < INF

    def as_dict(self) -> dict:
        return {
            "solver": self.solver,
            "sequence": list(self.sequence),
            "step_times": list(self.step_times),
            "total_time": self.total_time,
            "infeasible": not self.feasible,
        }


def infeasible_result(seed: int, solver: str = "") -> SolveResult:
    return SolveResult(sequence=(seed,), total_time=INF, step_times=(0.0,),
                       solver=solver)


def _step_time_masked(net: InfluenceNetwork, active_mask: int, i: int,
                      alpha: float, beta: float) -> float:
    """Expected steps to activate i given the active bitmask; inf when p=0.

    Unactivatable nodes (zero active influence, or zero total influence)
    map to inf, matching the division-by-zero convention of the model.
    The constructor guarantees finite, nonnegative weights: s then sums a
    subset of w's terms in w's order, and rounding is monotone, so s <= w.
    """
    w = net.total_influence[i]
    if w <= 0.0:
        return INF
    s = 0.0
    for j, wji in net._incoming[i]:
        if (active_mask >> j) & 1:
            s += wji
    if s <= 0.0:
        return INF
    ratio = w / s
    if alpha != 1.0:
        ratio = ratio ** alpha
    if beta != 1.0:
        ratio = ratio / beta
    return ratio


def activation_probability(net: InfluenceNetwork, active, i: int,
                           alpha: float = 1.0, beta: float = 1.0) -> float:
    """Probability that i activates in one step given the active set."""
    return 1.0 / expected_step_time(net, active, i, alpha, beta)


def expected_step_time(net: InfluenceNetwork, active, i: int,
                       alpha: float = 1.0, beta: float = 1.0) -> float:
    """Expected steps until i activates: 1/p, or inf when p = 0.

    Raises ValueError on beta outside (0, 1], a negative or non-finite alpha
    (above 1 is allowed), or an id not in 0..n-1.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta {beta} outside (0, 1]")
    if not 0.0 <= alpha < INF:
        raise ValueError(f"alpha {alpha} is negative or not finite")
    ids = (i, *active)
    for v in ids:
        if not (hasattr(v, "__index__") and 0 <= v < net.node_count):
            raise ValueError(f"node id {v!r} is not an integer in 0..{net.node_count - 1}")
    i, mask = index(i), mask_of(map(index, ids[1:]))
    if (mask >> i) & 1:
        raise ValueError(f"node {i} is already active")
    w = net.total_influence[i]
    if w <= 0.0:
        raise ZeroInfluenceError(f"node {i} has zero total influence")
    return _step_time_masked(net, mask, i, alpha, beta)


def _checked_sequence(sequence, seed: int, n: int) -> tuple:
    """The sequence's ids through operator.index (Python and numpy ints pass,
    1.7 does not); SequenceError unless it starts at seed, repeats no node
    and stays in 0..n-1."""
    seq = tuple(sequence)
    try:
        seq = tuple(map(index, seq))
    except TypeError:
        bad = next(v for v in seq if not hasattr(v, "__index__"))
        raise SequenceError(f"node id {bad!r} is not an integer") from None
    if not seq:
        raise SequenceError("sequence is empty")
    if seq[0] != seed:
        raise SequenceError(f"sequence must start at seed {seed}")
    if len(set(seq)) != len(seq):
        raise SequenceError("sequence repeats a node")
    for v in seq:
        if not (0 <= v < n):
            raise SequenceError(f"node {v} out of range")
    return seq


def sequence_time(instance: DiffusionInstance, sequence,
                  solver: str = "sequence") -> SolveResult:
    """Evaluate a fixed activation sequence under the instance's model.

    The active set grows prefix by prefix; an unactivatable step costs inf,
    making the total infinite, but later steps are still evaluated against
    the grown set, so an infeasible result keeps the whole sequence (unlike
    a solver's, which is (seed,) with total inf).  The instance was checked
    when it was built.
    """
    net = instance.network
    seq = _checked_sequence(sequence, instance.seed, net.node_count)
    mask = 1 << seq[0]
    steps = [0.0]
    total = 0.0
    for v in seq[1:]:
        st = _step_time_masked(net, mask, v, instance.alpha, instance.beta)
        steps.append(st)
        total += st
        mask |= 1 << v
    return SolveResult(sequence=seq, total_time=total, step_times=tuple(steps),
                       solver=solver)


def _induced(instance: DiffusionInstance, nodes, seed: int, z: int):
    """The sub-instance on the sorted ids nodes and its local -> global map, in
    the nodes' degrees; outside weights fold into external influence, ascending."""
    net = instance.network
    local = {g: i for i, g in enumerate(nodes)}
    edges, ext, later = [], [], {}  # later[u, v], u < v: w_vu, met at u
    for g in nodes:
        d = net.external_influence[g]
        for j, wjg in net._incoming[g]:
            if j not in local:
                d += wjg
            elif j > g:
                later[g, j] = wjg
            else:
                edges.append((local[j], local[g], wjg, later.pop((j, g))))
        ext.append(d)
    sub = InfluenceNetwork(len(nodes), edges, ext)
    return (DiffusionInstance(sub, local[seed], z, instance.alpha, instance.beta),
            tuple(nodes))


def _ball(instance: DiffusionInstance):
    """Sorted ids within z - 1 hops of the seed: all a z-sequence reaches."""
    inc = instance.network._incoming
    seen, frontier = {instance.seed}, [instance.seed]
    for _ in range(instance.z - 1):
        frontier = {j for v in frontier for j, _ in inc[v]} - seen
        seen |= frontier
    return sorted(seen)


def validate_instance(instance: DiffusionInstance):
    """Invariant violations for an instance: its seed, z, alpha and beta."""
    net = instance.network
    out = []
    if not (0 <= instance.seed < net.node_count):
        out.append(f"seed {instance.seed} out of range")
    if not (1 <= instance.z <= net.node_count):
        out.append(f"target z={instance.z} outside 1..{net.node_count}")
    if not (0.0 <= instance.alpha <= 1.0):
        out.append(f"alpha {instance.alpha} outside [0, 1]")
    if not (0.0 < instance.beta <= 1.0):
        out.append(f"beta {instance.beta} outside (0, 1]")
    return out


def check_instance(instance: DiffusionInstance):
    """Raise ValueError naming every violation of validate_instance."""
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# File formats.
#
# JSON network:  {"n": int, "external": [float,...] (optional),
#                 "edges": [{"u": int, "v": int, "wuv": float, "wvu": float}, ...]}
# JSON instance: the same plus {"seed": int, "z": int, "alpha": float, "beta": float}
# Text network:  first line "n m", then m lines "u v wuv wvu".
# The text form cannot carry external influence.


def _net_to_dict(net: InfluenceNetwork) -> dict:
    d = {
        "n": net.node_count,
        "edges": [{"u": u, "v": v, "wuv": wuv, "wvu": wvu}
                  for u, v, wuv, wvu in net.edges],
    }
    if any(x != 0.0 for x in net.external_influence):
        d["external"] = list(net.external_influence)
    return d


def _json_number(value, where: str, what: str, integral: bool = False):
    """value as a float, or an int when integral; a non-number, or a fraction
    in an integer field, raises NetworkFormatError naming where and what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise NetworkFormatError(f"{where}: {what} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _net_from_dict(d: dict, where: str) -> InfluenceNetwork:
    try:
        n = _json_number(d["n"], where, "n", integral=True)
        ext = d.get("external")
        if ext is not None:
            ext = [_json_number(x, where, f"external[{i}]") for i, x in enumerate(ext)]
        edges = [(e["u"], e["v"], e["wuv"], e["wvu"]) for e in d.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise NetworkFormatError(f"{where}: missing or malformed field ({exc})") from exc
    for i, rec in enumerate(edges):  # int ids and float weights need no second look
        if tuple(map(type, rec)) != (int, int, float, float):
            edges[i] = tuple(_json_number(x, where, f"edges[{i}].{f}", f in ("u", "v"))
                             for f, x in zip(("u", "v", "wuv", "wvu"), rec))
    try:
        return InfluenceNetwork(n, edges, ext)
    except ValueError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from exc


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"{path}: invalid JSON ({exc})") from exc


def _write_json(obj, path: str):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load(path: str) -> InfluenceNetwork:
    """Load a network from .json or text (.txt and anything else)."""
    if path.endswith(".json"):
        return _net_from_dict(_read_json(path), path)
    return _load_text(path)


def _load_text(path: str) -> InfluenceNetwork:
    with open(path) as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1)]
    lines = [(k, ln) for k, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise NetworkFormatError(f"{path}: empty network file")
    k0, head = lines[0]
    try:
        n, m = map(int, head.split())  # a wrong field count is a ValueError too
    except ValueError as exc:
        raise NetworkFormatError(f"{path}:{k0}: header must be 'n m'") from exc
    if len(lines) - 1 != m:
        raise NetworkFormatError(
            f"{path}: header announces {m} edges, file has {len(lines) - 1}")
    edges = []
    for k, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise NetworkFormatError(f"{path}:{k}: edge line must be 'u v wuv wvu'")
        try:
            edges.append((int(parts[0]), int(parts[1]),
                          float(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise NetworkFormatError(f"{path}:{k}: {exc}") from exc
    try:
        return InfluenceNetwork(n, edges)
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from exc


def save(net: InfluenceNetwork, path: str):
    """Write a network to .json or text, matching load()."""
    if path.endswith(".json"):
        _write_json(_net_to_dict(net), path)
        return
    if any(x != 0.0 for x in net.external_influence):
        raise NetworkFormatError(
            "text format cannot represent external influence; use JSON")
    with open(path, "w") as fh:
        fh.write(f"{net.node_count} {len(net.edges)}\n")
        for u, v, wuv, wvu in net.edges:
            fh.write(f"{u} {v} {wuv!r} {wvu!r}\n")


def load_instance(path: str) -> DiffusionInstance:
    if not path.endswith(".json"):
        raise NetworkFormatError("instance files are JSON")
    d = _read_json(path)
    net = _net_from_dict(d, path)
    seed = _json_number(d.get("seed"), path, "seed", integral=True)
    z = _json_number(d.get("z"), path, "z", integral=True)
    alpha = _json_number(d.get("alpha", 1.0), path, "alpha")
    beta = _json_number(d.get("beta", 1.0), path, "beta")
    return DiffusionInstance(network=net, seed=seed, z=z, alpha=alpha, beta=beta)


def save_instance(instance: DiffusionInstance, path: str):
    if not path.endswith(".json"):
        raise NetworkFormatError("instance files are JSON")
    d = _net_to_dict(instance.network)
    d.update({"seed": instance.seed, "z": instance.z,
              "alpha": instance.alpha, "beta": instance.beta})
    _write_json(d, path)
