"""The benchmark's four seeded workloads: inputs, operations and answer checks.

build(name, seed, workdir) generates a workload's inputs from the seed,
writes them as instance files, reads them back (the program sees only these
files) and returns the operation list.  Each operation is one call into the
public API, or one `python -m stratdiff` process for cli_small, and carries
the check its answer must pass.

Why these four (see README.md for the layer map):
- tiny_exact: thousands of DP calls on 2-8 node graphs, where per-call
  overhead (validation, result construction) is most of the cost.
- dp_mid: 15-19 node DP solves, nearly all time in the subset DP loop.
- sparse_struct: 100-300 node sparse graphs through treewidth, block
  decomposition, heuristics and simulation; the DP only solves small blocks.
- cli_small: fresh CLI processes on small files, the only workload that pays
  interpreter start, package import, argparse and JSON I/O.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from stratdiff import (cli, decompose, exact, generators, heuristics, network,
                       simulate, treewidth)
from stratdiff.network import DiffusionInstance, InfluenceNetwork, SolveResult

TOL = 1e-9
SRC = Path(__file__).resolve().parent.parent / "src"
RECORDED = Path(__file__).resolve().parent / "dp_mid_seed0_totals.json"
DEFAULT_SEED = 0
SIM_SE = 5.0  # a simulated mean must lie within this many standard errors


@dataclass
class Op:
    """One operation: a call into the program and the check of its answer."""

    kind: str
    run: object                 # () -> answer
    check: object               # (answer, peers) -> error message or None
    inst: DiffusionInstance | None = None
    group: int = 0              # ops of one group may cross-check answers
    trials: int = 0
    argv: tuple = ()            # cli_small: the command line
    key: object = None          # answer -> short text; defaults to _key


@dataclass
class Workload:
    name: str
    ops: list
    core: int        # ops[:core] always run: digest, counts and traced run
    tail_pct: float  # fixed so a normal run keeps >= 10 samples beyond it
    rss_scope: str = "self"     # "children" when ops are subprocesses
    trace_ops: list | None = None  # ops[:core] as the traced run calls them


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _key(ans):
    if isinstance(ans, SolveResult):
        return f"{ans.total_time:.10g}"
    if isinstance(ans, treewidth.TreeDecomposition):
        return f"w{ans.width}b{len(ans.bags)}"
    if isinstance(ans, simulate.SimulationResult):
        return f"{ans.mean:.10g}"
    return repr(ans)


def answer_key(op, ans):
    return (op.key or _key)(ans)


def _replay(inst, res):
    """Every solver answer: feasible, z nodes, replay equals total_time."""
    if not isinstance(res, SolveResult):
        return f"expected a SolveResult, got {type(res).__name__}"
    if not res.feasible:
        return "solver reported infeasible on an activatable instance"
    if len(res.sequence) != inst.z:
        return f"sequence has {len(res.sequence)} nodes, want z={inst.z}"
    replay = network.sequence_time(inst, res.sequence)
    if not _close(replay.total_time, res.total_time):
        return f"replay {replay.total_time!r} != total {res.total_time!r}"
    return None


def _first(*msgs):
    return next((m for m in msgs if m), None)


def _peer_total(peers, kind):
    res = peers.get(kind)
    return res.total_time if isinstance(res, SolveResult) else None


# ---------------------------------------------------------------------------
# Input files.  Every workload writes its instances with save_instance and
# runs on what load_instance gives back.

def _write_read(inst, path):
    network.save_instance(inst, str(path))
    return network.load_instance(str(path))


def _tree(n, rng):
    """Random tree with degree at most 3 and per-direction weights."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if deg[u] < 3])
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)))
    return InfluenceNetwork(n, edges)


def _chain(blocks, lo, hi, rng):
    """Biconnected random blocks of lo..hi nodes joined at cut nodes."""
    pairs = set()
    n = 1
    cut = 0
    for _ in range(blocks):
        size = rng.randrange(lo, hi + 1)
        nodes = [cut] + list(range(n, n + size - 1))
        n += size - 1
        for i in range(size):  # a cycle makes the block biconnected
            a, b = nodes[i], nodes[(i + 1) % size]
            pairs.add((min(a, b), max(a, b)))
        for i in range(size):
            for j in range(i + 2, size):
                if rng.random() < 0.15:
                    pairs.add((min(nodes[i], nodes[j]), max(nodes[i], nodes[j])))
        cut = nodes[rng.randrange(1, size)]
    edges = [(u, v, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
             for u, v in sorted(pairs)]
    return InfluenceNetwork(n, edges)


# ---------------------------------------------------------------------------
# tiny_exact

def _dp(inst):
    return exact.dp_optimal(inst)


def _tiny_check(inst):
    def check(res, peers):
        oracle = exact.brute_force_optimal(inst)
        return _first(_replay(inst, res),
                      None if _close(oracle.total_time, res.total_time) else
                      f"dp {res.total_time!r} != brute force {oracle.total_time!r}")
    return check


def _build_tiny(seed, d, small):
    rng = random.Random(seed)
    ops = []
    for g in range(20 if small else 600):
        n = rng.randrange(2, 9)
        wr = (1.0, 1.0) if g % 2 == 0 else (0.5, 2.0)
        net = generators.random_connected(n, 0.4, wr, rng.randrange(2 ** 31))
        base = _write_read(DiffusionInstance(net, rng.randrange(n), n),
                           d / f"g{g}.json")
        for z in range(1, n + 1):
            inst = dataclasses.replace(base, z=z)
            ops.append(Op("dp", lambda i=inst: _dp(i), _tiny_check(inst),
                          inst=inst, group=g))
    return Workload("tiny_exact", ops, core=len(ops), tail_pct=99.9)


# ---------------------------------------------------------------------------
# dp_mid

# (n, z) per item, cycled: 4 x n=15, 8 x n=16, 6 x n=17 and one each of
# n=18 and n=19 with z=9, interleaved so every prefix has about the same
# mix.  With these shares the median falls well inside the n=16 class and
# the 75th percentile inside the n=17 class, not on a boundary between two.
DP_MID_PATTERN = tuple((n, n) if n < 19 else (19, 9) for n in (
    16, 17, 15, 16, 17, 16, 15, 17, 16, 18,
    16, 17, 15, 16, 17, 16, 15, 17, 16, 19))
DP_MID_ITEMS = 80


def _recorded_totals():
    with open(RECORDED) as fh:
        return json.load(fh)["totals"]


def _dp_mid_check(inst, want):
    def check(res, peers):
        msg = _replay(inst, res)
        if msg:
            return msg
        if want is not None and not _close(want, res.total_time):
            return f"total {res.total_time!r} != recorded {want!r}"
        for h in (heuristics.greedy_sequence, heuristics.majority_sequence):
            ht = h(inst).total_time
            if ht < res.total_time - TOL * max(1.0, ht):
                return f"{h.__name__} {ht!r} beats the optimum {res.total_time!r}"
        return None
    return check


def _dp_mid_instances(seed, d, small):
    rng = random.Random(seed)
    pattern = ((8, 8), (9, 9), (10, 5)) if small else DP_MID_PATTERN
    out = []
    for k in range(len(pattern) if small else DP_MID_ITEMS):
        n, z = pattern[k % len(pattern)]
        net = generators.random_connected(n, 0.3, rng_seed=rng.randrange(2 ** 31))
        out.append(_write_read(DiffusionInstance(net, 0, z), d / f"m{k}.json"))
    return out


def _build_dp_mid(seed, d, small):
    insts = _dp_mid_instances(seed, d, small)
    wants = [None] * len(insts)
    if seed == DEFAULT_SEED and not small:
        wants = _recorded_totals()
    ops = [Op("dp", lambda i=inst: _dp(i), _dp_mid_check(inst, want),
              inst=inst, group=k)
           for k, (inst, want) in enumerate(zip(insts, wants))]
    core = len(ops) if small else len(DP_MID_PATTERN)
    return Workload("dp_mid", ops, core=core, tail_pct=75.0)


def record_dp_mid_totals(workdir):
    """Solve every default-seed dp_mid item and write the recorded totals."""
    insts = _dp_mid_instances(DEFAULT_SEED, Path(workdir), False)
    totals = [exact.dp_optimal(inst).total_time for inst in insts]
    with open(RECORDED, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "totals": totals}, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sparse_struct

def _td_check(net, width=None):
    def check(td, peers):
        if not isinstance(td, treewidth.TreeDecomposition):
            return f"expected a TreeDecomposition, got {type(td).__name__}"
        bad = treewidth.validate_decomposition(net, td)
        if bad:
            return "invalid decomposition: " + bad[0]
        if width is not None and td.width != width:
            return f"width {td.width} on a tree"
        return None
    return check


def _solve_check(inst, equal=(), lower=()):
    """Replay; then the total equals each peer answer in `equal` and does
    not beat the optimum in `lower` (no heuristic beats an optimum)."""
    def check(res, peers):
        msg = _replay(inst, res)
        if msg:
            return msg
        for kind in equal:
            other = _peer_total(peers, kind)
            if other is not None and not _close(res.total_time, other):
                return f"total {res.total_time!r} != {kind} {other!r}"
        for kind in lower:
            other = _peer_total(peers, kind)
            if other is not None and res.total_time < other \
                    and not _close(res.total_time, other):
                return f"total {res.total_time!r} beats optimal {kind} {other!r}"
        return None
    return check


def _partial_check(inst):
    """tw_partial: replay, and no worse than the greedy order's z-prefix."""
    def check(res, peers):
        msg = _replay(inst, res)
        if msg:
            return msg
        greedy = peers.get("greedy")
        if isinstance(greedy, SolveResult):
            bound = network.sequence_time(inst, greedy.sequence[:inst.z]).total_time
            if res.total_time > bound and not _close(res.total_time, bound):
                return (f"partial optimum {res.total_time!r} above the greedy "
                        f"prefix {bound!r}")
        return None
    return check


def _sim_check(trials):
    def check(sim, peers):
        if not isinstance(sim, simulate.SimulationResult):
            return f"expected a SimulationResult, got {type(sim).__name__}"
        greedy = _peer_total(peers, "greedy")
        if greedy is not None and not _close(sim.analytic_time, greedy):
            return f"analytic {sim.analytic_time!r} != greedy total {greedy!r}"
        if sim.trials != trials:
            return f"{sim.trials} trials, asked for {trials}"
        if abs(sim.mean - sim.analytic_time) > SIM_SE * sim.std_error:
            return (f"mean {sim.mean!r} more than {SIM_SE} standard errors "
                    f"from {sim.analytic_time!r}")
        return None
    return check


def _simulate_greedy(inst, ctx, trials, rng_seed):
    return simulate.simulate_sequence(inst, ctx["greedy"].sequence, trials,
                                      rng_seed)


def _greedy_into(inst, ctx):
    ctx["greedy"] = res = heuristics.greedy_sequence(inst)
    return res


def _group_ops(kind, inst, g, rng, trials):
    """The ops of one sparse_struct graph, in run order."""
    net = inst.network
    ctx = {}
    seed_sim = rng.randrange(2 ** 31)
    ops = [Op("min_fill", lambda: treewidth.min_fill_decomposition(net),
              _td_check(net, 1 if kind == "tree" else None), inst=inst)]
    if kind == "tree":
        part = dataclasses.replace(inst, z=4)
        ops += [
            Op("tw_full", lambda: treewidth.tw_full_optimal(inst),
               _solve_check(inst), inst=inst),
            Op("tw_partial", lambda: treewidth.tw_partial_optimal(part),
               _partial_check(part), inst=part),
            Op("decompose", lambda: decompose.solve_full_via_decomposition(
                inst, exact.dp_optimal),
               _solve_check(inst, equal=("tw_full",)),
               inst=inst),
        ]
        optimum = ("tw_full",)
    elif kind == "chain":
        ops.append(Op("decompose", lambda: decompose.solve_full_via_decomposition(
            inst, exact.dp_optimal), _solve_check(inst), inst=inst))
        optimum = ("decompose",)
    else:
        optimum = ()
    ops.append(Op("greedy", lambda: _greedy_into(inst, ctx),
                  _solve_check(inst, lower=optimum), inst=inst))
    if kind != "chain":
        ops.append(Op("majority", lambda: heuristics.majority_sequence(inst),
                      _solve_check(inst, lower=optimum), inst=inst))
    ops.append(Op("simulate", lambda: _simulate_greedy(inst, ctx, trials, seed_sim),
                  _sim_check(trials), inst=inst, trials=trials))
    for op in ops:
        op.group = g
    return ops


def _build_sparse(seed, d, small):
    rng = random.Random(seed)
    n = 40 if small else 300
    trials = 1000 if small else 10000
    ops = []
    # Two trees per chain and sparse graph: the tw_partial solves on trees
    # are the slowest operations, so they set the tail percentile, and more
    # of them per run make it steadier.
    kinds = ("tree", "chain", "sparse") if small else ("tree", "chain", "tree",
                                                       "sparse")
    for g in range(3 if small else 48):
        kind = kinds[g % len(kinds)]
        if kind == "tree":
            net = _tree(n, rng)
        elif kind == "chain":
            net = _chain(2, 6, 8, rng) if small else _chain(10, 10, 16, rng)
        else:
            net = generators.random_connected(
                n, 1.0 / n, rng_seed=rng.randrange(2 ** 31))
        inst = _write_read(
            DiffusionInstance(net, rng.randrange(net.node_count), net.node_count),
            d / f"s{g}.json")
        ops += _group_ops(kind, inst, g, rng, trials)
    core = sum(1 for op in ops if op.group < 8)
    return Workload("sparse_struct", ops, core=core, tail_pct=95.0)


# ---------------------------------------------------------------------------
# cli_small

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(argv, env):
    """One `python -m stratdiff` process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "stratdiff", *argv],
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv):
    """cli.main(argv) in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _json_out(ans):
    rc, out = ans
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(out)


def _cli_solve_check(inst, solver):
    def check(ans, peers):
        try:
            got = _json_out(ans)
        except ValueError as exc:
            return f"solve --solver {solver}: {exc}"
        if got["solver"] != solver or got["infeasible"]:
            return f"solver {got['solver']!r}, infeasible={got['infeasible']}"
        res = SolveResult(tuple(got["sequence"]), got["total_time"],
                          tuple(got["step_times"]), solver)
        want = (heuristics.greedy_sequence(inst) if solver == "greedy"
                else exact.dp_optimal(inst)).total_time
        return _first(_replay(inst, res),
                      None if _close(want, res.total_time) else
                      f"total {res.total_time!r} != in-process {want!r}")
    return check


def _cli_simulate_check(inst, trials):
    def check(ans, peers):
        try:
            got = _json_out(ans)
        except ValueError as exc:
            return f"simulate: {exc}"
        want = exact.dp_optimal(inst).total_time
        if got["trials"] != trials:
            return f"{got['trials']} trials, asked for {trials}"
        if not _close(got["analytic_time"], want):
            return f"analytic {got['analytic_time']!r} != dp {want!r}"
        if abs(got["mean"] - got["analytic_time"]) > SIM_SE * got["std_error"]:
            return f"mean {got['mean']!r} more than {SIM_SE} standard errors off"
        return None
    return check


def _cli_generate_check(path, n, rng_seed):
    def check(ans, peers):
        if ans[0] != 0:
            return f"generate: exit code {ans[0]}"
        want = DiffusionInstance(generators.random_connected(n, 0.3, (0.5, 2.0),
                                                             rng_seed), 0, n)
        if network.load_instance(path) != want:
            return "generated file differs from random_connected"
        return None
    return check


def _cli_compare_check(k_min, k_max):
    def check(ans, peers):
        rc, out = ans
        if rc != 0:
            return f"compare: exit code {rc}"
        rows = list(csv.DictReader(io.StringIO(out)))
        if [int(r["k"]) for r in rows] != list(range(k_min, k_max + 1)):
            return "compare printed the wrong rows"
        for r in rows:
            k = int(r["k"])
            if float(r["strategy_a"]) != 3 * k * k - 2 * k:
                return f"strategy_a {r['strategy_a']} != 3k^2-2k at k={k}"
            if int(r["n"]) != k * k + k:
                return f"n {r['n']} != k^2+k at k={k}"
        return None
    return check


def _cli_decompose_check(inst):
    def check(ans, peers):
        try:
            got = _json_out(ans)
        except ValueError as exc:
            return f"decompose: {exc}"
        want = decompose.component_instances(inst)
        nodes = set().union(*got["blocks"])
        if nodes != set(range(inst.network.node_count)):
            return "blocks do not cover every node"
        if len(got.get("components", ())) != len(want):
            return f"{len(got.get('components', ()))} components, want {len(want)}"
        return None
    return check


def _cli_key(ans):
    """The answer part of a CLI reply: wall_ms and file paths vary by run."""
    rc, out = ans
    try:
        got = json.loads(out)
    except ValueError:  # compare's CSV, or generate's "wrote <path> (...)"
        return f"{rc}:{out.split(' (')[-1]}"
    for name in ("total_time", "mean"):
        if name in got:
            return f"{rc}:{got[name]:.10g}"
    return f"{rc}:{json.dumps(got, sort_keys=True)}"


def _cli_ops(rng, d, c, small):
    a = _write_read(DiffusionInstance(generators.random_connected(
        10, 0.3, rng_seed=rng.randrange(2 ** 31)), 0, 10), d / f"a{c}.json")
    tree = _tree(14, rng)
    t = _write_read(DiffusionInstance(tree, rng.randrange(14), 14),
                    d / f"t{c}.json")
    chain = _chain(3, 4, 5, rng)
    b = _write_read(DiffusionInstance(chain, 0, chain.node_count),
                    d / f"b{c}.json")
    fa, ft, fb = (str(d / f"{x}{c}.json") for x in "atb")
    gen_seed = rng.randrange(2 ** 31)
    sim_seed = rng.randrange(2 ** 31)
    trials = 10 ** 4 if small else 10 ** 5
    gen_out = str(d / f"gen{c}.json")
    spec = [
        ("generate", ("generate", "random", "--n", "10", "--rng-seed",
                      str(gen_seed), "--out", gen_out),
         None, _cli_generate_check(gen_out, 10, gen_seed), 0),
        ("solve", ("solve", fa, "--solver", "dp"), a,
         _cli_solve_check(a, "dp"), 0),
        ("solve", ("solve", fa, "--solver", "greedy"), a,
         _cli_solve_check(a, "greedy"), 0),
        ("solve", ("solve", ft, "--solver", "tw-full"), t,
         _cli_solve_check(t, "tw-full"), 0),
        ("solve", ("solve", fb, "--solver", "decompose"), b,
         _cli_solve_check(b, "decompose"), 0),
        ("simulate", ("simulate", fa, "--trials", str(trials), "--rng-seed",
                      str(sim_seed)), a, _cli_simulate_check(a, trials), trials),
        ("compare", ("compare", "--k-min", "2", "--k-max", "6"), None,
         _cli_compare_check(2, 6), 0),
        ("decompose", ("decompose", fb), b, _cli_decompose_check(b), 0),
    ]
    return [Op(f"cli:{kind}", None, check, inst=inst, group=c, trials=trials,
               argv=argv, key=_cli_key)
            for kind, argv, inst, check, trials in spec]


def _build_cli(seed, d, small):
    rng = random.Random(seed)
    env = cli_env()
    ops = []
    for c in range(1 if small else 20):
        ops += _cli_ops(rng, d, c, small)
    for op in ops:
        op.run = lambda argv=op.argv: run_cli_process(argv, env)
    core = len(ops) if small else 16
    # The traced run calls cli.main in process, where shims can see it.
    in_process = [dataclasses.replace(op, run=lambda a=op.argv: run_cli_inprocess(a))
                  for op in ops[:core]]
    return Workload("cli_small", ops, core=core, tail_pct=90.0,
                    rss_scope="children", trace_ops=in_process)


BUILDERS = {
    "tiny_exact": _build_tiny,
    "dp_mid": _build_dp_mid,
    "sparse_struct": _build_sparse,
    "cli_small": _build_cli,
}


def build(name, seed, workdir, small=False):
    """Generate, write and read back one workload's inputs."""
    return BUILDERS[name](seed, Path(workdir), small)


# ---------------------------------------------------------------------------
# Exact counts, computed from outside the program's solvers.

def counts(ops):
    """Work counts over one pass of ops; identical on every run of a seed."""
    out = {"bench.instances": 0, "bench.sum_n": 0, "bench.sum_z": 0,
           "treewidth.width_max": 0, "treewidth.ground_max": 0,
           "treewidth.ground_factorial_sum": 0,
           "decompose.blocks": 0, "decompose.block_nodes_max": 0,
           "simulate.trials": 0}
    for op in ops:
        if op.inst is None:
            continue
        inst = op.inst
        net = inst.network
        out["bench.instances"] += 1
        out["bench.sum_n"] += net.node_count
        out["bench.sum_z"] += inst.z
        if op.kind in ("tw_full", "tw_partial") or "tw-full" in op.argv:
            td = treewidth.min_fill_decomposition(net)
            grounds = [len(treewidth.bag_ground(net, bag)) for bag in td.bags]
            out["treewidth.width_max"] = max(out["treewidth.width_max"], td.width)
            out["treewidth.ground_max"] = max(out["treewidth.ground_max"],
                                              max(grounds))
            out["treewidth.ground_factorial_sum"] += sum(
                math.factorial(g) for g in grounds)
        if op.kind in ("decompose", "cli:decompose") or "decompose" in op.argv:
            comps = decompose.component_instances(inst)
            out["decompose.blocks"] += len(comps)
            out["decompose.block_nodes_max"] = max(
                out["decompose.block_nodes_max"],
                max(len(c.to_global) for c in comps))
        out["simulate.trials"] += op.trials
    return out


if __name__ == "__main__":
    # Rewrite dp_mid_seed0_totals.json: python3 benchmarks/workloads.py <dir>
    record_dp_mid_totals(sys.argv[1])
