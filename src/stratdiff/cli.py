"""Command line interface.

Subcommands: solve (run a solver on an instance file), generate (write
instance files for the built-in families), compare (heuristics vs the
hand-crafted order on G(k), as CSV), simulate (Monte Carlo check of a
sequence), decompose (report blocks and per-block subinstances).

Exit codes: 0 success, 1 bad input, 2 size guard refusal, 3 infeasible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time

from . import generators, heuristics, network, simulate, treewidth
from .decompose import (biconnected_components, component_instances,
                        solve_full_via_decomposition)
from .exact import brute_force_optimal, dp_optimal
from .network import NetworkFormatError, SequenceError, SizeGuardError


def _write_json(payload: dict, out):
    if out:
        network._write_json(payload, out)
    else:
        print(json.dumps(payload, indent=1))


def _load_instance_with_overrides(args) -> network.DiffusionInstance:
    inst = network.load_instance(args.instance)
    fields = {}
    if args.z is not None:
        fields["z"] = args.z
    if args.alpha is not None:
        fields["alpha"] = args.alpha
    if args.beta is not None:
        fields["beta"] = args.beta
    if fields:
        inst = dataclasses.replace(inst, **fields)
    network.check_instance(inst)
    return inst


def _gk_k_of(inst) -> int:
    n = inst.network.node_count
    k = (math.isqrt(4 * n + 1) - 1) // 2
    if k * k + k != n:
        raise ValueError("instance size does not match any G(k)")
    return k


# name -> fn(instance, td or None, force); --solver offers the keys
SOLVERS = {
    "brute": lambda inst, td, force: brute_force_optimal(inst, force=force),
    "dp": lambda inst, td, force: dp_optimal(inst, force=force),
    "greedy": lambda inst, td, force: heuristics.greedy_sequence(inst),
    "majority": lambda inst, td, force: heuristics.majority_sequence(inst),
    "strategy-a": lambda inst, td, force: heuristics.strategy_a_gk(
        _gk_k_of(inst), inst),
    "tw-full": lambda inst, td, force: treewidth.tw_full_optimal(
        inst, td, force=force),
    "tw-partial": lambda inst, td, force: treewidth.tw_partial_optimal(
        inst, td, force=force),
    "decompose": lambda inst, td, force: solve_full_via_decomposition(
        inst, lambda sub: dp_optimal(sub, force=force)),
}


def _run_solver(inst, args):
    if args.force:
        print("warning: size guards disabled", file=sys.stderr)
    td = treewidth.load_td(args.td) if args.td else None
    return SOLVERS[args.solver](inst, td, args.force)


def cmd_solve(args) -> int:
    inst = _load_instance_with_overrides(args)
    t0 = time.perf_counter()
    res = _run_solver(inst, args)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    payload = res.as_dict()
    payload["wall_ms"] = wall_ms
    _write_json(payload, args.out)
    return 0 if res.feasible else 3


def _parse_sets(text: str):
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        out.append([int(x) for x in part.replace(",", " ").split()])
    return out


def cmd_generate(args) -> int:
    meta = {"family": args.family}
    if args.family == "gk":
        inst = generators.make_gk(args.k)
        meta.update(k=args.k)
    elif args.family == "np-hard":
        sc = generators.SetCoverInstance(args.universe, _parse_sets(args.sets))
        inst, t_star = generators.make_np_hardness(sc, args.k,
                                                   binary_weights=args.binary)
        meta.update(universe=args.universe, sets=[sorted(s) for s in sc.sets],
                    k=args.k, t_star=t_star, binary_weights=args.binary)
    elif args.family == "inapprox":
        sc = generators.SetCoverInstance(args.universe, _parse_sets(args.sets))
        inst = generators.make_inapprox(sc, args.lam)
        meta.update(universe=args.universe, sets=[sorted(s) for s in sc.sets],
                    lam=args.lam, scale=generators.inapprox_scale(sc, args.lam))
    elif args.family == "random":
        net = generators.random_connected(args.n, args.edge_prob,
                                          (args.wmin, args.wmax),
                                          args.rng_seed)
        z = args.z if args.z is not None else args.n
        inst = network.DiffusionInstance(network=net, seed=0, z=z)
        meta.update(n=args.n, edge_prob=args.edge_prob,
                    wmin=args.wmin, wmax=args.wmax, rng_seed=args.rng_seed)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    meta.update(n=inst.network.node_count, z=inst.z)
    network.save_instance(inst, args.out)
    meta_path = args.out[:-5] + ".meta.json" if args.out.endswith(".json") \
        else args.out + ".meta.json"
    network._write_json(meta, meta_path)
    print(f"wrote {args.out} ({inst.network.node_count} nodes, z={inst.z})")
    return 0


def cmd_compare(args) -> int:
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        inst = generators.make_gk(k)
        a = heuristics.strategy_a_gk(k, inst)
        g = heuristics.greedy_sequence(inst)
        m = heuristics.majority_sequence(inst)
        h_k = sum(1.0 / i for i in range(1, k + 1))
        dp_total = ""
        if args.with_dp:
            dp_total = repr(dp_optimal(inst).total_time)
        rows.append({
            "k": k,
            "n": inst.network.node_count,
            "strategy_a": repr(a.total_time),
            "greedy": repr(g.total_time),
            "majority": repr(m.total_time),
            "dp": dp_total,
            "greedy_ratio": repr(g.total_time / a.total_time),
            "majority_ratio": repr(m.total_time / a.total_time),
            "h_k": repr(h_k),
        })
    fields = ["k", "n", "strategy_a", "greedy", "majority", "dp",
              "greedy_ratio", "majority_ratio", "h_k"]
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            fh.close()
    return 0


def cmd_simulate(args) -> int:
    inst = _load_instance_with_overrides(args)
    if args.sequence:
        seq = [int(x) for x in args.sequence.replace(",", " ").split()]
        solver_name = "given"
    else:
        res = _run_solver(inst, args)
        if not res.feasible:
            print("error: solver produced an infeasible sequence",
                  file=sys.stderr)
            return 3
        seq = list(res.sequence)
        solver_name = res.solver
    sim = simulate.simulate_sequence(inst, seq, args.trials, args.rng_seed)
    payload = sim.as_dict()
    payload.update(sequence=seq, solver=solver_name)
    _write_json(payload, args.out)
    return 0


def cmd_decompose(args) -> int:
    inst = _load_instance_with_overrides(args)
    blocks, cuts = biconnected_components(inst.network)
    payload = {
        "blocks": [sorted(b) for b in blocks],
        "cut_nodes": sorted(cuts),
    }
    if inst.z == inst.network.node_count:
        comps = component_instances(inst)
        payload["components"] = [{
            "nodes": list(c.to_global),
            "entry": c.entry,
            "seed_local": c.instance.seed,
            "external": list(c.instance.network.external_influence),
        } for c in comps]
    _write_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stratdiff",
        description="Optimal and heuristic activation sequences for "
                    "strategic network diffusion.")
    sub = p.add_subparsers(dest="command", required=True)
    # flags shared by the subcommands that read an instance file
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--z", type=int, help="override the activation target")
    model.add_argument("--alpha", type=float, help="override alpha")
    model.add_argument("--beta", type=float, help="override beta")
    model.add_argument("--out", help="write the result JSON here")
    solving = argparse.ArgumentParser(add_help=False, parents=[model])
    solving.add_argument("--td", help="tree decomposition file (tw-* solvers)")
    solving.add_argument("--force", action="store_true",
                         help="disable size guards (may exhaust memory)")

    ps = sub.add_parser("solve", parents=[solving],
                        help="run a solver on an instance file")
    ps.add_argument("instance")
    ps.add_argument("--solver", choices=SOLVERS, default="dp")
    ps.set_defaults(fn=cmd_solve)

    pg = sub.add_parser("generate", help="write an instance file")
    pg.add_argument("family", choices=("gk", "np-hard", "inapprox", "random"))
    pg.add_argument("--k", type=int, default=2,
                    help="gk: layer parameter; np-hard: cover size bound")
    pg.add_argument("--universe", type=int, default=2,
                    help="set cover universe size")
    pg.add_argument("--sets", default="0;1",
                    help="set family, e.g. '0,1;1' for {0,1},{1}")
    pg.add_argument("--lam", type=float, default=1.0,
                    help="inapprox hardness exponent")
    pg.add_argument("--binary", action="store_true",
                    help="np-hard: unit weights via relay nodes")
    pg.add_argument("--n", type=int, default=8, help="random: node count")
    pg.add_argument("--edge-prob", type=float, default=0.3)
    pg.add_argument("--wmin", type=float, default=0.5)
    pg.add_argument("--wmax", type=float, default=2.0)
    pg.add_argument("--rng-seed", type=int, default=0)
    pg.add_argument("--z", type=int, help="random: activation target")
    pg.add_argument("--out", required=True)
    pg.set_defaults(fn=cmd_generate)

    pc = sub.add_parser("compare",
                        help="heuristics vs the crafted order on G(k), CSV")
    pc.add_argument("--k-min", type=int, default=2)
    pc.add_argument("--k-max", type=int, default=6)
    pc.add_argument("--with-dp", action="store_true",
                    help="also run the exact DP (small k only)")
    pc.add_argument("--out", help="write CSV here instead of stdout")
    pc.set_defaults(fn=cmd_compare)

    pm = sub.add_parser("simulate", parents=[solving],
                        help="Monte Carlo check of a sequence")
    pm.add_argument("instance")
    pm.add_argument("--trials", type=int, default=10000)
    pm.add_argument("--rng-seed", type=int, default=0)
    pm.add_argument("--sequence", help="comma-separated node ids")
    pm.add_argument("--solver", choices=SOLVERS, default="dp",
                    help="solver to produce the sequence when none is given")
    pm.set_defaults(fn=cmd_simulate)

    pd = sub.add_parser("decompose", parents=[model],
                        help="blocks, cut nodes and per-block subinstances")
    pd.add_argument("instance")
    pd.set_defaults(fn=cmd_decompose)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NetworkFormatError, SequenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
