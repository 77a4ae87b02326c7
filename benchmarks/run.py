"""Seeded end-to-end benchmark of the stratdiff package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed 0      # every workload

Run from the repository root (any checkout: the package is imported from
the checkout's own src/).  One caller runs the workload's seeded operation
list in a closed loop, one operation at a time, for --seconds.  Every answer
is checked after the timed loop; a failed check counts as a failed
operation.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The
line before it, starting "report ", holds everything else: error_rate, the
tail percentile and its sample count, the answer digest and exact counts.
See README.md.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("tiny_exact", "dp_mid", "sparse_struct", "cli_small")
SETUP_REPS = 5
MAX_TRACED_OPS = 30000  # bounds the spans kept in memory in a traced run
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))


def _import_program():
    """Put this checkout's src/ first on the path; fail without it."""
    if not (SRC / "stratdiff" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'stratdiff'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    global workloads, spans
    import spans
    import workloads


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _pct(sorted_vals, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def _peak_rss_mib(scope):
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Loop:
    """Outcome of running operations in a closed loop."""

    def __init__(self, ops):
        self.ops = ops
        self.lat = array.array("d")  # 8 bytes a sample, so the harness's
        # own memory barely grows with the number of operations run
        self.first = {}        # item index -> answer or exception, first run
        self.keys = {}
        self.repeat_bad = 0    # later runs whose answer differs from the first

    def run(self, seconds, min_ops, tracer=None):
        ops, n = self.ops, len(self.ops)
        perf = time.perf_counter
        lat = self.lat
        i = len(lat)
        deadline = perf() + seconds
        while True:
            j = i % n
            op = ops[j]
            t0 = perf()
            try:
                if tracer is None:
                    ans = op.run()
                else:
                    tracer.tag = (spans.OP, i)
                    ans = tracer.call(spans.OP, op.run)
                ok = True
            except Exception as exc:  # an exception is a failed operation
                ans, ok = exc, False
            t1 = perf()
            lat.append(t1 - t0)
            if j not in self.first:
                self.first[j] = ans
                if ok:
                    self.keys[j] = workloads.answer_key(op, ans)
            elif not ok or self.keys.get(j) != workloads.answer_key(op, ans):
                self.repeat_bad += 1
            i += 1
            if i >= min_ops and t1 >= deadline:
                return

    @property
    def attempted(self):
        return len(self.lat)

    def verify(self, tracer=None):
        """Check each distinct answer; returns (failed runs, messages)."""
        ops, n = self.ops, len(self.ops)
        done = self.attempted
        peers = {}
        for j, ans in self.first.items():
            if not isinstance(ans, Exception):
                peers.setdefault(ops[j].group, {})[ops[j].kind] = ans
        failed = self.repeat_bad
        msgs = []
        for j in sorted(self.first):
            ans = self.first[j]
            op = ops[j]
            if isinstance(ans, Exception):
                msg = f"{type(ans).__name__}: {ans}"
            else:
                group_peers = peers.get(op.group, {})
                try:
                    if tracer is None:
                        msg = op.check(ans, group_peers)
                    else:
                        tracer.tag = (spans.CHECK, j)
                        msg = tracer.call(spans.CHECK, op.check, ans, group_peers)
                except Exception as exc:
                    msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                runs = done // n + (1 if j < done % n else 0)
                failed += runs
                msgs.append(f"op {j} ({op.kind}): {msg}")
        return failed, msgs

    def digest(self, core):
        h = hashlib.sha256()
        for j in range(core):
            h.update(self.keys.get(j, "failed").encode() + b"\n")
        return h.hexdigest()[:16]


def _fresh_dir(name, seed, tag):
    d = WORK / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def _setup(name, seed, rep, small):
    """Generate, write and read back the inputs once; returns (workload, s)."""
    d = _fresh_dir(name, seed, f"setup{rep}")
    t0 = time.perf_counter()
    wl = workloads.build(name, seed, d, small)
    return wl, time.perf_counter() - t0


def _code_digest():
    """Digest of the program and of this benchmark's own code."""
    h = hashlib.sha256()
    for p in sorted((SRC / "stratdiff").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()[:16]


def _check_repeat(name, seed, small, counts):
    """Compare exact counts with an earlier run of the same seed and code."""
    key = f"{name}:{seed}:{'small' if small else 'full'}:{_code_digest()}"
    try:
        store = json.loads((WORK / "counts.json").read_text())
    except (OSError, ValueError):
        store = {}
    old = store.get(key)
    if old is None:
        store[key] = counts
        (WORK / "counts.json").write_text(json.dumps(store, indent=1,
                                                     sort_keys=True))
        return "first"
    return "match" if old == counts else "differ"


def _warm(op):
    try:
        op.run()
    except Exception:
        pass  # the timed loop records and counts the failure


def run_untraced(name, seed, seconds, small=False):
    wl, first_setup = _setup(name, seed, 0, small)
    setup_times = [first_setup]
    _warm(wl.ops[0])
    loop = Loop(wl.ops)
    # The timed loop runs in SETUP_REPS slices with a repeat of the set-up
    # between them, so the set-up median samples the machine at several
    # moments of the run rather than in one burst before it.
    for rep in range(1, SETUP_REPS + 1):
        last = rep == SETUP_REPS
        loop.run(seconds / SETUP_REPS, wl.core if last else 0)
        if not last:
            setup_times.append(_setup(name, seed, rep, small)[1])
    rss = _peak_rss_mib(wl.rss_scope)
    failed, msgs = loop.verify()
    lat = sorted(loop.lat)
    p50 = statistics.median(lat)
    tail_pct = wl.tail_pct
    tail, beyond = _pct(lat, tail_pct)
    if beyond < 10:  # a short run: the highest percentile that keeps 10
        tail_pct = 100.0 * max(len(lat) - 10, 1) / len(lat)
        tail, beyond = _pct(lat, tail_pct)
    metrics = {
        "ops_per_s": _metric(len(lat) / math.fsum(lat), "1/s"),
        "op_p50_ms": _metric(p50 * 1e3, "ms"),
        "op_tail_ms": _metric(tail * 1e3, "ms"),
        "peak_rss_mib": _metric(rss, "MiB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }
    counts = workloads.counts(wl.ops[:wl.core])
    repeat = _check_repeat(name, seed, small, counts)
    report = {
        "workload": name, "seed": seed, "trace": 0,
        "error_rate": failed / loop.attempted,
        "op_tail": {"percentile": tail_pct, "samples": len(lat),
                    "samples_beyond": beyond},
        "setup_runs_s": setup_times,
        "peak_rss_scope": wl.rss_scope,
        "digest": loop.digest(wl.core),
        "counts": counts, "counts_repeat": repeat,
        "failures": msgs[:10],
    }
    return loop.attempted, failed, metrics, report, repeat != "differ"


# Per-layer metrics of the traced run: call counts, and self time.
LAYER_CALLS = ("exact.dp_optimal", "exact.brute_force_optimal",
               "network.validate_instance", "network.sequence_time")
LAYER_SELF = ("exact.dp_optimal", "exact.brute_force_optimal",
              "network.validate_instance",
              "treewidth.min_fill_decomposition",
              "treewidth.validate_decomposition",
              "treewidth.tw_full_optimal", "treewidth.tw_partial_optimal",
              "decompose.component_instances", "decompose.block_solve",
              "decompose.solve_full_via_decomposition",
              "heuristics.greedy_sequence", "heuristics.majority_sequence",
              "simulate.simulate_sequence", "cli.main")


def _layer_metrics(by_ops, by_checks, cycles):
    """Per-layer values per pass of the core list, its checks included."""
    def total(name, idx):
        zero = (0, 0.0, 0.0)
        return by_ops.get(name, zero)[idx] / cycles + by_checks.get(name, zero)[idx]

    out = {f"{name}.calls": _metric(total(name, 0), "count")
           for name in LAYER_CALLS}
    out.update({f"{name}.self_s": _metric(total(name, 1), "s")
                for name in LAYER_SELF})
    return out


def _process_seconds(code, env, reps=7):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(name, seed, seconds, small=False):
    wl, _ = _setup(name, seed, 0, small)
    ops = wl.trace_ops or wl.ops[:wl.core]
    _warm(ops[0])
    # Untraced, then traced, on the same whole passes of the core list.
    plain = Loop(ops)
    t_end = time.perf_counter() + seconds / 4.0
    cycles = 0
    while True:
        plain.run(0.0, len(ops) * (cycles + 1))
        cycles += 1
        if time.perf_counter() >= t_end or len(ops) * (cycles + 1) > MAX_TRACED_OPS:
            break
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = Loop(ops)
        traced.run(0.0, len(ops) * cycles, tracer)
        failed, msgs = traced.verify(tracer)
    finally:
        spans.uninstall(undo)
    failed += plain.verify()[0]
    attempted = plain.attempted + traced.attempted

    by_ops, by_checks = tracer.summary()
    metrics = _layer_metrics(by_ops, by_checks, cycles)
    op_rec = by_ops.get(spans.OP, [0, 0.0, 1.0])
    n_ops = traced.attempted
    layer_per_op = {}
    for span_name, rec in by_ops.items():
        if span_name != spans.OP:
            mod = span_name.split(".")[0]
            layer_per_op[mod] = layer_per_op.get(mod, 0.0) + rec[1] / n_ops
    interp = imp = 0.0
    if name == "cli_small":
        env = workloads.cli_env()
        interp = _process_seconds("pass", env)
        imp = _process_seconds("import stratdiff", env) - interp
        layer_per_op["cli.interpreter"] = interp
        layer_per_op["cli.import"] = imp
    metrics["cli.interpreter_s"] = _metric(interp, "s")
    metrics["cli.import_s"] = _metric(imp, "s")
    counts = workloads.counts(wl.ops[:wl.core])
    for key, val in counts.items():
        metrics[key] = _metric(val, "count")
    untraced_rate = plain.attempted / math.fsum(plain.lat)
    traced_rate = traced.attempted / math.fsum(traced.lat)
    metrics["trace.ops_per_s_untraced"] = _metric(untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = _metric(traced_rate, "1/s")
    metrics["trace.uncovered_share"] = _metric(op_rec[1] / op_rec[2], "share")

    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(span_file)
    dominant = max(layer_per_op, key=layer_per_op.get) if layer_per_op else None
    report = {
        "workload": name, "seed": seed, "trace": 1, "passes": cycles,
        "error_rate": failed / attempted,
        "dominant_layer": dominant,
        "layer_self_s_per_op": layer_per_op,
        "trace_overhead": untraced_rate / traced_rate - 1.0,
        "spans": len(tracer.names), "span_file": str(span_file),
        "digest": traced.digest(wl.core),
        "counts_repeat": _check_repeat(name, seed, small, counts),
        "failures": msgs[:10],
    }
    return attempted, failed, metrics, report, report["counts_repeat"] != "differ"


def run_one(name, seed, seconds, trace, small=False):
    try:
        fn = run_traced if trace else run_untraced
        return fn(name, seed, seconds, small)
    finally:
        for d in WORK.glob(f"{name}-seed{seed}-*"):
            shutil.rmtree(d, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process (peak RSS is per process)."""
    if not trace:
        print(f"{'workload':<14} " + " ".join(f"{m + ' (' + u + ')':>20}"
                                              for m, u in END_TO_END)
              + f" {'error_rate':>10}")
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)], stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2].split(" ", 1)[1])
        ok = ok and result["correct"]
        if trace:
            print(f"{name:<14} dominant layer {report['dominant_layer']}, "
                  f"error_rate {report['error_rate']}")
            continue
        m = result["metrics"]
        print(f"{name:<14} " + " ".join(f"{m[k]['value']:>20.6g}"
                                        for k, _ in END_TO_END)
              + f" {report['error_rate']:>10.3g}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    attempted, failed, metrics, report, counts_ok = run_one(
        args.workload, args.seed, args.seconds, args.trace)
    if not counts_ok:
        print("warning: exact counts differ from an earlier run of this seed "
              "and code", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0 and counts_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
