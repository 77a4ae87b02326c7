import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stratdiff
from stratdiff import (DiffusionInstance, InfluenceNetwork, TreeDecomposition,
                       dp_optimal, make_gk, save_instance, save_td,
                       min_fill_decomposition, random_connected)
from stratdiff import exact
from stratdiff.cli import main
from helpers import full_instance, path_net


def write_instance(tmp_path, inst, name="inst.json"):
    p = str(tmp_path / name)
    save_instance(inst, p)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_dp_json_output(tmp_path, capsys):
    inst = full_instance(path_net(4))
    p = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "solve", p)
    assert code == 0
    d = json.loads(out)
    assert d["solver"] == "dp"
    assert d["sequence"] == [0, 1, 2, 3]
    assert d["total_time"] == 5.0
    assert d["wall_ms"] >= 0.0
    assert d["infeasible"] is False


def test_solve_out_file_and_overrides(tmp_path, capsys):
    inst = full_instance(path_net(4))
    p = write_instance(tmp_path, inst)
    outp = str(tmp_path / "res.json")
    code, out, _ = run(capsys, "solve", p, "--z", "2", "--alpha", "0.5",
                       "--beta", "0.5", "--out", outp)
    assert code == 0
    assert out == ""
    d = json.loads(Path(outp).read_text())
    assert d["sequence"] == [0, 1]
    # (2/1)^0.5 / 0.5
    assert abs(d["total_time"] - 2.0 ** 0.5 / 0.5) <= 1e-12


def test_solve_infeasible_exit_code(tmp_path, capsys):
    net = InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 0.0, 1.0)])
    p = write_instance(tmp_path, DiffusionInstance(net, 0, 3))
    code, out, _ = run(capsys, "solve", p)
    assert code == 3
    assert json.loads(out)["infeasible"] is True


def test_solve_guard_and_force(tmp_path, capsys):
    p = write_instance(tmp_path, full_instance(path_net(11)))
    code, _, err = run(capsys, "solve", p, "--solver", "brute")
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "solve", p, "--solver", "brute", "--force")
    assert code == 0
    assert "size guards disabled" in err
    assert json.loads(out)["total_time"] == 19.0


def test_solve_guards_honour_force(tmp_path, capsys, monkeypatch):
    # one 18-node block, so decompose runs the guarded DP on all of it; at
    # alpha = 0 every state ties with greedy, so the bound prunes nothing
    inst = full_instance(random_connected(18, 0.3, rng_seed=18), alpha=0.0)
    want = dp_optimal(inst).total_time
    p = write_instance(tmp_path, inst)
    monkeypatch.setattr(exact, "DP_MEMORY_BUDGET", 1 << 20)
    for solver in ("dp", "decompose"):
        code, _, err = run(capsys, "solve", p, "--solver", solver)
        assert code == 2
        assert "layer" in err and "MiB" in err and "force" in err
        code, out, _ = run(capsys, "solve", p, "--solver", solver, "--force")
        assert code == 0
        assert abs(json.loads(out)["total_time"] - want) <= 1e-9 * want
    # one bag holding a 10-node path: a ground over 9, but one ordering
    q = write_instance(tmp_path, full_instance(path_net(10)), "path.json")
    tdp = str(tmp_path / "one_bag.json")
    save_td(TreeDecomposition([range(10)]), tdp)
    for solver in ("tw-full", "tw-partial"):
        argv = ("solve", q, "--solver", solver, "--td", tdp)
        assert run(capsys, *argv)[0] == 2
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["total_time"] == 17.0


def test_solve_bad_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1

    p = write_instance(tmp_path, full_instance(path_net(3)))
    code, _, err = run(capsys, "solve", p, "--z", "99")
    assert code == 1 and "invalid instance" in err


def test_solve_rejects_non_finite_weight(tmp_path, capsys):
    # json.load accepts Infinity; the instance must be refused, not solved
    # to "infeasible"
    p = tmp_path / "inf.json"
    p.write_text('{"n": 2, "seed": 0, "z": 2, "edges": '
                 '[{"u": 0, "v": 1, "wuv": Infinity, "wvu": 1.0}]}')
    code, out, err = run(capsys, "solve", str(p))
    assert code == 1
    assert out == ""
    assert "invalid instance: non-finite weight inf on edge (0, 1) " \
        "direction 0->1" in err


@pytest.mark.parametrize("field, value", [
    ("alpha", None), ("beta", "1"), ("seed", 0.9), ("z", "3"), ("n", 2.5),
    ("edges[0].u", 1.7), ("edges[1].v", True), ("edges[0].wuv", None),
    ("external[1]", None),
])
def test_solve_refuses_malformed_instance_field(tmp_path, capsys, field, value):
    # a value of the wrong type or a fractional id names the file and the
    # field; nothing is truncated into a different instance
    p = write_instance(tmp_path, full_instance(path_net(3)))
    d = json.loads(Path(p).read_text())
    d["external"] = [0.0, 0.0, 0.0]
    *outer, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", field)]
    target = d
    for k in outer:
        target = target[k]
    target[last] = value
    Path(p).write_text(json.dumps(d))
    code, out, err = run(capsys, "solve", p)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: {field} must be ")


@pytest.mark.parametrize("text", [
    '{"root": 0, "bags": [[0, 1], [1, "a"]], "edges": [[0, 1]]}',
    "s td x 2 3\nb 1 1 2\nb 2 2 3\n1 2\n",
    "s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n",
    "s td 2 2 3\nb 1 1 2\n1 2\n",
], ids=["json-bag", "td-header", "td-bag-twice", "td-bag-missing"])
def test_solve_refuses_malformed_td_file(tmp_path, capsys, text):
    p = write_instance(tmp_path, full_instance(path_net(3)))
    tdp = tmp_path / ("dec.json" if text.startswith("{") else "dec.td")
    tdp.write_text(text)
    code, out, err = run(capsys, "solve", p, "--solver", "tw-full",
                         "--td", str(tdp))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tdp}")


def test_solve_treewidth_with_td_file(tmp_path, capsys):
    net = path_net(5)
    inst = full_instance(net)
    p = write_instance(tmp_path, inst)
    tdp = str(tmp_path / "dec.json")
    save_td(min_fill_decomposition(net), tdp)
    code, out, _ = run(capsys, "solve", p, "--solver", "tw-full", "--td", tdp)
    assert code == 0
    assert json.loads(out)["total_time"] == dp_optimal(inst).total_time


def test_solve_strategy_a(tmp_path, capsys):
    p = write_instance(tmp_path, make_gk(2))
    code, out, _ = run(capsys, "solve", p, "--solver", "strategy-a")
    assert code == 0
    assert json.loads(out)["total_time"] == 8.0

    q = write_instance(tmp_path, full_instance(path_net(6)), "p6.json")
    code, _, err = run(capsys, "solve", q, "--solver", "strategy-a")
    assert code == 1


def test_generate_gk(tmp_path, capsys):
    outp = str(tmp_path / "g2.json")
    code, out, _ = run(capsys, "generate", "gk", "--k", "2", "--out", outp)
    assert code == 0
    assert "wrote" in out
    meta = json.loads(Path(outp[:-5] + ".meta.json").read_text())
    assert meta["family"] == "gk" and meta["k"] == 2
    assert meta["n"] == 6 and meta["z"] == 6
    code, sout, _ = run(capsys, "solve", outp)
    assert code == 0
    assert json.loads(sout)["total_time"] == 8.0


def test_generate_np_hard_binary(tmp_path, capsys):
    outp = str(tmp_path / "npb.json")
    code, out, _ = run(capsys, "generate", "np-hard", "--universe", "2",
                       "--sets", "0,1", "--k", "1", "--binary",
                       "--out", outp)
    assert code == 0
    meta = json.loads(Path(outp[:-5] + ".meta.json").read_text())
    assert meta["t_star"] == 5.0
    assert meta["binary_weights"] is True
    assert meta["sets"] == [[0, 1]]
    code, sout, _ = run(capsys, "solve", outp)
    assert json.loads(sout)["total_time"] == 5.0


def test_generate_inapprox_meta(tmp_path, capsys):
    outp = str(tmp_path / "inap.json")
    code, _, _ = run(capsys, "generate", "inapprox", "--universe", "2",
                     "--sets", "0,1;0", "--lam", "1.0", "--out", outp)
    assert code == 0
    meta = json.loads(Path(outp[:-5] + ".meta.json").read_text())
    assert meta["scale"] == 28.0
    assert meta["z"] == 7


def test_generate_random_with_z(tmp_path, capsys):
    outp = str(tmp_path / "rnd.json")
    code, _, _ = run(capsys, "generate", "random", "--n", "7",
                     "--rng-seed", "3", "--z", "4", "--out", outp)
    assert code == 0
    meta = json.loads(Path(outp[:-5] + ".meta.json").read_text())
    assert meta["n"] == 7 and meta["z"] == 4
    code, sout, _ = run(capsys, "solve", outp)
    assert code == 0
    assert len(json.loads(sout)["sequence"]) == 4


def test_generate_bad_sets(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "np-hard", "--universe", "2",
                       "--sets", "0,5", "--k", "1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1 and "error" in err


def test_compare_csv(tmp_path, capsys):
    outp = str(tmp_path / "cmp.csv")
    code, _, _ = run(capsys, "compare", "--k-min", "2", "--k-max", "3",
                     "--with-dp", "--out", outp)
    assert code == 0
    with open(outp, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["2", "3"]
    assert float(rows[0]["strategy_a"]) == 8.0
    assert float(rows[0]["greedy"]) == pytest.approx(25.0 / 3.0)
    assert float(rows[0]["dp"]) <= 8.0
    assert float(rows[1]["greedy_ratio"]) >= float(rows[0]["greedy_ratio"])


def test_compare_stdout_without_dp(capsys):
    code, out, _ = run(capsys, "compare", "--k-min", "2", "--k-max", "2")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows[0]["dp"] == ""
    assert float(rows[0]["majority"]) == 8.0


def test_simulate_given_sequence(tmp_path, capsys):
    p = write_instance(tmp_path, full_instance(path_net(3)))
    code, out, _ = run(capsys, "simulate", p, "--sequence", "0,1,2",
                       "--trials", "400", "--rng-seed", "1")
    assert code == 0
    d = json.loads(out)
    assert d["solver"] == "given"
    assert d["sequence"] == [0, 1, 2]
    assert d["analytic_time"] == 3.0
    assert d["trials"] == 400
    assert abs(d["mean"] - 3.0) <= 6.0 * d["std_error"]


def test_simulate_solver_sequence(tmp_path, capsys):
    p = write_instance(tmp_path, full_instance(path_net(3)))
    code, out, _ = run(capsys, "simulate", p, "--solver", "greedy",
                       "--trials", "50")
    assert code == 0
    assert json.loads(out)["solver"] == "greedy"


def test_simulate_infeasible(tmp_path, capsys):
    net = InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 0.0, 1.0)])
    p = write_instance(tmp_path, DiffusionInstance(net, 0, 3))
    code, _, err = run(capsys, "simulate", p)
    assert code == 3 and "infeasible" in err


def test_decompose_output(tmp_path, capsys):
    net = InfluenceNetwork(5, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1),
                               (2, 3, 1, 1), (3, 4, 1, 1), (2, 4, 1, 1)])
    p = write_instance(tmp_path, full_instance(net))
    code, out, _ = run(capsys, "decompose", p)
    assert code == 0
    d = json.loads(out)
    assert sorted(map(sorted, d["blocks"])) == [[0, 1, 2], [2, 3, 4]]
    assert d["cut_nodes"] == [2]
    assert len(d["components"]) == 2
    first = d["components"][0]
    assert first["entry"] == 0
    assert "external" in first and "seed_local" in first


def test_decompose_partial_has_no_components(tmp_path, capsys):
    p = write_instance(tmp_path, DiffusionInstance(path_net(4), 0, 2))
    code, out, _ = run(capsys, "decompose", p)
    assert code == 0
    assert "components" not in json.loads(out)


def child_env(path_dir=None):
    """Environment for a child process that runs the same stratdiff as this
    one: its src directory goes first on PYTHONPATH, and ``path_dir``, if
    given, first on PATH."""
    env = dict(os.environ)
    src = str(Path(stratdiff.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    if path_dir is not None:
        env["PATH"] = os.pathsep.join(
            filter(None, [str(path_dir), env.get("PATH")]))
    return env


def write_console_script(bin_dir, name):
    """Write the wrapper an installer generates for the ``[project.scripts]``
    entry ``name`` in the repo's pyproject.toml, and return its directory."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    script.chmod(0o755)
    return bin_dir


def test_module_entry_point(tmp_path):
    p = write_instance(tmp_path, full_instance(path_net(3)))
    proc = subprocess.run([sys.executable, "-m", "stratdiff", "solve", p],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_time"] == 3.0


def test_console_script(tmp_path):
    p = write_instance(tmp_path, full_instance(path_net(3)))
    bin_dir = write_console_script(tmp_path / "bin", "stratdiff")
    proc = subprocess.run(["stratdiff", "solve", p, "--solver", "greedy"],
                          capture_output=True, text=True,
                          env=child_env(bin_dir))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solver"] == "greedy"


def test_every_exported_name_resolves():
    assert len(set(stratdiff.__all__)) == len(stratdiff.__all__)
    for name in stratdiff.__all__:
        assert hasattr(stratdiff, name), name
    scope = {}
    exec("from stratdiff import *", scope)
    assert set(stratdiff.__all__) <= set(scope)
