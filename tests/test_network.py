import json
import math
import random

import numpy as np
import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                       SequenceError, SolveResult, ZeroInfluenceError,
                       activation_probability, check_instance,
                       expected_step_time,
                       infeasible_result, load, load_instance, save,
                       save_instance, sequence_time, validate,
                       validate_instance)
from stratdiff.network import _step_time_masked, _step_times_masked
from helpers import path_net, random_weighted_net

INF = math.inf


def test_total_influence_and_adjacency():
    net = InfluenceNetwork(3, [(0, 1, 1.0, 2.0), (1, 2, 0.5, 0.0)],
                           external_influence=[0.0, 3.0, 0.0])
    # node 1 receives 1.0 from 0, 0.0 from 2, plus 3.0 external
    assert net.total_influence == (2.0, 4.0, 0.5)
    assert net.neighbors(1) == (0, 2)
    assert net.incoming(1) == ((0, 1.0), (2, 0.0))


def test_edges_normalized_and_sorted():
    net = InfluenceNetwork(3, [(2, 1, 0.25, 0.75), (1, 0, 1.0, 2.0)])
    assert net.edges == ((0, 1, 2.0, 1.0), (1, 2, 0.75, 0.25))


def test_constructor_rejects_structural_breakage():
    with pytest.raises(ValueError):
        InfluenceNetwork(2, [(0, 0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        InfluenceNetwork(2, [(0, 1, 1.0, 1.0), (1, 0, 2.0, 2.0)])
    with pytest.raises(ValueError):
        InfluenceNetwork(2, [(0, 5, 1.0, 1.0)])
    with pytest.raises(ValueError):
        InfluenceNetwork(0)


def test_activation_probability_basics():
    net = path_net(3)
    # node 1 has both neighbors, total influence 2
    assert activation_probability(net, [0], 1) == 0.5
    assert activation_probability(net, [0, 2], 1) == 1.0
    assert activation_probability(net, [0], 2) == 0.0
    # sub-linear curve: beta * frac^alpha
    p = activation_probability(net, [0], 1, 0.5, 0.5)
    assert p == pytest.approx(0.5 * 0.5 ** 0.5, abs=1e-15)


def test_zero_to_the_alpha_is_zero():
    net = path_net(3)
    assert activation_probability(net, [0], 2, 0.0, 1.0) == 0.0
    # positive fraction with alpha = 0 gives beta
    assert activation_probability(net, [0], 1, 0.0, 0.7) == 0.7


def test_probability_requires_inactive_target_and_influence():
    net = path_net(3)
    with pytest.raises(ValueError):
        activation_probability(net, [0, 1], 1)
    lonely = InfluenceNetwork(2, [(0, 1, 1.0, 0.0)])
    # node 0 has zero total influence
    with pytest.raises(ZeroInfluenceError):
        activation_probability(lonely, [1], 0)
    with pytest.raises(ZeroInfluenceError):
        expected_step_time(lonely, [1], 0)
    # a negative weight would let the active in-weight pass the total
    bad = InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, -0.5)])
    with pytest.raises(ValueError, match="negative weight"):
        activation_probability(bad, [0], 1)


def test_expected_step_time_values():
    net = path_net(3)
    assert expected_step_time(net, [0, 2], 1) == 1.0
    assert expected_step_time(net, [0], 1) == 2.0
    assert expected_step_time(net, [0], 2) == INF


def test_sequence_time_path():
    inst = DiffusionInstance(path_net(3), seed=0, z=3)
    res = sequence_time(inst, [0, 1, 2])
    assert res.step_times == (0.0, 2.0, 1.0)
    assert res.total_time == 3.0
    assert res.feasible


def test_sequence_time_triangle():
    net = InfluenceNetwork(3, [(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)])
    inst = DiffusionInstance(net, seed=0, z=3)
    res = sequence_time(inst, [0, 1, 2])
    assert res.step_times == (0.0, 2.0, 1.0)
    assert res.total_time == 3.0


def test_sequence_time_seed_only_and_infeasible():
    inst = DiffusionInstance(path_net(3), seed=0, z=1)
    assert sequence_time(inst, [0]).total_time == 0.0
    # jumping past node 1 gives an infinite step, then feasible steps resume
    res = sequence_time(inst, [0, 2, 1])
    assert res.step_times[1] == INF
    assert res.step_times[2] == 1.0
    assert res.total_time == INF
    assert not res.feasible


def test_sequence_time_rejects_malformed():
    inst = DiffusionInstance(path_net(3), seed=0, z=3)
    for bad in ([], [1, 0, 2], [0, 1, 1], [0, 9]):
        with pytest.raises(SequenceError):
            sequence_time(inst, bad)


def test_solve_result_invariants():
    with pytest.raises(ValueError):
        SolveResult(sequence=(0, 1), total_time=1.0, step_times=(0.0,))
    with pytest.raises(ValueError):
        SolveResult(sequence=(0, 1), total_time=5.0, step_times=(0.0, 1.0))
    marker = infeasible_result(3, "x")
    assert marker.sequence == (3,) and not marker.feasible


def test_validate_reports_value_problems():
    net = InfluenceNetwork(3, [(0, 1, -1.0, 1.0), (1, 2, 1.0, 1.0)])
    problems = validate(net)
    assert len(problems) == 1
    assert "(0, 1)" in problems[0]
    assert validate(path_net(4)) == []


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
def test_validate_rejects_non_finite_weight(bad):
    net = InfluenceNetwork(3, [(0, 1, 1.0, bad), (1, 2, 1.0, 1.0)])
    assert validate(net) == [
        f"non-finite weight {bad} on edge (0, 1) direction 1->0"]
    inst = DiffusionInstance(net, seed=0, z=3)
    with pytest.raises(ValueError, match="invalid instance: non-finite weight"):
        check_instance(inst)


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
def test_validate_rejects_non_finite_external(bad):
    net = InfluenceNetwork(2, [(0, 1, 1.0, 1.0)], external_influence=[0.0, bad])
    assert validate(net) == [f"non-finite external influence {bad} at node 1"]
    with pytest.raises(ValueError, match="non-finite external influence"):
        check_instance(DiffusionInstance(net, seed=0, z=2))


def test_validate_instance_ranges():
    net = path_net(3)
    ok = DiffusionInstance(net, seed=0, z=3)
    assert validate_instance(ok) == []
    assert validate_instance(DiffusionInstance(net, seed=9, z=3))
    assert validate_instance(DiffusionInstance(net, seed=0, z=0))
    assert validate_instance(DiffusionInstance(net, seed=0, z=3, alpha=1.5))
    # beta = 0 would make every step infinite; rejected outright
    assert validate_instance(DiffusionInstance(net, seed=0, z=3, beta=0.0))


def test_json_roundtrip(tmp_path):
    net = InfluenceNetwork(3, [(0, 1, 1.5, 0.25), (1, 2, 1.0, 0.0)],
                           external_influence=[0.0, 0.5, 0.0])
    p = str(tmp_path / "net.json")
    save(net, p)
    assert load(p) == net


def test_text_roundtrip(tmp_path):
    net = path_net(4, w=1.25)
    p = str(tmp_path / "net.txt")
    save(net, p)
    assert load(p) == net


def test_text_format_cannot_hold_external(tmp_path):
    net = InfluenceNetwork(2, [(0, 1, 1, 1)], external_influence=[1.0, 0.0])
    with pytest.raises(NetworkFormatError):
        save(net, str(tmp_path / "net.txt"))


def test_load_reports_location(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 1 1.0\n")
    with pytest.raises(NetworkFormatError) as exc:
        load(str(p))
    assert "bad.txt" in str(exc.value)
    q = tmp_path / "bad.json"
    q.write_text("{not json")
    with pytest.raises(NetworkFormatError):
        load(str(q))
    r = tmp_path / "neg.json"
    r.write_text(json.dumps({"n": 2, "edges": [
        {"u": 0, "v": 1, "wuv": -2.0, "wvu": 1.0}]}))
    problems = validate(load(str(r)))
    assert len(problems) == 1 and "-2.0" in problems[0]


def test_instance_roundtrip(tmp_path):
    inst = DiffusionInstance(path_net(4), seed=1, z=3, alpha=0.5, beta=0.75)
    p = str(tmp_path / "inst.json")
    save_instance(inst, p)
    back = load_instance(p)
    assert back == inst


def test_load_instance_takes_integral_floats(tmp_path):
    inst = DiffusionInstance(path_net(4), seed=1, z=3, alpha=0.5, beta=0.75)
    p = tmp_path / "inst.json"
    save_instance(inst, str(p))
    d = json.loads(p.read_text())
    d.update(n=4.0, seed=1.0, z=3.0)
    d["edges"][0]["u"] = 0.0
    p.write_text(json.dumps(d))
    back = load_instance(str(p))
    assert back == inst and type(back.seed) is int and type(back.z) is int


def test_probability_monotone_and_bounded():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(3, 8)
        net = random_weighted_net(n, rng)
        beta = rng.uniform(0.1, 1.0)
        alpha = rng.uniform(0.0, 1.0)
        i = rng.randrange(1, n)
        others = [v for v in range(n) if v != i]
        rng.shuffle(others)
        cut = rng.randrange(1, n - 1) if n > 2 else 1
        small = others[:cut]
        big = others
        p_small = activation_probability(net, small, i, alpha, beta)
        p_big = activation_probability(net, big, i, alpha, beta)
        assert 0.0 <= p_small <= beta + 1e-15
        assert 0.0 <= p_big <= beta + 1e-15
        assert p_big >= p_small - 1e-15
        if p_small > 0.0:
            assert expected_step_time(net, small, i, alpha, beta) >= 1.0 / beta


def test_unit_weights_match_neighbor_fraction():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(3, 7)
        net = random_weighted_net(n, rng, lo=1.0, hi=1.0)
        i = rng.randrange(n)
        active = [v for v in range(n) if v != i and rng.random() < 0.5]
        if not active:
            active = [(i + 1) % n]
        nbrs = set(net.neighbors(i))
        expect = len(nbrs & set(active)) / len(nbrs)
        assert activation_probability(net, active, i) == pytest.approx(expect, abs=1e-12)


def test_additivity_is_exact():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(2, 8)
        net = random_weighted_net(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        seed = order[0]
        inst = DiffusionInstance(net, seed=seed, z=n)
        res = sequence_time(inst, order)
        total = 0.0
        for s in res.step_times:
            total += s
        assert total == res.total_time


def _six_node_nets():
    rng = random.Random(17)
    pick = lambda: rng.choice([0.0, 1.0, rng.uniform(0.1, 3.0)])  # noqa: E731
    for _ in range(4):
        edges = [(u, v, pick(), pick()) for u in range(6)
                 for v in range(u + 1, 6) if rng.random() < 0.6]
        yield InfluenceNetwork(6, edges, [rng.choice([0.0, 0.5])
                                          for _ in range(6)])
    # node 5 has zero total influence; nodes 1 and 2 only see zero weights
    yield InfluenceNetwork(6, [(0, 1, 0.0, 1.0), (0, 2, 0.0, 2.0),
                               (1, 2, 0.0, 0.0), (2, 3, 1.0, 0.5),
                               (3, 4, 0.7, 0.3), (4, 5, 0.0, 1.0)])


def test_step_times_masked_equals_scalar_kernel():
    masks = np.arange(1 << 6, dtype=np.int64)
    for net in _six_node_nets():
        # numpy's own pow differs from Python's in the last bit at 0.3
        for alpha in (0.0, 0.3, 0.5, 1.0):
            for beta in (0.5, 1.0):
                for i in range(6):
                    got = _step_times_masked(net, masks, i, alpha, beta)
                    want = [_step_time_masked(net, m, i, alpha, beta)
                            for m in range(1 << 6)]
                    assert got.tolist() == want, (net.edges, i, alpha, beta)
