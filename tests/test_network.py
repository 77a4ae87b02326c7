import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                       SequenceError, SizeGuardError, SolveResult,
                       ZeroInfluenceError, activation_probability,
                       dp_optimal, expected_step_time,
                       greedy_sequence,
                       infeasible_result, load, load_instance, save,
                       save_instance, sequence_time, tw_partial_optimal,
                       validate_instance)
from stratdiff.exact import _in_table, _step_times_masked
from stratdiff.network import _step_time_masked
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
    with pytest.raises(ValueError, match=r"^node id 1\.9 is not an integer$"):
        InfluenceNetwork(3, [(0, 1.9, 1, 1)])
    with pytest.raises(ValueError, match=r"^node id 2\.0 is not an integer$"):
        InfluenceNetwork(3, [(2.0, 1, 1, 1)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        InfluenceNetwork(3, [(1, 2, 1, 1), (0, 1, 1, 1), (2, 1, 1, 1)])
    with pytest.raises(ValueError, match=r"^node_count 2\.5 is not an integer$"):
        InfluenceNetwork(2.5)
    with pytest.raises(ValueError, match=r"^node_count 3\.0 is not an integer$"):
        InfluenceNetwork(3.0, [(0, 1, 1, 1)])
    assert InfluenceNetwork(np.int64(3)).node_count == 3


def test_numpy_integer_node_ids_pass():
    net = InfluenceNetwork(3, [(np.int64(2), np.int32(0), 1.0, 2.0)])
    assert net.edges == ((0, 2, 2.0, 1.0),)
    assert type(net.edges[0][0]) is int


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
    # a negative weight would let the active in-weight pass the total; such
    # a network cannot be built, so no query meets one
    with pytest.raises(ValueError, match="^invalid network: negative weight"):
        InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, -0.5)])


def test_expected_step_time_checks_its_inputs():
    net = path_net(3)
    with pytest.raises(ValueError, match=r"^beta -2\.0 outside \(0, 1\]$"):
        expected_step_time(net, [0], 1, alpha=5.0, beta=-2.0)
    with pytest.raises(ValueError, match=r"^beta 3\.0 outside \(0, 1\]$"):
        activation_probability(net, [0], 1, alpha=1.0, beta=3.0)
    for alpha in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^alpha .* is negative or not "
                           r"finite$"):
            activation_probability(net, [0], 1, alpha=alpha)
    for i, active in ((7, [0]), (-1, [0]), (1.0, [0]), (1, [0, 9]),
                      (1, [0, 2.0])):
        with pytest.raises(ValueError, match=r"^node id .* is not an integer "
                           r"in 0\.\.2$"):
            expected_step_time(net, active, i)
    # alpha above 1 stays allowed here, and numpy ids pass
    assert expected_step_time(net, [np.int64(0)], np.int32(1), alpha=2.0) == 4.0


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
    for bad in ([], [1, 0, 2], [0, 1, 1], [0, 9], [0, 1.7, 2.2], [0.0, 1, 2]):
        with pytest.raises(SequenceError):
            sequence_time(inst, bad)
    with pytest.raises(SequenceError, match="^node id 1.7 is not an integer$"):
        sequence_time(inst, [0, 1.7, 2.2])
    # ids go through operator.index, so numpy ints pass unchanged
    assert sequence_time(inst, np.arange(3)).sequence == (0, 1, 2)


def test_solve_result_invariants():
    with pytest.raises(ValueError):
        SolveResult(sequence=(0, 1), total_time=1.0, step_times=(0.0,))
    with pytest.raises(ValueError):
        SolveResult(sequence=(0, 1), total_time=5.0, step_times=(0.0, 1.0))
    marker = infeasible_result(3, "x")
    assert marker.sequence == (3,) and not marker.feasible


def test_validate_reports_value_problems():
    with pytest.raises(ValueError) as exc:
        InfluenceNetwork(3, [(0, 1, -1.0, 1.0), (1, 2, 1.0, 1.0)])
    problems = str(exc.value).removeprefix("invalid network: ").split("; ")
    assert len(problems) == 1
    assert "(0, 1)" in problems[0]
    path_net(4)  # a clean network builds


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
def test_validate_rejects_non_finite_weight(bad):
    with pytest.raises(ValueError) as exc:
        InfluenceNetwork(3, [(0, 1, 1.0, bad), (1, 2, 1.0, 1.0)])
    assert str(exc.value) == (
        f"invalid network: non-finite weight {bad} on edge (0, 1) direction 1->0")


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
def test_validate_rejects_non_finite_external(bad):
    with pytest.raises(ValueError) as exc:
        InfluenceNetwork(2, [(0, 1, 1.0, 1.0)], external_influence=[0.0, bad])
    assert str(exc.value) == (
        f"invalid network: non-finite external influence {bad} at node 1")


def test_the_constructor_refuses_exactly_the_bad_values():
    # every value is a finite nonnegative number, -0.0, a negative, +-inf or
    # nan; the network builds iff none is bad, and a refusal lists every
    # bad value, edges in (u, v) order and then external influence by node
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # mostly good values, so that a lone bad one is common
    value = st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(0.0, 1e6),
                      st.floats(max_value=0.0, exclude_max=True,
                                allow_infinity=False),
                      st.sampled_from([INF, -INF, math.nan]))

    @st.composite
    def networks(draw):
        n = draw(st.integers(2, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]), unique_by=frozenset, max_size=8))
        records = [(u, v, draw(value), draw(value)) for u, v in pairs]
        ext = draw(st.none() | st.lists(value, min_size=n, max_size=n))
        return n, records, ext

    def kind(x):
        return ("non-finite" if not math.isfinite(x) else
                "negative" if x < 0.0 else None)

    def problems(records, ext):
        out = []
        for u, v, wuv, wvu in sorted((u, v, a, b) if u < v else (v, u, b, a)
                                     for u, v, a, b in records):
            out += [f"{kind(w)} weight {w} on edge ({u}, {v}) direction {a}->{b}"
                    for w, a, b in ((wuv, u, v), (wvu, v, u)) if kind(w)]
        out += [f"{kind(x)} external influence {x} at node {i}"
                for i, x in enumerate(ext or ()) if kind(x)]
        return out

    @settings(max_examples=300)
    @given(networks())
    def check(case):
        n, records, ext = case
        expected = problems(records, ext)
        if expected:
            with pytest.raises(ValueError) as exc:
                InfluenceNetwork(n, records, ext)
            assert str(exc.value) == "invalid network: " + "; ".join(expected)
        else:
            net = InfluenceNetwork(n, records, ext)
            again = InfluenceNetwork(n, records[::-1], ext)
            assert net == again and net.total_influence == again.total_influence

    check()


def test_validate_instance_ranges():
    net = path_net(3)
    ok = DiffusionInstance(net, seed=0, z=3)
    assert validate_instance(ok) == []
    with pytest.raises(ValueError, match=r"^invalid instance: seed 9 out of "
                       r"range$"):
        DiffusionInstance(net, seed=9, z=3)
    with pytest.raises(ValueError, match=r"^invalid instance: target z=0 "
                       r"outside 1\.\.3$"):
        DiffusionInstance(net, seed=0, z=0)
    with pytest.raises(ValueError, match=r"^invalid instance: alpha 1\.5 "
                       r"outside \[0, 1\]$"):
        DiffusionInstance(net, seed=0, z=3, alpha=1.5)
    # beta = 0 would make every step infinite; rejected outright
    with pytest.raises(ValueError, match=r"^invalid instance: beta 0\.0 "
                       r"outside \(0, 1\]$"):
        DiffusionInstance(net, seed=0, z=3, beta=0.0)
    # seed and z are integers: 2.5 used to build and then break the solvers
    with pytest.raises(ValueError, match=r"^invalid instance: seed 0\.5 is "
                       r"not an integer$"):
        DiffusionInstance(path_net(4), 0.5, 3)
    with pytest.raises(ValueError, match=r"^invalid instance: z 2\.5 is not "
                       r"an integer$"):
        DiffusionInstance(path_net(4), 0, 2.5)
    with pytest.raises(ValueError, match=r"^invalid instance: z 3\.0 is not "
                       r"an integer$"):
        dataclasses.replace(ok, z=3.0)
    both = DiffusionInstance(net, seed=np.int64(1), z=np.int32(2))
    assert (both.seed, both.z) == (1, 2)
    assert type(both.seed) is int and type(both.z) is int


def test_an_invalid_instance_cannot_be_built():
    # a negative weight gives a step of 0.5, a probability of 2
    with pytest.raises(ValueError, match=r"^invalid network: negative "
                       r"weight -0\.5 on edge \(1, 2\) direction 2->1$"):
        InfluenceNetwork(3, [(0, 1, 1, 1), (1, 2, 1, -0.5)])
    ok = DiffusionInstance(path_net(3), seed=0, z=3)
    with pytest.raises(ValueError, match=r"^invalid instance: target z=0 "
                       r"outside 1\.\.3$"):
        dataclasses.replace(ok, z=0)


def test_load_instance_refuses_a_seed_out_of_range(tmp_path):
    p = tmp_path / "inst.json"
    save_instance(DiffusionInstance(path_net(3), seed=2, z=3), str(p))
    d = json.loads(p.read_text())
    d["seed"] = 3
    p.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=r"^invalid instance: seed 3 out of "
                       r"range$"):
        load_instance(str(p))


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
    with pytest.raises(NetworkFormatError, match=r"neg\.json: invalid network: "
                       r"negative weight -2\.0 on edge \(0, 1\) direction 0->1$"):
        load(str(r))


@pytest.mark.parametrize("name, text", [
    ("huge.json", '{"n": 10000000000, "seed": 0, "z": 1}'),
    ("huge.txt", "10000000000 0\n"),
])
def test_load_refuses_node_count_over_the_memory_budget(tmp_path, name, text):
    # refused before any per-node allocation, naming the file, the count,
    # the estimate and the budget, not a MemoryError
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(NetworkFormatError) as exc:
        (load_instance if name == "huge.json" else load)(str(p))
    assert str(exc.value) == (
        f"{p}: node_count 10,000,000,000 needs about 1,068,115 MiB of "
        "per-node storage, over the 1,024 MiB budget")


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
                    got = _step_times_masked(_in_table(net), masks, i, alpha,
                                             beta)
                    want = [_step_time_masked(net, m, i, alpha, beta)
                            for m in range(1 << 6)]
                    assert got.tolist() == want, (net.edges, i, alpha, beta)
                # every pair at once, in non-increasing in-degree, nodes of
                # one in-degree interleaved
                pairs = [(m, i) for m in range(1 << 6) for i in range(6)]
                random.Random(len(net.edges)).shuffle(pairs)
                pairs.sort(key=lambda p: -len(net.incoming(p[1])))
                m, i = (np.array(col) for col in zip(*pairs))
                got = _step_times_masked(_in_table(net), m, i, alpha, beta)
                want = [_step_time_masked(net, *p, alpha, beta) for p in pairs]
                assert got.tolist() == want, (net.edges, alpha, beta)


def _wide_nets():
    # 20 nodes; node 0 hears from 9-15 others, the rest from a few; node 19
    # only hears 0.0, so its total influence is zero
    rng = random.Random(37)
    pick = lambda: rng.choice([0.0, 1.0, rng.uniform(0.1, 3.0)])  # noqa: E731
    for _ in range(3):
        hub = set(rng.sample(range(1, 19), rng.randrange(9, 16)))
        edges = [(u, v, rng.uniform(0.1, 3.0) if u == 0 else pick(), pick())
                 for u in range(19) for v in range(u + 1, 19)
                 if (v in hub if u == 0 else rng.random() < 0.25)]
        edges += [(u, 19, 0.0, pick()) for u in rng.sample(range(19), 4)]
        yield InfluenceNetwork(20, edges, [rng.choice([0.0, 0.5])
                                           for _ in range(19)] + [0.0])


def test_step_times_masked_equals_scalar_kernel_on_wide_nodes():
    # from 8 in-neighbours on, a pairwise (reordered) sum would show
    rng = random.Random(41)
    masks = [0, (1 << 20) - 1] + [rng.getrandbits(20) for _ in range(150)]
    col = np.array(masks)
    for net in _wide_nets():
        degree = [len(net.incoming(i)) for i in range(20)]
        assert max(degree) >= 9 and len(set(degree)) > 3
        assert net.total_influence[19] == 0.0
        table = _in_table(net)
        for alpha in (0.0, 0.3, 1.0):
            for beta in (0.5, 1.0):
                for i in range(20):
                    got = _step_times_masked(table, col, i, alpha, beta)
                    want = [_step_time_masked(net, m, i, alpha, beta)
                            for m in masks]
                    assert got.tolist() == want, (i, alpha, beta)
                # pairs in falling in-degree, one in-degree's interleaved
                pairs = [(m, i) for m in masks[:60] for i in range(20)]
                rng.shuffle(pairs)
                pairs.sort(key=lambda p: -degree[p[1]])
                m, i = (np.array(col) for col in zip(*pairs))
                got = _step_times_masked(table, m, i, alpha, beta)
                want = [_step_time_masked(net, *p, alpha, beta) for p in pairs]
                assert got.tolist() == want, (alpha, beta)
                # every pair below the widest in-degree: the top ranks of
                # the table hold no pair of the call
                low = [p for p in pairs if degree[p[1]] < max(degree)]
                m, i = (np.array(col) for col in zip(*low))
                got = _step_times_masked(table, m, i, alpha, beta)
                want = [_step_time_masked(net, *p, alpha, beta) for p in low]
                assert got.tolist() == want, (alpha, beta)


def _path_build_peak(n):
    edges = [(i, i + 1, 1.0, 1.0) for i in range(n - 1)]
    tracemalloc.start()
    try:
        InfluenceNetwork(n, edges)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_network_memory_is_linear_in_node_count():
    # the one adjacency is the incoming lists: doubling a path's nodes about
    # doubles the peak of building it (a mask per node would quadruple it)
    assert _path_build_peak(40_000) <= 2.5 * _path_build_peak(20_000)


def test_a_200k_node_path_loads_and_solves(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("200000 199999\n" + "".join(f"{i} {i + 1} 1 1\n"
                                             for i in range(199_999)))
    net = load(str(p))
    assert net.node_count == 200_000 and len(net.edges) == 199_999
    # seeded mid-path, every step has one active neighbour of two: 2.0 each
    inst = DiffusionInstance(net, seed=100_000, z=1_000)
    assert greedy_sequence(inst).total_time == 1998.0
    inst = DiffusionInstance(net, seed=100_000, z=6)
    assert tw_partial_optimal(inst).total_time == 10.0
    # the subset DP's neighbour masks would take about n^2 / 15 bytes: it
    # refuses them before building any
    with pytest.raises(SizeGuardError, match="^subset DP refused: the neighbour "
                       "masks of 200,000 nodes need about 2,548 MiB, over the "
                       "1,024 MiB budget; pass force=True$"):
        dp_optimal(DiffusionInstance(net, seed=100_000, z=2))
    # a star loads too, though its centre neighbours every other node, and
    # its masks fit: only the centre's is wide
    star = InfluenceNetwork(200_000, [(0, i, 1.0, 1.0)
                                      for i in range(1, 200_000)])
    assert dp_optimal(DiffusionInstance(star, seed=0, z=1)).total_time == 0.0
