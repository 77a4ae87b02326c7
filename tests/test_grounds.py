"""Price-driven grounds for the tree DP.

A bag prices only its top members, and a node v's step time reads only
P(v): v's neighbors that can be active before it, those inside the block
nearest the seed that holds v.  So each bag's ground is the bag plus P(v)
of its top members, closed under running intersection.  The grounds must
sit inside the closed neighborhoods, form a tree decomposition on the
bags' tree, and hold each P(v) at v's top bag, on min-fill's decomposition
and on given ones; P(v) must be exactly the neighbors reachable from the
seed without v.  tw_partial_optimal must match dp_optimal at every z, and
random-weight stars, whose closed neighborhoods span the star, solve by
the closed form.
"""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stratdiff import (DiffusionInstance, InfluenceNetwork,  # noqa: E402
                       TreeDecomposition, bag_ground, dp_optimal,
                       infeasible_result, min_fill_decomposition,
                       save_instance, tw_full_optimal, tw_partial_optimal,
                       validate_decomposition)
from stratdiff import treewidth  # noqa: E402
from stratdiff.cli import main  # noqa: E402
from helpers import (blocky_graph, full_instance, random_tree,  # noqa: E402
                     theta2_graph)


@st.composite
def sparse_cases(draw):
    """Trees, theta graphs and block chains of 2-10 nodes with external
    influence and zero-weight directions, a seed, alpha and beta."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from([random_tree, theta2_graph, blocky_graph]))
    n = draw(st.integers(2, 10))
    net = blocky_graph(rng, n) if kind is blocky_graph else kind(n, rng)
    n = net.node_count
    ext = [draw(st.sampled_from([0.0, 0.0, 0.5])) for _ in range(n)]
    zero = draw(st.sampled_from([None, *range(n)]))
    edges = [(u, v, 0.0 if v == zero else wuv, wvu)
             for u, v, wuv, wvu in net.edges]
    return (InfluenceNetwork(n, edges, ext), draw(st.integers(0, n - 1)),
            draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([0.7, 1.0])))


@given(sparse_cases())
def test_tw_partial_matches_dp_at_every_z(case):
    net, seed, alpha, beta = case
    for z in range(1, net.node_count + 1):
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        got, want = tw_partial_optimal(inst), dp_optimal(inst)
        assert got.feasible == want.feasible
        if want.feasible:
            assert abs(got.total_time - want.total_time) <= 1e-9 * max(
                1.0, want.total_time)


def _reachable_without(net, seed, v):
    seen, stack = {seed}, [seed]
    while stack:
        for j in net.neighbors(stack.pop()):
            if j != v and j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


@given(sparse_cases())
def test_grounds_hold_the_prices_and_run_intersected(case):
    net, seed, _, _ = case
    preds = treewidth._preds(net, seed)
    assert not preds[seed]
    for v in range(net.node_count):
        if v != seed:
            assert preds[v] and preds[v] == _reachable_without(
                net, seed, v).intersection(net.neighbors(v))
    # min-fill's decomposition, rooted at each of its bags, and one bag
    td = min_fill_decomposition(net)
    given_tds = [TreeDecomposition(td.bags, td.edges, r)
                 for r in range(len(td.bags))]
    for td in [*given_tds, TreeDecomposition([range(net.node_count)])]:
        grounds = treewidth._grounds(td, preds)
        for bag, ground in zip(td.bags, grounds):
            assert bag <= ground <= bag_ground(net, bag)
        assert validate_decomposition(
            net, TreeDecomposition(grounds, td.edges, td.root)) == []
        for t in td.topdown():
            p = td.parent(t)
            for v in td.bags[t] - (td.bags[p] if p >= 0 else frozenset()):
                assert preds[v] <= grounds[t]


def _star(leaves, rng):
    """Centre 0 and leaves 1-leaves, random weights and external influence."""
    return InfluenceNetwork(
        leaves + 1, [(0, i, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                     for i in range(1, leaves + 1)],
        [rng.uniform(0.0, 1.0) for _ in range(leaves + 1)])


@pytest.mark.parametrize("leaves, seed, z", [
    (100, 1, 5), (100, 1, 50), (100, 1, 101), (50, 0, 25)])
def test_random_stars_solve_by_the_closed_form(leaves, seed, z):
    # the first node (the centre when seeded at a leaf), then the cheapest
    # leaves; every closed neighborhood holding the centre spans the star
    net = _star(leaves, random.Random(3))
    w = {(j, i): wji for i in range(net.node_count)
         for j, wji in net.incoming(i)}
    total = net.total_influence
    want = 0.0 if seed == 0 else total[0] / w[seed, 0]
    steps = sorted(total[i] / w[0, i] for i in range(1, leaves + 1)
                   if i != seed)
    want += sum(steps[:z - 1 - (seed != 0)])
    got = tw_partial_optimal(DiffusionInstance(net, seed, z))
    assert abs(got.total_time - want) <= 1e-12 * want


TWO_PATHS = InfluenceNetwork(6, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0),
                                 (3, 4, 1.0, 1.0), (4, 5, 1.0, 1.0)])


def test_tw_full_on_a_disconnected_network_is_infeasible(monkeypatch,
                                                         tmp_path, capsys):
    # no sequence reaches z = n, and that is known before min-fill runs
    inst = full_instance(TWO_PATHS, seed=4)
    td = min_fill_decomposition(TWO_PATHS)

    def never(net):
        raise AssertionError("min-fill ran on a disconnected network")

    monkeypatch.setattr(treewidth, "min_fill_decomposition", never)
    for given_td in (None, td):
        assert tw_full_optimal(inst, given_td) == infeasible_result(4, "tw-full")
    path = str(tmp_path / "two_paths.json")
    save_instance(inst, path)
    assert main(["solve", path, "--solver", "tw-full"]) == 3
    assert json.loads(capsys.readouterr().out)["infeasible"] is True
