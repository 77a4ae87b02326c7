"""Solving only the ball a z-sequence can reach.

tw_partial_optimal solves the sub-instance induced by the nodes within
z - 1 hops of the seed and replays its sequence on the whole network.  The
ball's totals must equal the unrestricted tree DP's to 1e-12 relative at
every z, and a sparse solve must run on the ball alone.  A bag's ground is
the bag plus the neighbors its top members can follow (see test_grounds),
so it takes a clique, not a hub, to pass GROUND_CAP: a clique the ball
cuts away must no longer trip the cap, and a refusal inside the ball must
name the network's own ids.  A given decomposition is cut to the bags
that add ball nodes to their nearest kept ancestor's.
"""

import random
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

from stratdiff import (DiffusionInstance, InfluenceNetwork,  # noqa: E402
                       SizeGuardError, bag_ground, dp_optimal,
                       infeasible_result, min_fill_decomposition,
                       sequence_time, tw_partial_optimal)
from stratdiff import treewidth  # noqa: E402
from stratdiff.network import _ball  # noqa: E402
from helpers import random_tree, theta2_graph  # noqa: E402


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _unrestricted_tw(inst, td=None):
    """The tree DP on the whole network, as it ran before the ball."""
    return treewidth._tw_solve(inst, td, True, "tw-partial")


@st.composite
def small_instances(draw):
    """Trees and theta graphs of 2-12 nodes, some with external influence
    or zero-weight directions, a random seed, alpha and beta; every
    min-fill ground has at most 8 nodes."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**16)))
    net = (random_tree if draw(st.booleans()) else theta2_graph)(n, rng)
    assume(max(len(bag_ground(net, b))
               for b in min_fill_decomposition(net).bags) <= 8)
    ext = [draw(st.sampled_from([0.0, 0.0, 0.5])) for _ in range(n)]
    zero = draw(st.sampled_from([None, *range(n)]))
    edges = [(u, v, 0.0 if v == zero else wuv, wvu)
             for u, v, wuv, wvu in net.edges]
    return (InfluenceNetwork(n, edges, ext), draw(st.integers(0, n - 1)),
            draw(st.sampled_from([0.5, 1.0])), draw(st.sampled_from([0.7, 1.0])))


@given(small_instances(), st.booleans())
def test_tw_partial_on_the_ball_equals_the_whole_network(case, given_td):
    net, seed, alpha, beta = case
    td = min_fill_decomposition(net) if given_td else None
    for z in range(1, net.node_count + 1):
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        got = tw_partial_optimal(inst, td, force=True)
        want = _unrestricted_tw(inst, td)
        assert _close(got.total_time, want.total_time)
        assert got.solver == "tw-partial" and len(got.sequence) == (
            z if got.feasible else 1)
        if got.feasible:
            assert got == sequence_time(inst, got.sequence, solver="tw-partial")


def test_sparse_tw_partial_solves_a_ball_of_at_most_22_nodes(monkeypatch):
    # a degree-3 tree has at most 1 + 3 + 6 + 12 = 22 nodes within 3 hops
    net = random_tree(300, random.Random(61))
    inst = DiffusionInstance(net, 0, 4)
    want = _unrestricted_tw(inst)
    sizes = []
    solve = treewidth._tw_solve

    def spy(sub, *args):
        sizes.append(sub.network.node_count)
        return solve(sub, *args)

    monkeypatch.setattr(treewidth, "_tw_solve", spy)
    got = tw_partial_optimal(inst)
    assert len(sizes) == 1 and sizes[0] <= 22
    assert _close(got.total_time, want.total_time)


def test_a_hub_beyond_the_ball_no_longer_trips_the_ground_cap():
    # path 0-1-2-3-4, node 4 in a 10-clique on 4-13, 4 hops from the seed:
    # its bag's ground has 10 nodes, over GROUND_CAP, but z = 4 reaches 3 hops
    edges = [(i, i + 1, 1.0, 2.0) for i in range(4)]
    edges += [(u, v, 1.5, 0.5) for u in range(4, 14) for v in range(u + 1, 14)]
    inst = DiffusionInstance(InfluenceNetwork(14, edges), 0, 4)
    with pytest.raises(SizeGuardError):
        treewidth._tw_solve(inst, None, False, "tw-partial")
    got = tw_partial_optimal(inst)
    assert got.sequence == (0, 1, 2, 3)
    assert got.total_time == dp_optimal(inst).total_time


def test_a_refusal_inside_the_ball_names_the_networks_ids():
    # a 10-clique on 8-17 and a path 0-7 hanging off 17; at z = 3 from 8
    # the ball is the clique and node 7, ids 7-17 renumbered 0-10, and the
    # clique's bag has a 10-node ground, over GROUND_CAP
    edges = [(u, v, 1.0, 2.0) for u in range(8, 18) for v in range(u + 1, 18)]
    edges += [(i, i + 1, 1.0, 1.0) for i in range(7)] + [(7, 17, 1.0, 1.0)]
    net = InfluenceNetwork(18, edges)
    inst = DiffusionInstance(net, 8, 3)
    for td in (None, min_fill_decomposition(net)):
        with pytest.raises(SizeGuardError, match="has a ground of 10 nodes"
                           ) as err:
            tw_partial_optimal(inst, td)
        ids = [int(x) for x in re.match(r"bag \[([\d, ]+)\]",
                                        str(err.value)).group(1).split(", ")]
        assert 17 in ids and all(8 <= v <= 17 for v in ids)
        got = tw_partial_optimal(inst, td, force=True)
        assert _close(got.total_time, dp_optimal(inst).total_time)


def test_a_ball_with_fewer_than_z_nodes_is_infeasible():
    # on a disconnected network the seed's component can hold fewer than z
    # nodes however far the ball reaches: here two 35-node paths
    edges = [(i, i + 1, 1.0, 1.0) for i in [*range(34), *range(35, 69)]]
    inst = DiffusionInstance(InfluenceNetwork(70, edges), 0, 36)
    assert tw_partial_optimal(inst) == infeasible_result(0, "tw-partial")


@pytest.mark.parametrize("make", [lambda rng: random_tree(200, rng),
                                  lambda rng: theta2_graph(120, rng)],
                         ids=["tree", "sparse"])
def test_a_given_decomposition_keeps_only_bags_that_add_to_the_ball(
        make, monkeypatch):
    # the totals with and without a given min-fill decomposition agree; its
    # root bag holds the last-eliminated vertex: seeding there keeps the
    # root, a random seed mostly cuts it off and the cut is re-rooted
    solve = treewidth._tw_solve
    cut = []

    def spy(sub, td, *args):
        if td is not None:
            # every bag kept meets the ball and adds to its parent's
            cut.append(all(b and (t == td.root or not b <= td.bags[td.parent(t)])
                           for t, b in enumerate(td.bags)))
        return solve(sub, td, *args)

    monkeypatch.setattr(treewidth, "_tw_solve", spy)
    roots_outside = set()
    for s in range(6):
        rng = random.Random(s)
        net = make(rng)
        td = min_fill_decomposition(net)
        if max(len(bag_ground(net, b)) for b in td.bags) > treewidth.GROUND_CAP:
            continue
        for seed in (min(td.bags[td.root]), rng.randrange(net.node_count)):
            for z in range(2, 7):
                inst = DiffusionInstance(net, seed, z, 0.5 + 0.5 * (z % 2))
                got = tw_partial_optimal(inst, td)
                want = tw_partial_optimal(inst)
                assert abs(got.total_time - want.total_time) <= 1e-9 * max(
                    1.0, want.total_time)
                roots_outside.add(td.bags[td.root].isdisjoint(_ball(inst)))
    assert roots_outside == {False, True} and cut and all(cut)
