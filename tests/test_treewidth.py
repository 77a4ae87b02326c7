import math
import random

import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, NetworkFormatError,
                       SizeGuardError, TreeDecomposition, bag_ground,
                       dp_optimal, load_td, min_fill_decomposition, save_td,
                       sequence_time, tw_full_optimal, tw_partial_optimal,
                       validate_decomposition)
from stratdiff import treewidth
from stratdiff.network import _step_time_masked
from helpers import (full_instance, path_net, random_tree, star_net,
                     theta2_graph)


def path_td():
    return TreeDecomposition(bags=[{0, 1}, {1, 2}, {2, 3}],
                             edges=[(0, 1), (1, 2)], root=0)


def test_validate_good_path_decomposition():
    net = path_net(4)
    td = path_td()
    assert validate_decomposition(net, td) == []
    assert td.width == 1


TRIANGLE = InfluenceNetwork(3, [(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)])


@pytest.mark.parametrize("net, td, want", [
    (path_net(4), TreeDecomposition([{0, 1}, {1, 2}, {2, 3}],
                                    [(0, 1), (1, 2)], root=3),
     ["root 3 out of range"]),
    (path_net(4), TreeDecomposition([{0, 1}, {1, 2}, {2, 3, 7}],
                                    [(0, 1), (1, 2)]),
     ["bag 2 contains unknown node 7"]),
    (path_net(4), TreeDecomposition([{0, 1}, {1, 2}, {2, 3}],
                                    [(0, 1), (1, 5)]),
     ["tree edge (1, 5) out of range"]),
    (path_net(3), TreeDecomposition([{0, 1}, {1, 2}], []),
     ["tree needs 1 edges, has 0", "tree edges do not connect all bags"]),
    # right edge count, but the root's part is a tree and the rest a cycle
    (path_net(3), TreeDecomposition([{0, 1}, {1, 2}, {2}, {2}, {2}],
                                    [(0, 1), (2, 3), (3, 4), (4, 2)]),
     ["tree edges do not connect all bags"]),
    (path_net(4), TreeDecomposition([{0, 1}, {1, 2}, {2, 3}, {3}],
                                    [(0, 1), (1, 2), (2, 0)]),
     ["tree edges contain a cycle"]),
    (InfluenceNetwork(3, [(0, 1, 1, 1)]), TreeDecomposition([{0, 1}]),
     ["node 2 appears in no bag"]),
    (TRIANGLE, TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)]),
     ["edge (0, 2) is covered by no bag"]),
    (path_net(4), TreeDecomposition([{0, 1}, {2, 3}, {1, 2}],
                                    [(0, 1), (1, 2)]),
     ["bags containing node 1 are not connected in the tree"]),
], ids=["root-range", "unknown-node", "edge-range", "edge-count",
        "disconnected", "cycle", "no-bag", "uncovered-edge",
        "running-intersection"])
def test_validate_reports(net, td, want):
    assert validate_decomposition(net, td) == want


def test_orientation_and_children_order():
    td = TreeDecomposition(bags=[{0}, {1}, {2}, {3}],
                           edges=[(1, 0), (2, 1), (3, 1)], root=1)
    assert td.parent(1) == -1
    assert td.children(1) == (0, 2, 3)
    assert td.topdown()[0] == 1


def test_min_fill_on_tree_cycle_clique():
    tree = random_tree(8, random.Random(0))
    td = min_fill_decomposition(tree)
    assert td.width == 1
    assert validate_decomposition(tree, td) == []

    cycle = InfluenceNetwork(5, [(i, (i + 1) % 5, 1, 1) for i in range(5)])
    td = min_fill_decomposition(cycle)
    assert td.width == 2
    assert validate_decomposition(cycle, td) == []

    k4 = InfluenceNetwork(4, [(u, v, 1, 1)
                              for u in range(4) for v in range(u + 1, 4)])
    td = min_fill_decomposition(k4)
    assert td.width == 3
    assert validate_decomposition(k4, td) == []


def test_min_fill_valid_on_random_graphs():
    for s in range(10):
        rng = random.Random(s)
        net = theta2_graph(rng.randrange(4, 12), rng)
        td = min_fill_decomposition(net)
        assert validate_decomposition(net, td) == []


def _admissible(bag, inst, kids=()):
    """Admissible orderings of the bag's ground, as the tree DP sees them."""
    ground = treewidth._checked_ground(inst.network, bag, False)
    return tuple(g for g, _, _, _ in
                 treewidth._orderings(inst, bag, frozenset(bag), ground, kids))


def test_enumerate_admissible_seed_leads():
    net = path_net(2)
    inst = full_instance(net)
    got = _admissible({0, 1}, inst)
    assert got == ((0, 1),)


def test_enumerate_admissible_needs_preceding_neighbor():
    net = path_net(3)
    # bag {2} has ground {1, 2}; 2 must come after its neighbor
    got = _admissible({2}, full_instance(net))
    assert got == ((1, 2),)
    # at z = 2 one of the three nodes stays inactive, so an ordering of
    # the ground {1, 2} holds one or both of its nodes
    part = _admissible({2}, DiffusionInstance(net, 0, 2))
    assert (1,) in part and () not in part and (1, 2) in part
    assert (2,) not in part and (2, 1) not in part


def test_orderings_obey_the_rule_at_every_z():
    # each ordering could be the restriction of a z-sequence to its ground,
    # and comes priced as a replay of its top members prices it
    for s in range(40):
        rng = random.Random(500 + s)
        n = rng.randrange(2, 8)
        net = (random_tree(n, rng, lo=0, hi=2, integer=True) if s % 2
               else theta2_graph(n, rng))
        seed = rng.randrange(n)
        td = min_fill_decomposition(net)
        for z in range(1, n + 1):
            inst = DiffusionInstance(net, seed, z, rng.choice((1.0, 0.5)))
            for t, bag in enumerate(td.bags):
                p = td.parent(t)
                top = bag - td.bags[p] if p >= 0 else bag
                ground = bag_ground(net, bag)
                g = len(ground)
                for gamma, _, count, total in treewidth._orderings(
                        inst, bag, top, ground):
                    assert g - (n - z) <= len(gamma) <= min(g, z)
                    if seed in ground:
                        assert gamma[0] == seed
                    mask, want = 0, 0.0
                    for x in gamma:
                        if x in top and x != seed:
                            want += _step_time_masked(net, mask, x,
                                                      inst.alpha, inst.beta)
                        mask |= 1 << x
                    assert count == len(top.intersection(gamma))
                    assert total == want < math.inf


def test_orderings_stop_at_z_nodes():
    # on a 20-node path seeded at one end, no bag orders more than z nodes
    net = path_net(20)
    inst = DiffusionInstance(net, 0, 3)
    for bag in min_fill_decomposition(net).bags:
        got = _admissible(bag, inst)
        assert max(map(len, got), default=0) <= 3


def test_enumerate_admissible_child_filter():
    net = path_net(3)
    inst = DiffusionInstance(net, 0, 2)
    # the kid's shared ground is {1, 2}; it insists 1 activates and 2
    # stays unactivated
    got = _admissible({1}, inst, kids=[(frozenset({1, 2}), {(1,)})])
    # ground of bag {1} is {0,1,2}; every surviving ordering must agree:
    # 1 right after 0, 2 never activated
    assert got == ((0, 1),)


def test_enumerate_admissible_cap():
    net = InfluenceNetwork(11, [(0, i, 1, 1) for i in range(1, 11)])
    with pytest.raises(SizeGuardError):
        treewidth._checked_ground(net, {0}, False)


def test_td_json_roundtrip(tmp_path):
    td = path_td()
    p = str(tmp_path / "dec.json")
    save_td(td, p)
    back = load_td(p)
    assert back == td


def test_td_pace_roundtrip(tmp_path):
    td = TreeDecomposition(bags=[{0, 1}, {1, 2}, {2, 3}],
                           edges=[(0, 1), (1, 2)], root=1)
    p = str(tmp_path / "dec.td")
    save_td(td, p)
    back = load_td(p)
    # text format reorders so the root is bag 1
    assert back.root == 0
    assert back.bags[0] == td.bags[1]
    assert sorted(sorted(b) for b in back.bags) == \
        sorted(sorted(b) for b in td.bags)
    net = path_net(4)
    assert validate_decomposition(net, back) == []


@pytest.mark.parametrize("name, text, where", [
    ("dec.json", '{"root": 0, "bags": [[0, "a"]], "edges": []}', "dec.json"),
    ("dec.json", '{"bags": [[0, 1], [1, 2]], "edges": [[0, 1.5]]}', "dec.json"),
    ("dec.td", "s td x 2 2\nb 1 1 2\n", "dec.td:1"),
    ("dec.td", "s td 1 2 2\nb\n", "dec.td:2"),
    ("dec.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2 2\n", "dec.td:4"),
    ("dec.td", "s td 1 2 3\nb 1 1 2\nb 5 2 3\n", "dec.td:3"),
    ("dec.td", "b 1 1 2\ns td 1 2 2\n", "dec.td:1"),
    ("dec.td", "s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n", "dec.td:3"),
    ("dec.td", "s td 1 2 2\nb 1 1 2\ns td 2 2 2\n", "dec.td:3"),
    ("dec.td", "s td 2 2 3\nb 1 1 2\n1 2\n", "dec.td"),
])
def test_load_td_refuses_malformed(tmp_path, name, text, where):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(NetworkFormatError) as exc:
        load_td(str(p))
    assert str(exc.value).startswith(f"{tmp_path / where}: ")


def test_load_td_keeps_explicit_empty_bag(tmp_path):
    p = tmp_path / "dec.td"
    p.write_text("s td 2 2 3\nb 1 1 2\nb 2\n1 2\n")
    assert load_td(str(p)).bags == (frozenset({0, 1}), frozenset())


def test_decomposition_node_ids_are_integers():
    with pytest.raises(TypeError):
        TreeDecomposition(bags=[{0, 1.0}])
    with pytest.raises(TypeError):
        TreeDecomposition(bags=[{0}, {0}], edges=[(0, "1")])


def test_tw_full_path_matches_dp():
    net = path_net(5)
    inst = full_instance(net)
    td = min_fill_decomposition(net)
    r = tw_full_optimal(inst, td)
    d = dp_optimal(inst)
    assert abs(r.total_time - d.total_time) <= 1e-9
    assert sequence_time(inst, r.sequence).total_time == r.total_time


def test_tw_full_default_decomposition():
    net = path_net(5)
    inst = full_instance(net)
    assert abs(tw_full_optimal(inst).total_time
               - dp_optimal(inst).total_time) <= 1e-9


def test_tw_full_single_bag():
    net = InfluenceNetwork(3, [(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)])
    td = TreeDecomposition(bags=[{0, 1, 2}], edges=[], root=0)
    inst = full_instance(net)
    assert abs(tw_full_optimal(inst, td).total_time
               - dp_optimal(inst).total_time) <= 1e-9


def star_of_paths():
    """Centre 0 with the paths 0-1-2, 0-3-4 and 0-5-6; random weights."""
    rng = random.Random(5)
    return InfluenceNetwork(7, [(u, v, rng.uniform(0.5, 2), rng.uniform(0.5, 2))
                                for u, v in [(0, 1), (1, 2), (0, 3), (3, 4),
                                             (0, 5), (5, 6)]])


# The centre bag {0} is bag 3, the root, and has three children.
STAR_TD = TreeDecomposition(
    bags=[{0, 1}, {1, 2}, {0, 3}, {0}, {3, 4}, {0, 5}, {5, 6}],
    edges=[(3, 0), (0, 1), (3, 2), (2, 4), (3, 5), (5, 6)], root=3)


@pytest.mark.parametrize("td, seed", [
    (STAR_TD, 0),
    (STAR_TD, 2),
    (TreeDecomposition(STAR_TD.bags, STAR_TD.edges, root=4), 6),
    (TreeDecomposition(bags=[range(7)]), 0),
    (TreeDecomposition(bags=[range(7)]), 4),
], ids=["star-seed-centre", "star-seed-leaf", "star-leaf-root",
        "one-bag-centre", "one-bag-leaf"])
def test_tw_hand_built_decompositions_every_z(td, seed):
    net = star_of_paths()
    assert validate_decomposition(net, td) == []
    for z in range(1, net.node_count + 1):
        inst = DiffusionInstance(net, seed, z)
        results = [tw_partial_optimal(inst, td)]
        if z == net.node_count:
            results.append(tw_full_optimal(inst, td))
        want = dp_optimal(inst).total_time
        for r in results:
            assert len(r.sequence) == z
            assert abs(r.total_time - want) <= 1e-9
            assert r == sequence_time(inst, r.sequence, solver=r.solver)


def test_tw_full_requires_full_target():
    net = path_net(4)
    with pytest.raises(ValueError):
        tw_full_optimal(DiffusionInstance(net, 0, 2), path_td())


def test_tw_rejects_bad_decomposition():
    net = InfluenceNetwork(3, [(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)])
    td = TreeDecomposition(bags=[{0, 1}, {1, 2}], edges=[(0, 1)])
    with pytest.raises(ValueError):
        tw_full_optimal(full_instance(net), td)


def test_tw_cap_guard():
    net = InfluenceNetwork(11, [(0, i, 1, 1) for i in range(1, 11)])
    inst = full_instance(net)
    with pytest.raises(SizeGuardError):
        tw_full_optimal(inst, min_fill_decomposition(net))


def test_tw_full_on_seeded_trees():
    for s in range(25):
        rng = random.Random(100 + s)
        n = rng.randrange(2, 11)
        net = random_tree(n, rng)
        seed = rng.randrange(n)
        inst = full_instance(net, seed=seed)
        td = min_fill_decomposition(net)
        r = tw_full_optimal(inst, td)
        d = dp_optimal(inst)
        assert abs(r.total_time - d.total_time) <= 1e-9
        assert abs(sequence_time(inst, r.sequence).total_time
                   - r.total_time) <= 1e-9


def test_tw_partial_all_z_on_trees():
    for s in range(8):
        rng = random.Random(200 + s)
        n = rng.randrange(2, 9)
        net = random_tree(n, rng)
        seed = rng.randrange(n)
        td = min_fill_decomposition(net)
        for z in range(1, n + 1):
            inst = DiffusionInstance(net, seed, z)
            r = tw_partial_optimal(inst, td)
            d = dp_optimal(inst)
            assert abs(r.total_time - d.total_time) <= 1e-9
            assert len(r.sequence) == z
            assert abs(sequence_time(inst, r.sequence).total_time
                       - r.total_time) <= 1e-9


def test_tw_partial_on_theta2_graphs():
    done = 0
    for s in range(100):
        rng = random.Random(300 + s)
        n = rng.randrange(4, 9)
        net = theta2_graph(n, rng)
        td = min_fill_decomposition(net)
        if td.width > 2 or \
                max(len(bag_ground(net, b)) for b in td.bags) > 7:
            continue
        done += 1
        seed = rng.randrange(n)
        for z in (1, n // 2 + 1, n):
            inst = DiffusionInstance(net, seed, z)
            r = tw_partial_optimal(inst, td)
            d = dp_optimal(inst)
            assert abs(r.total_time - d.total_time) <= 1e-9
        if done == 8:
            break
    assert done == 8


def test_tw_child_order_only_breaks_ties():
    net = random_tree(9, random.Random(77))
    inst = full_instance(net)
    td = min_fill_decomposition(net)
    flipped = TreeDecomposition(bags=td.bags,
                                edges=tuple(reversed(td.edges)), root=td.root)
    a = tw_full_optimal(inst, td)
    b = tw_full_optimal(inst, flipped)
    assert abs(a.total_time - b.total_time) <= 1e-9


def test_tw_partial_infeasible():
    # weight into node 2 is zero: it can never activate
    net = InfluenceNetwork(3, [(0, 1, 1, 1), (1, 2, 0, 1)])
    inst = DiffusionInstance(net, 0, 3)
    r = tw_partial_optimal(inst, min_fill_decomposition(net))
    assert not r.feasible

    d = dp_optimal(inst)
    assert not d.feasible


def test_tw_deterministic():
    net = random_tree(8, random.Random(4))
    inst = full_instance(net)
    td = min_fill_decomposition(net)
    assert tw_full_optimal(inst, td) == tw_full_optimal(inst, td)
    inst2 = DiffusionInstance(net, 0, 5)
    assert tw_partial_optimal(inst2, td) == tw_partial_optimal(inst2, td)


CYCLE6 = InfluenceNetwork(6, [(i, (i + 1) % 6, 1.0, 1.0) for i in range(6)])


@pytest.mark.parametrize("net, seed, want", [
    (star_net(4), 0, (0, 1, 2, 3, 4)),
    (star_net(4), 2, (2, 0, 1, 3, 4)),
    (path_net(6), 2, (2, 1, 0, 3, 4, 5)),
    (CYCLE6, 0, (0, 1, 2, 3, 4, 5)),
], ids=["star-centre", "star-leaf", "path", "cycle"])
def test_tw_tie_breaking_is_pinned(net, seed, want):
    # Unit weights tie many orderings; each solve must return the same one
    # of them, and the z-prefixes of the full order at every partial z.
    n = net.node_count
    assert tw_full_optimal(DiffusionInstance(net, seed, n)).sequence == want
    for z in range(1, n + 1):
        got = tw_partial_optimal(DiffusionInstance(net, seed, z)).sequence
        assert got == want[:z]
