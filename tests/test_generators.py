import math
import random
import tracemalloc

import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, SequenceError,
                       SetCoverInstance, SizeGuardError, binarize_weights,
                       brute_force_set_cover, dp_optimal, extract_cover,
                       inapprox_scale, make_gk, make_inapprox,
                       make_np_hardness, random_connected, sequence_time)


SC = SetCoverInstance(3, [{0, 1}, {1, 2}, {2}])


def test_set_cover_instance_normalizes():
    sc = SetCoverInstance(2, [[0, 1], [1]])
    assert sc.sets == (frozenset({0, 1}), frozenset({1}))


def test_set_cover_instance_rejections():
    with pytest.raises(ValueError):
        SetCoverInstance(0, [{0}])
    with pytest.raises(ValueError):
        SetCoverInstance(2, [])
    with pytest.raises(ValueError):
        SetCoverInstance(2, [set()])
    with pytest.raises(ValueError):
        SetCoverInstance(2, [{0, 2}])
    with pytest.raises(ValueError, match=r"^universe size 2\.7 is not an integer$"):
        SetCoverInstance(2.7, [{0.5}, {1}])
    with pytest.raises(ValueError, match=r"^element 0\.5 is not an integer$"):
        SetCoverInstance(2, [{0.5}, {1}])
    # the generators' sizes are integers too; 1.5 gave z = 4.5, t* = 11.5
    with pytest.raises(ValueError, match=r"^k 1\.5 is not an integer$"):
        make_np_hardness(SetCoverInstance(2, [{0}, {1}]), 1.5)
    with pytest.raises(ValueError, match=r"^k 2\.5 is not an integer$"):
        make_gk(2.5)
    with pytest.raises(ValueError, match=r"^n 2\.5 is not an integer$"):
        random_connected(2.5)


def test_brute_force_set_cover():
    assert brute_force_set_cover(SC) == 2
    assert brute_force_set_cover(SetCoverInstance(3, [{0, 1, 2}, {0}])) == 1
    assert brute_force_set_cover(SetCoverInstance(3, [{0}, {1}])) is None
    with pytest.raises(ValueError):
        brute_force_set_cover(SetCoverInstance(1, [{0}] * 21))


def test_gk_structure():
    for k in (1, 2, 4):
        inst = make_gk(k)
        net = inst.network
        kk = k * k
        assert net.node_count == kk + k
        assert len(net.edges) == k ** 3
        assert inst.seed == 0 and inst.z == net.node_count
        assert net.total_influence[0] == float(kk)
        for a in range(1, kk + 1):
            assert net.total_influence[a] == float(k)
        for b in range(kk + 1, kk + k):
            assert net.total_influence[b] == float(kk)
    with pytest.raises(ValueError):
        make_gk(0)


def test_np_hardness_layout():
    inst, t_star = make_np_hardness(SC, 2)
    net = inst.network
    # seed 0, sets 1..3, blockers 4..6 and 7..9, elements 10..12
    assert net.node_count == 13
    assert inst.z == 2 + 3 + 1
    assert t_star == 2 * (9.0 + 1.0) + 9.0
    for j in range(3):
        assert net.total_influence[1 + j] == 10.0
        # blocker pairs feed only each other, so neither ever activates
        assert net.total_influence[4 + j] == 1.0
        assert net.total_influence[7 + j] == 1.0
        assert net.neighbors(7 + j) == (4 + j,)
    assert net.total_influence[10] == 1.0  # element 0 in one set
    assert net.total_influence[11] == 2.0  # element 1 in two sets
    # a set node costs exactly |U||S| + 1 right after the seed
    two = DiffusionInstance(net, 0, 2)
    assert sequence_time(two, (0, 1)).step_times[1] == 10.0
    with pytest.raises(ValueError):
        make_np_hardness(SC, 0)
    with pytest.raises(ValueError):
        make_np_hardness(SC, 4)


def test_np_hardness_decision():
    # minimum cover of SC is 2
    yes, t_yes = make_np_hardness(SC, 2)
    r = dp_optimal(yes)
    assert r.feasible and r.total_time <= t_yes + 1e-9
    assert r.total_time == 24.0

    no, t_no = make_np_hardness(SC, 1)
    r = dp_optimal(no)
    # short on budget: any sequence needs an extra set node over the target
    assert (not r.feasible) or r.total_time > t_no + 1e-9
    assert r.total_time == 22.0 and t_no == 19.0


def test_np_hardness_binary_weights():
    sc = SetCoverInstance(2, [{0, 1}])
    plain, t_p = make_np_hardness(sc, 1)
    binary, t_b = make_np_hardness(sc, 1, binary_weights=True)
    assert t_p == t_b == 5.0
    assert plain.network.node_count == 6
    # one two-path per unit of blocker weight
    assert binary.network.node_count == 6 + 2
    assert all(w in (0.0, 1.0)
               for _, _, wuv, wvu in binary.network.edges
               for w in (wuv, wvu))
    assert dp_optimal(plain).total_time == 5.0
    assert dp_optimal(binary).total_time == 5.0


def test_np_hardness_gadget_edges():
    # seed 0, set node 1, blockers 2 and 3, element 4; relay 5 when binary
    sc = SetCoverInstance(1, [{0}])
    plain, _ = make_np_hardness(sc, 1)
    assert plain.network.node_count == 5
    assert plain.network.edges == ((0, 1, 1.0, 1.0), (1, 2, 0.0, 1.0),
                                   (1, 4, 1.0, 0.0), (2, 3, 1.0, 1.0))
    binary, _ = make_np_hardness(sc, 1, binary_weights=True)
    assert binary.network.node_count == 6
    assert binary.network.edges == ((0, 1, 1.0, 1.0), (1, 4, 1.0, 0.0),
                                    (1, 5, 0.0, 1.0), (2, 3, 1.0, 1.0),
                                    (2, 5, 1.0, 0.0))


def test_inapprox_gadget_edges():
    # seed 0, set node 1 costing 3, blockers 2 and 3, element copies 4 and 5
    inst = make_inapprox(SetCoverInstance(1, [{0}]))
    assert (inst.network.node_count, inst.z) == (6, 3)
    assert inst.network.edges == ((0, 1, 1.0, 1.0), (1, 2, 0.0, 2.0),
                                  (1, 4, 1.0, 0.0), (1, 5, 1.0, 0.0),
                                  (2, 3, 1.0, 1.0))


def test_inapprox_structure():
    sc = SetCoverInstance(2, [{0, 1}, {0}])
    a = inapprox_scale(sc, 1.0)
    assert a == 7.0 * 4.0  # z * |S|^(lam+1)
    inst = make_inapprox(sc, 1.0)
    net = inst.network
    assert inst.z == 2 * 3 + 1
    assert net.node_count == 1 + 6 + 6
    # activating a set node right after the seed costs exactly the scale
    two = DiffusionInstance(net, 0, 2)
    assert sequence_time(two, (0, 1)).step_times[1] == a
    assert sequence_time(two, (0, 2)).step_times[1] == a


@pytest.mark.parametrize("lam, cost", [(-5, "0.25"), (math.nan, "nan"),
                                       (math.inf, "inf"), (1e308, "inf")])
def test_inapprox_refuses_a_lam_whose_cost_is_not_at_least_one(lam, cost):
    # the refusal names lam, not the blocker edge whose weight cost - 1 it
    # would have given
    with pytest.raises(ValueError) as exc:
        make_inapprox(SetCoverInstance(1, [[0], [0]]), lam)
    assert str(exc.value) == (f"lam {lam} gives a set-node cost of {cost}; "
                              "it must be a finite number >= 1")


def test_inapprox_cover_extraction():
    sc = SetCoverInstance(2, [{0, 1}, {0}])
    inst = make_inapprox(sc, 1.0)
    r = dp_optimal(inst)
    assert r.total_time == 35.0
    cover = extract_cover(sc, r.sequence)
    assert cover == frozenset({0})
    m = brute_force_set_cover(sc)
    a = inapprox_scale(sc, 1.0)
    assert m * a - 1e-9 <= r.total_time <= m * a * (1.0 + 1.0 / 2.0) + 1e-9


def test_extract_cover_rejections():
    sc = SetCoverInstance(2, [{0, 1}, {0}])
    good = (0, 1, 7, 8, 10, 11, 12)
    assert extract_cover(sc, good) == frozenset({0})
    with pytest.raises(SequenceError):
        extract_cover(sc, good[:-1])  # wrong length
    with pytest.raises(SequenceError):
        extract_cover(sc, (1, 0) + good[2:])  # seed not first
    with pytest.raises(SequenceError):
        extract_cover(sc, good[:-1] + (10,))  # repeated node
    with pytest.raises(SequenceError):
        extract_cover(sc, (0, 3, 7, 8, 10, 11, 12))  # blocker node
    with pytest.raises(SequenceError, match="1.5"):
        extract_cover(sc, (0, 1.5, 7, 8, 10, 11, 12))  # not an integer id
    with pytest.raises(SequenceError):
        extract_cover(sc, (0, 7, 1, 8, 10, 11, 12))  # copy before its set
    with pytest.raises(SequenceError):
        extract_cover(sc, good[:-1] + (99,))  # out of range


def test_extract_cover_accepts_exactly_the_feasible_orders():
    sc = SetCoverInstance(2, [{0, 1}, {0}])
    inst = make_inapprox(sc)
    n = inst.network.node_count
    rng = random.Random(5)
    accepted = 0
    for trial in range(400):
        # every other order skips the blockers 3..6, so many are feasible
        pool = [v for v in range(1, n) if trial % 2 or not 3 <= v <= 6]
        seq = (0,) + tuple(rng.sample(pool, inst.z - 1))
        res = sequence_time(inst, seq)
        if res.feasible:
            assert extract_cover(sc, seq) == {v - 1 for v in seq if 1 <= v <= 2}
            accepted += 1
        else:
            with pytest.raises(SequenceError):
                extract_cover(sc, seq)
    assert 20 <= accepted <= 380


def test_binarize_counts():
    net = InfluenceNetwork(2, [(0, 1, 2.0, 1.0)])
    out, offset = binarize_weights(net)
    assert offset == 3.0
    assert out.node_count == 5
    assert len(out.edges) == 6
    assert out.total_influence[1] == 2.0
    assert out.total_influence[0] == 1.0


def test_binarize_preserves_optimum():
    net = InfluenceNetwork(3, [(0, 1, 2.0, 1.0), (1, 2, 1.0, 3.0)])
    out, offset = binarize_weights(net)
    a = dp_optimal(DiffusionInstance(net, 0, 3))
    b = dp_optimal(DiffusionInstance(out, 0, out.node_count))
    assert abs(b.total_time - (a.total_time + offset)) <= 1e-9


def test_binarize_keeps_external_influence():
    net = InfluenceNetwork(2, [(0, 1, 1.0, 0.0)], external_influence=(1.0, 2.0))
    out, offset = binarize_weights(net)
    assert offset == 1.0
    assert out.external_influence[:2] == (1.0, 2.0)
    assert out.total_influence[1] == 3.0


def test_binarize_zero_direction():
    net = InfluenceNetwork(2, [(0, 1, 1.0, 0.0)])
    out, offset = binarize_weights(net)
    assert offset == 1.0 and out.node_count == 3


def test_binarize_rejects_fractional():
    with pytest.raises(ValueError):
        binarize_weights(InfluenceNetwork(2, [(0, 1, 1.5, 1.0)]))


def test_binarize_refuses_relays_past_the_budget_before_building_them():
    # 10^7 units of weight would take about 8 GiB of relays
    net = InfluenceNetwork(2, [(0, 1, 1e7, 0.0)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=r"^binarize_weights refused: "
                           r"10,000,000 relay nodes need about 8,030 MiB, "
                           r"over the 1,024 MiB budget$"):
            binarize_weights(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_connected():
    a = random_connected(9, edge_prob=0.3, rng_seed=5)
    b = random_connected(9, edge_prob=0.3, rng_seed=5)
    assert a == b
    assert a != random_connected(9, edge_prob=0.3, rng_seed=6)
    # spanning tree keeps it connected
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in a.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 9
    assert len(a.edges) >= 8


def test_random_connected_integer_weights():
    net = random_connected(6, weight_range=(1, 3), rng_seed=2,
                           integer_weights=True)
    for _, _, wuv, wvu in net.edges:
        assert wuv == int(wuv) and 1 <= wuv <= 3
        assert wvu == int(wvu) and 1 <= wvu <= 3


def test_random_connected_edge_cases():
    assert random_connected(1).node_count == 1
    assert len(random_connected(5, edge_prob=0.0, rng_seed=1).edges) == 4
    with pytest.raises(ValueError):
        random_connected(0)
