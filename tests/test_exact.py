import math
import random
import tracemalloc

import numpy as np
import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, SizeGuardError,
                       brute_force_optimal, dp_optimal, greedy_sequence,
                       majority_sequence, make_gk, make_np_hardness,
                       random_connected, sequence_time, SetCoverInstance)
from stratdiff import exact
from helpers import (cycle_chord_block, dp_kernel_result, full_instance,
                     path_net, random_weighted_net, reference_lower_bounds,
                     star_net)

INF = math.inf


def test_brute_force_path():
    res = brute_force_optimal(full_instance(path_net(3)))
    assert res.sequence == (0, 1, 2)
    assert res.total_time == 3.0


def test_brute_force_star():
    res = brute_force_optimal(full_instance(star_net(2)))
    assert res.total_time == 2.0
    assert res.sequence == (0, 1, 2)


def test_brute_force_z1():
    res = brute_force_optimal(DiffusionInstance(path_net(3), 0, 1))
    assert res.sequence == (0,) and res.total_time == 0.0


def test_brute_force_lex_tie_break():
    # both leaves cost 1; the smaller id must come first
    res = brute_force_optimal(full_instance(star_net(3)))
    assert res.sequence == (0, 1, 2, 3)


def test_brute_force_guard():
    net = path_net(11)
    with pytest.raises(SizeGuardError):
        brute_force_optimal(full_instance(net))
    res = brute_force_optimal(full_instance(net), force=True)
    assert res.total_time == 2.0 * 9 + 1.0


def test_brute_force_guard_counts_sequences():
    # P(24, 4) = 255,024 sequences: admitted at 25 nodes
    inst = DiffusionInstance(random_connected(25, 0.3, rng_seed=25), 0, 5)
    b = brute_force_optimal(inst)
    assert abs(b.total_time - dp_optimal(inst).total_time) <= 1e-9
    # P(11, 8) = 6,652,800 sequences: refused at 12 nodes
    inst = DiffusionInstance(random_connected(12, 0.3, rng_seed=12), 0, 9)
    with pytest.raises(SizeGuardError, match="above 362880"):
        brute_force_optimal(inst)


def test_dp_memory_guard(monkeypatch):
    # the guard counts states, not nodes: a path holds one per layer
    assert dp_optimal(full_instance(path_net(29))).feasible
    # at alpha = 0 every state ties with greedy, so the bound prunes nothing
    inst = full_instance(random_connected(18, 0.3, rng_seed=18), alpha=0.0)
    want = dp_optimal(inst)
    monkeypatch.setattr(exact, "DP_MEMORY_BUDGET", 1 << 20)
    for solve in (dp_optimal, exact._dp_dict):
        with pytest.raises(SizeGuardError, match=r"layer \d+: .* MiB"):
            solve(inst)
    assert dp_optimal(inst, force=True) == want


def test_dp_rejects_invalid_instance():
    with pytest.raises(ValueError):
        dp_optimal(DiffusionInstance(path_net(3), seed=5, z=2))
    with pytest.raises(ValueError):
        dp_optimal(DiffusionInstance(path_net(3), seed=0, z=2, beta=0.0))


def test_dp_matches_brute_on_random_weighted():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(2, 7)
        net = random_weighted_net(n, rng)
        seed = rng.randrange(n)
        z = rng.randrange(1, n + 1)
        alpha = rng.choice([1.0, 0.5, 0.0])
        beta = rng.choice([1.0, 0.6])
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        b = brute_force_optimal(inst)
        d = dp_optimal(inst)
        assert abs(b.total_time - d.total_time) <= 1e-9
        # reported steps re-evaluate to the reported total
        if d.feasible:
            r = sequence_time(inst, d.sequence)
            assert r.total_time == d.total_time


def test_dp_z_monotone():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randrange(3, 8)
        net = random_weighted_net(n, rng)
        prev = 0.0
        for z in range(1, n + 1):
            t = dp_optimal(DiffusionInstance(net, 0, z)).total_time
            assert t >= prev - 1e-12
            prev = t


def test_dp_never_beaten_by_heuristics():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(3, 8)
        net = random_weighted_net(n, rng)
        inst = full_instance(net)
        d = dp_optimal(inst).total_time
        for h in (greedy_sequence(inst), majority_sequence(inst)):
            assert d <= h.total_time + 1e-9


def test_dp_on_gk2_and_tiny_gadget():
    assert dp_optimal(make_gk(2)).total_time <= 8.0 + 1e-12
    inst, t_star = make_np_hardness(SetCoverInstance(2, [{0, 1}]), 1)
    d = dp_optimal(inst)
    b = brute_force_optimal(inst)
    assert d.total_time == pytest.approx(5.0, abs=1e-9)
    assert b.total_time == pytest.approx(t_star, abs=1e-9)


def test_infeasible_when_target_unreachable():
    # second component can never activate
    inst, _ = make_np_hardness(SetCoverInstance(2, [{0}]), 1)
    assert not dp_optimal(inst).feasible
    assert not brute_force_optimal(inst).feasible


def test_determinism():
    rng = random.Random(1)
    net = random_weighted_net(7, rng)
    inst = DiffusionInstance(net, 0, 5)
    a = dp_optimal(inst)
    b = dp_optimal(inst)
    assert a == b
    assert brute_force_optimal(inst) == brute_force_optimal(inst)


@pytest.mark.parametrize("n, seed, alpha, beta, weights", [
    (12, 0, 0.0, 0.5, dict(integer_weights=True, weight_range=(0, 2))),
    (13, 5, 0.5, 1.0, {}),
    (14, 3, 0.0, 1.0, {}),
    (15, 7, 1.0, 0.6, {}),
    # alpha = 0: every state's time plus its bound equals the greedy total
    (12, 2, 0.0, 0.7, {}),
    (13, 4, 0.0, 0.7, {}),
    (14, 9, 0.0, 0.7, {}),
    # integer weights in {1, 2}: many tied times
    (13, 0, 1.0, 1.0, dict(integer_weights=True, weight_range=(1, 2))),
    (14, 2, 0.5, 0.7, dict(integer_weights=True, weight_range=(1, 2))),
])
def test_dp_kernels_agree_mid_size(n, seed, alpha, beta, weights):
    net = random_connected(n, 0.3, rng_seed=n, **weights)
    for z in range(1, n + 1):
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        want = dp_kernel_result(exact._dp_dict, inst)
        assert dp_kernel_result(exact._dp_layers, inst) == want, z
        assert dp_optimal(inst) == want, z


def test_dp_kernels_agree_when_unreachable():
    # two 6-node paths with no edge between them: z > 6 is infeasible
    net = InfluenceNetwork(12, [(i, i + 1, 1.0, 1.0) for i in range(11)
                                if i != 5])
    for z in range(1, 13):
        inst = DiffusionInstance(net, 2, z)
        want = dp_kernel_result(exact._dp_dict, inst)
        assert dp_kernel_result(exact._dp_layers, inst) == want, z
        assert dp_optimal(inst) == want, z
        assert want.feasible == (z <= 6)


def _with_dead_node(n):
    """random_connected(n) with external influence on every third node and
    no influence at all on node n - 1, which no order can activate."""
    dead = n - 1
    edges = [(u, v, 0.0 if v == dead else a, 0.0 if u == dead else b)
             for u, v, a, b in random_connected(n, 0.3, rng_seed=n).edges]
    ext = [0.5 if i % 3 == 0 else 0.0 for i in range(dead)] + [0.0]
    return InfluenceNetwork(n, edges, ext)


_GK3 = make_gk(3)


@pytest.mark.parametrize("net, seed, alpha, beta", [
    # external influence, and a node whose cheapest step time is inf
    (_with_dead_node(13), 1, 0.5, 1.0),
    (_with_dead_node(14), 0, 1.0, 0.7),
    # G(3): greedy is far from optimal, so the bound is loose
    (_GK3.network, _GK3.seed, _GK3.alpha, _GK3.beta),
], ids=["dead-13", "dead-14", "gk3"])
def test_dp_kernels_agree_on_weak_bounds(net, seed, alpha, beta):
    for z in range(1, net.node_count + 1):
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        want = dp_kernel_result(exact._dp_dict, inst)
        assert dp_kernel_result(exact._dp_layers, inst) == want, z


def _chain_block(n):
    """A block as decompose hands it to the DP: external influence on some
    nodes, one zero-weight direction (1 -> 0), and node n - 1 influenced by
    no one, so no order activates it."""
    rng = random.Random(n)
    dead = n - 1
    edges = [(u, v, 0.0 if v == dead else a, 0.0 if u == dead else b)
             for u, v, a, b in cycle_chord_block(n, rng).edges]
    edges[0] = edges[0][:3] + (0.0,)
    ext = [rng.choice([0.0, 0.0, 0.5]) for _ in range(dead)] + [0.0]
    return InfluenceNetwork(n, edges, ext)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
def test_dp_kernels_agree_on_chain_blocks(n, alpha):
    net = _chain_block(n)
    assert net.total_influence[n - 1] == 0.0 and net.edges[0][3] == 0.0
    for z in range(1, n + 1):
        inst = DiffusionInstance(net, 0, z, alpha)
        want = dp_kernel_result(exact._dp_dict, inst)
        assert dp_kernel_result(exact._dp_layers, inst) == want, z
        assert want.feasible == (z < n)


@pytest.mark.parametrize("inst", [
    # alpha = 0: every step takes 1 / beta, so every new mask's candidates
    # tie and the largest node must win (the middle layers hold up to
    # 12,870 states, in several chunks)
    full_instance(random_connected(17, 0.3, rng_seed=17), alpha=0.0,
                  beta=0.7),
    # a weak bound keeps several chunks' worth of states, and a mask's time
    # falls in a later chunk than the one that first set its node
    full_instance(random_connected(16, 0.3, rng_seed=2), alpha=0.2),
], ids=["ties", "later-chunk-wins"])
def test_dp_kernels_agree_across_chunks(inst):
    assert exact._dp_layers(inst) == exact._dp_dict(inst)


@pytest.mark.parametrize("inst", [
    # alpha = 0: every state sits exactly at the greedy total
    DiffusionInstance(random_connected(14, 0.3, rng_seed=14), 3, 14, 0.0, 0.7),
    DiffusionInstance(random_connected(14, 0.3, rng_seed=14), 3, 7, 0.0, 0.7),
    # greedy cannot activate node 13, so there is no bound to prune with
    full_instance(_with_dead_node(14)),
], ids=["alpha0-full", "alpha0-half", "greedy-infeasible"])
def test_dp_bound_prunes_nothing_it_cannot(monkeypatch, inst):
    held = []
    check = exact._check_layer

    def spy(layer, candidates, kept, bytes_per_state, force):
        held.append(kept)
        check(layer, candidates, kept, bytes_per_state, force)

    monkeypatch.setattr(exact, "_check_layer", spy)
    want = exact._dp_dict(inst)
    dict_held = held.copy()
    held.clear()
    assert exact._dp_layers(inst) == want
    assert held == dict_held


@pytest.mark.parametrize("n", [12, 18, 30, 62])
def test_lower_bounds_match_the_per_node_loop(n):
    # minc with ties and infs; masks of every size, each summed for every z
    rng = random.Random(n)
    minc = [rng.choice([1.0, 1.25, INF]) if rng.random() < 0.3
            else rng.uniform(1.0, 4.0) for _ in range(n)]
    cheap = np.array(sorted(range(n), key=minc.__getitem__))
    bits, col = (1 << cheap)[:, None], np.array(minc)[cheap, None]
    for layer in range(1, n + 1):
        masks = np.array([sum(1 << i for i in rng.sample(range(n), layer))
                          for _ in range(40)], dtype=np.int64)
        for z in range(layer, n + 1):
            want = reference_lower_bounds(masks, minc, z - layer)
            for step in (7, 40):  # several chunks, and one
                got = exact._lower_bounds(masks, bits, col, z - layer, step)
                assert got.tobytes() == want.tobytes(), (layer, z, step)


def _kept_per_layer(monkeypatch, inst):
    """_dp_layers' answer, and per layer the pairs it priced and the states
    it kept (read off the guard's running total, so all but the last
    layer's)."""
    seen = []
    check = exact._check_layer

    def spy(layer, candidates, kept, bytes_per_state, force):
        seen.append((candidates, kept))
        check(layer, candidates, kept, bytes_per_state, force)

    with monkeypatch.context() as m:
        m.setattr(exact, "_check_layer", spy)
        seq = exact._dp_layers(inst)
    kept = [b - a for (_, a), (_, b) in zip(seen, seen[1:])]
    return seq, [c for c, _ in seen], kept


# the kernel-agreement instances, read off that test's parameters
_MID_SIZE = test_dp_kernels_agree_mid_size.pytestmark[0].args[1]


@pytest.mark.parametrize("n, seed, alpha, beta, weights", _MID_SIZE)
def test_dp_beam_keeps_no_more_states_than_greedy_alone(monkeypatch, n, seed,
                                                        alpha, beta, weights):
    # the baseline drops the beam's incumbent from UB: its replay reads inf
    net = random_connected(n, 0.3, rng_seed=n, **weights)
    totals = [0, 0]
    for z in range(2, n + 1):
        inst = DiffusionInstance(net, seed, z, alpha, beta)
        seq, priced, kept = _kept_per_layer(monkeypatch, inst)
        with monkeypatch.context() as m:
            m.setattr(exact, "sequence_time",
                      lambda inst, seq: exact.infeasible_result(0, "beam"))
            base = _kept_per_layer(monkeypatch, inst)
        assert seq == base[0], z
        assert len(priced) == len(base[1]) and len(kept) == len(base[2])
        assert all(a <= b for a, b in zip(priced + kept, base[1] + base[2]))
        totals[0] += sum(kept)
        totals[1] += sum(base[2])
    # at alpha = 0 every state ties with greedy; elsewhere the beam prunes
    assert totals[0] < totals[1] or alpha == 0.0


def test_dp_beam_sequence_is_a_real_incumbent(monkeypatch):
    # the sequence the beam pass replays is a z-sequence from the seed, and
    # its replay total is at least the optimum
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def instances(draw):
        n = draw(st.integers(2, 16))
        weights = draw(st.sampled_from(
            [{}, dict(integer_weights=True, weight_range=(0, 2))]))
        net = random_connected(n, draw(st.sampled_from([0.2, 0.3, 0.5])),
                               rng_seed=draw(st.integers(0, 2**31)),
                               **weights)
        return DiffusionInstance(net, draw(st.integers(0, n - 1)),
                                 draw(st.integers(1, n)),
                                 draw(st.sampled_from([0.0, 0.5, 1.0])),
                                 draw(st.sampled_from([0.7, 1.0])))

    @settings(max_examples=80)
    @given(instances())
    def check(inst):
        beam = []

        def spy(inst, seq):
            beam.append(tuple(seq))
            return sequence_time(inst, seq)

        with monkeypatch.context() as m:
            m.setattr(exact, "sequence_time", spy)
            exact._dp_layers(inst)
        best = dp_optimal(inst)
        assert len(beam) <= 1
        if beam:
            seq = beam[0]
            assert len(seq) == inst.z and seq[0] == inst.seed
            assert len(set(seq)) == inst.z
            assert set(seq) <= set(range(inst.network.node_count))
            replay = sequence_time(inst, seq)
            assert replay.feasible
            assert replay.total_time >= best.total_time
        else:  # below three layers it fails only where the full pass does
            assert inst.z > 2 or not best.feasible

    check()


@pytest.mark.parametrize("n, z", [(12, 12), (40, 8)])
def test_dp_builds_one_pricing_table_per_solve(monkeypatch, n, z):
    # the beam pass and the full pass price from the same table
    built, used = [], []
    in_table, price = exact._in_table, exact._step_times_masked

    def build(net):
        built.append(in_table(net))
        return built[-1]

    def spy(table, *args):
        used.append(table)
        return price(table, *args)

    monkeypatch.setattr(exact, "_in_table", build)
    monkeypatch.setattr(exact, "_step_times_masked", spy)
    inst = DiffusionInstance(random_connected(n, 0.3, rng_seed=n), 0, z)
    assert dp_optimal(inst).feasible
    assert len(built) == 1
    assert len(used) >= 2 * (z - 1)  # every layer of both passes
    assert all(table is built[0] for table in used)


def test_dp_bound_solves_past_the_unbounded_guard():
    # unbounded, layer 11 alone would need over 1 GiB and be refused
    inst = DiffusionInstance(random_connected(28, 0.3, rng_seed=28), 0, 14)
    res = dp_optimal(inst)
    assert res.feasible
    assert res == sequence_time(inst, res.sequence, solver="dp")
    assert res.total_time <= greedy_sequence(inst).total_time


def _refuse(instance):
    raise AssertionError("wrong DP kernel for this node count")


@pytest.mark.parametrize("n, kernel", [(11, "_dp_dict"), (12, "_dp_layers"),
                                       (62, "_dp_layers"), (70, "_dp_dict")])
def test_dp_kernel_follows_node_count(monkeypatch, n, kernel):
    # int64 masks cannot hold more than 62 nodes' bits safely
    other = "_dp_layers" if kernel == "_dp_dict" else "_dp_dict"
    monkeypatch.setattr(exact, other, _refuse)
    res = dp_optimal(full_instance(path_net(n)))
    assert res.total_time == 2.0 * (n - 2) + 1.0
    assert res.sequence == tuple(range(n))


def test_dp_dict_guard_charges_each_mask_its_width():
    # seeded at the centre, layer 2 holds 199,999 masks of up to 200,000
    # bits: refused before any is built
    star = InfluenceNetwork(200_000, [(0, i, 1.0, 1.0)
                                      for i in range(1, 200_000)])
    with pytest.raises(SizeGuardError, match="^subset DP refused at layer 2: "
                       "199,999 candidate states plus 1 kept need about "
                       "2,557 MiB"):
        dp_optimal(DiffusionInstance(star, seed=0, z=2))
    # a path's frontier is two nodes, however wide its masks
    inst = DiffusionInstance(path_net(60_000), seed=30_000, z=5)
    assert dp_optimal(inst).total_time == 8.0


def test_dp_memory_follows_reachable_states():
    # a path has one reachable state per layer; a dense 2^28 table would not fit
    inst = full_instance(path_net(28))
    tracemalloc.start()
    try:
        dp_optimal(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("inst", [
    # the bound prunes most states; its pass sets each layer's peak
    DiffusionInstance(random_connected(28, 0.3, rng_seed=28), 0, 14),
    # at alpha = 0 every state ties with greedy and nothing is pruned
    full_instance(random_connected(18, 0.3, rng_seed=18), alpha=0.0),
    # layers of a few thousand states: the chunk temporaries set the peak
    DiffusionInstance(random_connected(22, 0.3, rng_seed=22), 0, 11),
], ids=["pruned", "unpruned", "pruned-small"])
def test_dp_memory_estimate_tracks_the_peak(monkeypatch, inst):
    need = []
    check = exact._check_layer

    def spy(layer, candidates, kept, bytes_per_state, force):
        need.append(bytes_per_state * (candidates + kept))
        check(layer, candidates, kept, bytes_per_state, force)

    monkeypatch.setattr(exact, "_check_layer", spy)
    tracemalloc.start()
    try:
        exact._dp_layers(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.5 <= max(need) / peak <= 2.0
