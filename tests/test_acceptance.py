"""Acceptance suite: eight exit criteria, one pass/fail line each.

Every criterion is exact (zero tolerance); the timed criteria assert their
stated wall-clock budgets. Suites are seeded and deterministic.
"""

import random
import time

import pytest

from coarsetd import (
    NotWithinError,
    QuasiIsometryMap,
    branch_width_sim,
    centred_check,
    centred_check_decomposition,
    induced_subgraph,
    is_bipartite,
    minimum_diameter_bipartite_partition,
    minimum_dominating_set,
    pullback_decomposition,
    qi_constant,
    run_pipeline,
    sim_to_td,
    simval,
    simwidth_pipeline,
    validate_decomposition,
)
from coarsetd.generators import (
    coarsen_decomposition,
    gen_ktree,
    gen_subdivided_ktree,
    random_branch_decomposition,
    random_connected_graph,
)
from oracles import centred_brute, qi_constant_brute, simval_brute

FORWARD_COUNT = 200
PULLBACK_COUNT = 200
ORACLE_COUNT = 500
SIMWIDTH_COUNT = 100


def _stamp(name, ok, detail=""):
    suffix = f" {detail}" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def _forward_suite(layout, seed):
    """k-trees with bag-coarsened decompositions, certified then piped."""
    rng = random.Random(seed)
    start = time.perf_counter()
    runs = []
    for _ in range(FORWARD_COUNT):
        ktree_k = rng.randint(1, 3)
        rounds = rng.randint(0, 2)
        k = rounds + 1
        d = rng.randint(1, 4)
        n = rng.randint(ktree_k + 2, 40)
        inst = gen_ktree(ktree_k, n, rng, layout=layout)
        td = inst.decomposition
        if rounds:
            td = coarsen_decomposition(td, rounds, rng)
        cert = centred_check_decomposition(inst.graph, td, k, d, cap=32)
        assert cert.all_centred is True, "suite instance failed certification"
        report = run_pipeline(inst.graph, td, k, d, check_centred=False, cap=32)
        runs.append((inst.graph, td, k, d, report))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def forward_suite():
    return _forward_suite("random", seed=101)


@pytest.fixture(scope="module")
def path_suite():
    return _forward_suite("path", seed=202)


@pytest.fixture(scope="module")
def simwidth_suite():
    rng = random.Random(606)
    start = time.perf_counter()
    runs = []
    for _ in range(SIMWIDTH_COUNT):
        n = rng.randint(4, 20)
        g = random_connected_graph(n, min(0.4, 2.4 / n), rng)
        bd = random_branch_decomposition(g, rng)
        report = simwidth_pipeline(g, bd, cap=24, simval_cap=64)
        runs.append((g, bd, report))
    return runs, time.perf_counter() - start


def _check_forward_run(k, d, report):
    assert report.width_out <= 2 * k - 1
    ok = validate_decomposition(report.final_graph, report.final_decomposition)
    assert ok.ok
    for run in report.components:
        s1 = run.stage1.measured_q
        s2 = run.stage2.map.measured_q
        composed = run.composed.measured_q
        assert isinstance(composed, int)  # finite by construction
        assert composed <= s2 * (s1 + 2)  # the composition bound q(c+2)


def test_criterion_1_forward_direction(forward_suite):
    runs, suite_time = forward_suite
    start = time.perf_counter()
    assert len(runs) >= FORWARD_COUNT
    for _, _, k, d, report in runs:
        _check_forward_run(k, d, report)
    total = suite_time + (time.perf_counter() - start)
    assert total < 60
    _stamp(
        "1 forward-direction (width <= 2k-1, composed <= q(c+2))",
        True,
        f"[{len(runs)} instances, {total:.1f}s]",
    )


def test_criterion_2_path_shape(path_suite):
    runs, suite_time = path_suite
    start = time.perf_counter()
    assert len(runs) >= FORWARD_COUNT
    for _, td, k, d, report in runs:
        assert td.shape == "path"
        _check_forward_run(k, d, report)
        final = report.final_decomposition
        assert final.shape == "path"
        assert all(final.tree.degree(t) <= 2 for t in final.nodes)
    total = suite_time + (time.perf_counter() - start)
    assert total < 60
    _stamp(
        "2 path-shape (outputs stay paths, width <= 2k-1)",
        True,
        f"[{len(runs)} instances, {total:.1f}s]",
    )


def test_criterion_3_reverse_direction():
    rng = random.Random(303)
    start = time.perf_counter()
    count = 0
    for _ in range(PULLBACK_COUNT):
        ktree_k = rng.randint(1, 2)
        s = rng.randint(1, 2)
        c = s + 1
        n = rng.randint(ktree_k + 2, 10)
        inst = gen_subdivided_ktree(ktree_k, n, s, rng)
        out = pullback_decomposition(
            inst.graph, inst.base_graph, inst.qi_map, inst.base_decomposition, c
        )
        assert validate_decomposition(inst.graph, out).ok
        k = inst.base_decomposition.width
        res = centred_check_decomposition(
            inst.graph, out, k + 1, 3 * c * c, cap=64, mode="exact"
        )
        assert res.all_centred is True
        count += 1
    total = time.perf_counter() - start
    assert count >= PULLBACK_COUNT
    assert total < 60
    _stamp(
        "3 reverse-direction ((k+1, 3c^2)-centred pullbacks)",
        True,
        f"[{count} instances, {total:.1f}s]",
    )


def test_criterion_4_round_trip(forward_suite):
    runs, _ = forward_suite
    count = 0
    for g, _, k, _, report in runs:
        if g.n > 25:
            continue
        c = report.final_map.measured_q
        out = pullback_decomposition(
            g, report.final_graph, report.final_map, report.final_decomposition, c
        )
        assert validate_decomposition(g, out).ok
        res = centred_check_decomposition(g, out, 2 * k, 3 * c * c, cap=32)
        assert res.all_centred is True
        count += 1
    assert count >= 50
    _stamp(
        "4 round-trip (pipeline then pullback is (2k, 3c^2)-centred)",
        True,
        f"[{count} instances]",
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(505)
    qi_checked = centred_checked = simval_checked = 0
    for _ in range(ORACLE_COUNT):
        n = rng.randint(1, 10)
        g = random_connected_graph(n, 0.35, rng)
        h = random_connected_graph(rng.randint(1, 6), 0.4, rng)
        mapping = {v: rng.randint(1, h.n) for v in g.vertices}
        phi = QuasiIsometryMap(g, h, mapping)
        expected = qi_constant_brute(g, h, mapping, 10)
        if expected is None:
            with pytest.raises(NotWithinError):
                qi_constant(g, h, phi, 10)
        else:
            assert qi_constant(g, h, phi, 10) == expected
        qi_checked += 1

        size = rng.randint(1, min(n, 8))
        s = rng.sample(list(g.vertices), size)
        k = rng.randint(1, 4)
        d = rng.randint(0, 4)
        assert centred_check(g, s, k, d).centred == centred_brute(g, s, k, d)
        centred_checked += 1

        a = {v for v in g.vertices if rng.random() < 0.5}
        cut = sum(1 for u, v in g.edges if (u in a) != (v in a))
        if cut <= 10:
            assert simval(g, a) == simval_brute(g, a)
            simval_checked += 1
    assert qi_checked >= ORACLE_COUNT
    assert centred_checked >= ORACLE_COUNT
    assert simval_checked >= 300
    _stamp(
        "5 oracle-equivalence (qi, centred, simval vs brute force)",
        True,
        f"[qi {qi_checked}, centred {centred_checked}, simval {simval_checked}]",
    )


def test_criterion_6_simwidth(simwidth_suite):
    runs, suite_time = simwidth_suite
    start = time.perf_counter()
    assert len(runs) >= SIMWIDTH_COUNT
    for g, bd, report in runs:
        k = branch_width_sim(g, bd, cap=64)
        assert k == report.branch_width
        assert k >= 1
        td = sim_to_td(g, bd)
        for t in td.nodes:
            bag = td.bag(t)
            if not bag:
                continue
            sub, _ = induced_subgraph(g, bag)
            assert len(minimum_dominating_set(sub, cap=24)) <= 6 * k
        assert report.width_out <= 12 * k - 1
    total = suite_time + (time.perf_counter() - start)
    assert total < 120
    _stamp(
        "6 sim-width (bag domination <= 6k, final width <= 12k-1)",
        True,
        f"[{len(runs)} instances, {total:.1f}s]",
    )


def test_criterion_7_inequality_ledger(forward_suite, path_suite):
    checked = 0
    for runs, _ in (forward_suite, path_suite):
        for _, _, _, d, report in runs:
            for run in report.components:
                assert run.stage1.measured_q <= d
                assert run.composed.measured_q <= run.stage2.map.measured_q * (d + 2)
                assert run.claimed_bound == (d + 2) * run.stage2.map.measured_q
                checked += 1
    _stamp(
        "7 inequality-ledger (stage1 <= d, composed <= F*(d+2))",
        True,
        f"[{checked} runs]",
    )


def test_criterion_8_bipartite_partition_contract(
    forward_suite, path_suite, simwidth_suite
):
    comparisons = []
    verified = 0
    suites = [forward_suite[0], path_suite[0]]
    suites.append([(g, None, None, None, rep.pipeline) for g, _, rep in simwidth_suite[0]])
    for runs in suites:
        for entry in runs:
            report = entry[4]
            for run in report.components:
                h = run.stage1.target
                partition = run.stage2.partition
                bip, _ = is_bipartite(partition.quotient)
                assert bip
                for part in partition.parts:
                    sub, _ = induced_subgraph(h, part)
                    assert sub.is_connected()
                verified += 1
                if h.n <= 12 and len(comparisons) < 25:
                    _, best = minimum_diameter_bipartite_partition(h)
                    achieved = run.stage2.partition_diameter
                    assert best <= achieved
                    comparisons.append((achieved, best))
    assert verified > 0 and comparisons
    ratios = [
        a / b if b > 0 else (1.0 if a == 0 else float(a + 1))
        for a, b in comparisons
    ]
    detail = (
        f"[{verified} partitions verified; {len(comparisons)} compared to the "
        f"exact optimum, worst achieved/optimal ratio {max(ratios):.2f}]"
    )
    _stamp("8 bipartite-partition contract", True, detail)
