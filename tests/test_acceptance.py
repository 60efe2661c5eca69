"""Acceptance gate: ten criteria, each printed as one PASS/FAIL line.

Every numbered test here guards one promised behavior at its stated
tolerance and budget.  Shared session fixtures build the expensive
artifacts (the 100-witness batch, the sixteen-point decomposition, the
k = 180 subdivision, the theta-free control batch) exactly once; later
criteria re-examine the same objects.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import record_criterion
from oracles import (
    check_branch_distance_lemma,
    oracle_distance,
    oracle_grid_gamma_max,
    oracle_min_theta_total,
    separates,
)
from thetagap.analysis import check_chain, gamma, gap_bracket, is_negative_type
from thetagap.cli import main as cli_main
from thetagap.core import (
    EdgePoint,
    Vertex,
    distance,
    distance_matrix,
)
from thetagap.families import (
    FamilySpec,
    from_spec,
    make_random_cactus,
    make_random_connected,
    make_theta,
)
from thetagap.l1cut import CutDecomposition, is_l1_embeddable, k4_explicit_decomposition
from thetagap.theta import contains_theta, minimal_theta
from thetagap.witness import construct_witness, omega_from_witness, subdivision_witness

TWELFTH = Fraction(1, 12)

for _n in range(1, 11):
    record_criterion(_n, "FAIL", "not run")


def criterion(number):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                record_criterion(number, "FAIL", f"{type(exc).__name__}: {exc}")
                raise
            record_criterion(number, "PASS", detail)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def witness_batch():
    """100 random theta-containing multigraphs with their witnesses."""
    batch = []
    seed = 0
    started = time.perf_counter()
    while len(batch) < 100:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        m = rng.randint(n + 1, min(12, n + 4))
        g = make_random_connected(n, m, seed=seed)
        assert len(g.vertices) <= 8 and len(g.edges) <= 12
        assert all(1 <= e.length <= 2 for e in g.edges)
        if not contains_theta(g):
            continue
        batch.append((seed, g, construct_witness(g)))
    return batch, time.perf_counter() - started


@pytest.fixture(scope="session")
def k4_result():
    started = time.perf_counter()
    g, dec = k4_explicit_decomposition()
    lp = is_l1_embeddable(dec.metric, max_points=16)
    return g, dec, lp, time.perf_counter() - started


@pytest.fixture(scope="session")
def k23_subdivision():
    g0 = from_spec(FamilySpec(tag="complete_bipartite", sizes=(2, 3)))
    started = time.perf_counter()
    sw = subdivision_witness(g0, 180)
    neg = is_negative_type(sw.metric_rounded)
    return sw, neg, time.perf_counter() - started


def _sample_points(g, rng, count):
    pts = []
    for _ in range(count):
        if rng.random() < 0.5:
            pts.append(Vertex(rng.choice(g.vertices)))
        else:
            e = rng.choice(g.edges)
            pts.append(EdgePoint(e.id, e.length * Fraction(rng.randint(0, 12), 12)))
    return pts


@pytest.fixture(scope="session")
def theta_free_batch():
    """50 theta-free graphs with one random point-sample metric each."""
    batch = []
    seed = 0
    while len(batch) < 50:
        seed += 1
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            n = rng.randint(2, 8)
            g = make_random_connected(n, n - 1, seed=seed)  # a random tree
        elif kind == 1:
            g = from_spec(FamilySpec(tag="cycle", sizes=(rng.randint(3, 8),)))
        else:
            g = make_random_cactus(rng.randint(1, 5), seed=seed)
        assert not contains_theta(g)
        try:
            m = distance_matrix(g, _sample_points(g, rng, rng.randint(2, 8)))
        except ValueError:
            continue  # coincident sample points under distinct labels
        batch.append((seed, g, m))
    return batch


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion(1)
def test_criterion_01_unit_theta_witness_exact(tmp_path, capsys):
    graph_file = tmp_path / "theta.json"
    assert cli_main(["make", "theta", "--lengths", "1,1,1", "--out", str(graph_file)]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    code = cli_main(["witness", str(graph_file)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["gap"] == "1/12"
    assert sorted(cert["b_labels"]) == ["u", "v", "v"]
    assert sorted(cert["r_labels"]) == ["e1@1/12", "e2@11/12", "e3@11/12"]
    assert elapsed < 1.0
    return f"gap exactly 1/12, B/R as promised, {elapsed:.3f}s < 1s"


@criterion(2)
def test_criterion_02_witness_gap_on_100_random_graphs(witness_batch):
    batch, elapsed = witness_batch
    assert len(batch) == 100
    for seed, _, w in batch:
        assert w.gap >= TWELFTH, f"seed {seed}: gap {w.gap}"
    assert elapsed < 60.0
    return f"100/100 witnesses with gap >= 1/12, built in {elapsed:.1f}s < 60s"


@criterion(3)
def test_criterion_03_weighting_energy_is_gap_over_36(witness_batch):
    batch, _ = witness_batch
    floor = Fraction(1, 432)
    for seed, _, w in batch:
        omega = omega_from_witness(w)
        value = gamma(w.metric, omega)
        assert value == w.gap / 36, f"seed {seed}"
        assert value >= floor, f"seed {seed}: {value}"
    return "gamma(omega) = gap/36 >= 1/432 on all 100 witnesses"


@criterion(4)
def test_criterion_04_unit_theta_bracket_upper_at_most_one():
    g = make_theta(1, 1, 1)
    bound = Fraction(1) + Fraction(1, 10**6)
    rng = random.Random(0)
    worst = None
    for count in [2, 3, 4, 5, 6, 7, 8, 6, 4, 3]:
        try:
            m = distance_matrix(g, _sample_points(g, rng, count))
        except ValueError:
            continue  # coincident points drawn; sample again via next round
        bracket = gap_bracket(m, starts=8, iters=80, seed=0)
        assert bracket.upper <= bound, f"upper {bracket.upper} on {m.labels}"
        worst = max(worst, bracket.upper) if worst is not None else bracket.upper
    assert worst is not None
    return f"bracket upper <= 1 + 1e-6 on random samples (worst {float(worst):.2e})"


@criterion(5)
def test_criterion_05_sixteen_point_decomposition(k4_result):
    _, dec, lp, elapsed = k4_result
    m = dec.metric
    checked = 0
    for i, j in itertools.combinations(range(16), 2):
        crossing = sum(1 for cut, _ in dec.entries if separates(cut, i, j))
        assert crossing == 2 * m.distance(i, j)
        checked += 1
    assert checked == 120
    assert isinstance(lp, CutDecomposition)
    assert elapsed < 120.0
    return f"12 cuts sum to 2d on all 120 pairs; LP feasible; {elapsed:.1f}s < 120s"


@criterion(6)
def test_criterion_06_subdivision_witness_k180(k23_subdivision):
    sw, neg, elapsed = k23_subdivision
    assert sw.gap_continuous >= Fraction(181, 12)
    assert sw.gap_rounded > 0
    assert not neg.verdict
    violation = neg.violation
    assert violation.total == 0 and violation.total_mass == 1
    assert gamma(sw.metric_rounded, violation) > 0
    assert elapsed < 60.0
    return (
        f"continuous gap {sw.gap_continuous} >= 181/12, rounded gap "
        f"{sw.gap_rounded} > 0, rounded metric refuted; {elapsed:.1f}s < 60s"
    )


@criterion(7)
def test_criterion_07_theta_free_controls(theta_free_batch):
    assert len(theta_free_batch) == 50
    for seed, _, m in theta_free_batch:
        assert is_negative_type(m).verdict, f"seed {seed}"
        assert isinstance(is_l1_embeddable(m), CutDecomposition), f"seed {seed}"
    return "50/50 theta-free samples are negative type and l1-embeddable"


@criterion(8)
def test_criterion_08_oracle_equivalences():
    # distances against exhaustive routing
    pairs_checked = 0
    seed = 0
    while pairs_checked < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        g = make_random_connected(n, rng.randint(n - 1, min(7, n + 3)), seed=seed)
        for p, q in zip(_sample_points(g, rng, 3), _sample_points(g, rng, 3)):
            assert distance(g, p, q) == oracle_distance(g, p, q)
            pairs_checked += 1

    # minimal thetas against exhaustive path-triple enumeration
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 5)
        g = make_random_connected(n, rng.randint(n - 1, 8), seed=seed)
        t = minimal_theta(g)
        expected = oracle_min_theta_total(g)
        if expected is None:
            assert t is None, f"seed {seed}"
        else:
            assert t is not None and t.total_length == expected, f"seed {seed}"

    # brackets against the exhaustive denominator grid
    metrics = 0
    seed = 0
    while metrics < 20:
        seed += 1
        rng = random.Random(seed)
        g = make_random_connected(5 + seed % 3, 7 + seed % 4, seed=seed)
        try:
            m = distance_matrix(g, _sample_points(g, rng, 4))
        except ValueError:
            continue
        grid_max = oracle_grid_gamma_max(m, max_denom=24)
        bracket = gap_bracket(m, starts=48, iters=500, seed=0)
        assert bracket.upper >= grid_max, f"seed {seed}: unsound upper"
        assert bracket.lower >= grid_max, f"seed {seed}: search below grid"
        metrics += 1
    return "engine == oracle on 200 distances, 100 theta totals, 20 brackets"


@criterion(9)
def test_criterion_09_witness_identities_and_branch_lemma(witness_batch):
    batch, _ = witness_batch
    sixth = Fraction(1, 6)
    for seed, g, w in batch:
        nine = list(w.points_x + w.points_y + w.points_z)
        m9 = distance_matrix(g, nine)
        X, Y, Z = 0, 3, 6
        # one-step identities: moving one slot raises the distance by 1/12
        for i in (0, 1):
            assert m9.distance(X + i, Y + i) == m9.distance(X + i, Y + i + 1) + TWELFTH
            assert m9.distance(X + i, Z + i) == m9.distance(X + i, Z + i + 1) + TWELFTH
        # the middle cross distance decomposes through the best outer pair
        outer = min(
            m9.distance(Y, Z),
            m9.distance(Y, Z + 2),
            m9.distance(Y + 2, Z),
            m9.distance(Y + 2, Z + 2),
        )
        assert m9.distance(Y + 1, Z + 1) == sixth + outer, f"seed {seed}"
        # the chosen column pair satisfies the exchange inequality
        c = w.index - 1
        lhs = m9.distance(Y + c, Z + c) + m9.distance(Y + c + 1, Z + c + 1)
        rhs = m9.distance(Y + c, Z + c + 1) + m9.distance(Y + c + 1, Z + c)
        assert lhs >= rhs, f"seed {seed}"
        report = check_branch_distance_lemma(g, w.theta, samples=20, seed=seed)
        assert report.passed, f"seed {seed}: {report.violations}"
    return "distance identities and 20-sample branch agreement on all 100 witnesses"


@criterion(10)
def test_criterion_10_chain_consistency(
    witness_batch, k4_result, k23_subdivision, theta_free_batch
):
    checked = 0
    batch, _ = witness_batch
    for _, _, w in batch:
        assert check_chain(w.metric).ok
        checked += 1
    _, dec, _, _ = k4_result
    assert check_chain(dec.metric, max_points=16).ok
    checked += 1
    sw, _, _ = k23_subdivision
    assert check_chain(sw.metric_continuous).ok
    assert check_chain(sw.metric_rounded).ok
    checked += 2
    for _, _, m in theta_free_batch:
        assert check_chain(m).ok
        checked += 1
    return f"no implication-chain violations across {checked} metrics"
