"""Chain extraction, stationary analysis, mixing, divergences."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi import markov
from mdi.markov import (
    AnalysisError,
    ConvergenceError,
    check_distribution,
    check_stochastic,
    empirical_distribution,
    kl_divergence,
    max_abs_diff,
    mixing_times,
    state_visits,
    stationary,
    stationary_fit,
    to_stochastic,
)
from mdi.quantizer import QuantizerConfig
from mdi.trainer import EpochLog, TransitionModel, count_transitions


def grid2() -> QuantizerConfig:
    return QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=2, n_w=2)


def random_chain(n: int, rng) -> np.ndarray:
    P = rng.uniform(0.01, 1.0, size=(n, n))
    return P / P.sum(axis=1, keepdims=True)


def test_check_stochastic_validates():
    check_stochastic(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(AnalysisError):
        check_stochastic(np.ones((2, 3)))
    with pytest.raises(AnalysisError):
        check_stochastic(np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(AnalysisError):
        check_stochastic(np.array([[0.6, 0.5], [0.5, 0.5]]))
    with pytest.raises(AnalysisError):
        check_stochastic(np.array([[np.nan, 1.0], [0.5, 0.5]]))
    for bad in (np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]]), [[1.0, 0], [0, True]]):
        with pytest.raises(ValueError, match="P must be real numbers"):
            check_stochastic(bad)


def test_check_distribution_validates():
    check_distribution(np.array([0.25, 0.75]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([[0.5, 0.5]]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([0.6, 0.6]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([-0.1, 1.1]))
    for bad in ([True, False], ["0.5", "0.5"], [0, True]):
        with pytest.raises(ValueError, match="p must be real numbers"):
            check_distribution(bad)


def counted_model(pairs) -> TransitionModel:
    counts = np.zeros((2, 2, 2, 2), dtype=np.uint64)
    for (a, b), c in pairs.items():
        counts[a // 2, a % 2, b // 2, b % 2] = c
    return TransitionModel(grid2(), counts)


def test_to_stochastic_gives_empty_rows_uniform():
    model = counted_model({(0, 1): 3, (0, 2): 1, (1, 0): 2})
    P = to_stochastic(model)
    assert np.allclose(P[0], [0.0, 0.75, 0.25, 0.0])
    assert np.allclose(P[1], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(P[2], 0.25)
    assert np.allclose(P[3], 0.25)
    assert np.array_equal(to_stochastic(model, empty_rows="uniform"), P)
    # The one rule: no other value is accepted, the old "self-loop" included.
    for policy in ("self-loop", "drop"):
        with pytest.raises(ValueError, match="empty_rows must be 'uniform'"):
            to_stochastic(model, empty_rows=policy)


def test_two_closed_classes_fail_and_name_both_sizes():
    blocks = np.array(
        [
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.0, 0.5],
        ]
    )
    # State 4 leads into the second class, so it is in neither.
    for analysis in (stationary, lambda P: mixing_times(P, [1e-3])):
        with pytest.raises(AnalysisError, match="2 closed classes, of 2, 2 states"):
            analysis(blocks[:4, :4])
        with pytest.raises(AnalysisError, match="2 closed classes, of 2, 2 states"):
            analysis(blocks)


def test_transient_states_get_exactly_zero_and_the_class_its_own_pi():
    block = np.array([[0.3, 0.7], [0.6, 0.4]])
    P = np.array(
        [
            [0.1, 0.4, 0.5, 0.0],
            [0.2, 0.0, 0.0, 0.8],
            [0.0, 0.0, 0.3, 0.7],
            [0.0, 0.0, 0.6, 0.4],
        ]
    )
    pi = stationary(P)
    assert pi[:2].tolist() == [0.0, 0.0]
    assert np.array_equal(pi[2:], stationary(block))
    assert pi[2:] == pytest.approx([6 / 13, 7 / 13], abs=1e-12)
    reports = mixing_times(P, [1e-3, 1e-7])
    for e, report in reports.items():
        assert report.per_start[:2].tolist() == [-1, -1]
        own = mixing_times(block, [e])[e]
        assert np.array_equal(report.per_start[2:], own.per_start)
        assert report.t_mix == own.t_mix


def test_two_state_stationary_closed_form():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = stationary(P)
    assert abs(pi[0] - 5.0 / 6.0) < 1e-9
    assert abs(pi[1] - 1.0 / 6.0) < 1e-9


def test_stationary_matches_linear_solve_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(3, 30))
        P = random_chain(n, rng)
        pi = stationary(P)
        A = np.vstack([P.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.abs(pi - ref).max() < 1e-6


def test_stationary_of_symmetric_chains_is_uniform():
    # The identity has one closed class per state, so no unique pi.
    with pytest.raises(AnalysisError, match="4 closed classes, of 1, 1, 1, 1 states"):
        stationary(np.eye(4))
    doubly = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.5, 0.2, 0.3],
            [0.3, 0.5, 0.2],
        ]
    )
    assert np.allclose(stationary(doubly), 1.0 / 3.0, atol=1e-9)


def test_stationary_raises_when_iteration_budget_exhausted(monkeypatch):
    # Asymmetric and glacially mixing, so the uniform start is far from
    # stationary and each step barely moves.
    monkeypatch.setattr(markov, "MAX_STEPS", 10)
    P = np.array([[1.0 - 1e-7, 1e-7], [2e-7, 1.0 - 2e-7]])
    with pytest.raises(ConvergenceError, match="did not converge in 10 steps"):
        stationary(P)


def test_mixing_raises_when_the_sweep_exhausts_its_steps(monkeypatch):
    # Symmetric, so pi is uniform at step 0, but glacially mixing: the
    # one-hot starts are still far from it when the steps run out.
    monkeypatch.setattr(markov, "MAX_STEPS", 50)
    P = np.array([[1.0 - 1e-7, 1e-7], [1e-7, 1.0 - 1e-7]])
    assert stationary(P).tolist() == [0.5, 0.5]
    with pytest.raises(ConvergenceError, match="did not resolve at epsilon=0.001 within 50 steps"):
        mixing_times(P, [1e-3])


def test_rank_one_chain_mixes_in_one_step():
    q = np.array([0.1, 0.2, 0.3, 0.4])
    P = np.tile(q, (4, 1))
    report = mixing_times(P, [1e-3])[1e-3]
    assert report.t_mix == 1
    assert report.per_start.shape == (4,)


def test_identity_chain_mixes_in_zero_steps():
    # One state is its own class, at its stationary distribution from t = 0.
    assert mixing_times(np.eye(1), [1e-3])[1e-3].t_mix == 0
    # A larger identity has one closed class per state, so no unique pi
    # to mix towards.
    with pytest.raises(AnalysisError, match="5 closed classes, of 1, 1, 1, 1, 1 states"):
        mixing_times(np.eye(5), [1e-3])


def test_mixing_time_thresholds_are_ordered():
    rng = np.random.default_rng(3)
    P = random_chain(12, rng)
    reports = mixing_times(P, [1e-3, 1e-5, 1e-7])
    t3 = reports[1e-3].t_mix
    t5 = reports[1e-5].t_mix
    t7 = reports[1e-7].t_mix
    assert t3 <= t5 <= t7
    assert reports[1e-3].t_mix == reports[1e-3].per_start.max()
    single = mixing_times(P, [1e-5])[1e-5]
    assert single.t_mix == t5


def test_mixing_never_resolves_on_a_periodic_chain(monkeypatch):
    monkeypatch.setattr(markov, "MAX_STEPS", 200)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(AnalysisError, match="period 2"):
        mixing_times(flip, [1e-3])
    with pytest.raises(AnalysisError, match="period 2"):
        stationary(flip)
    # A 6-cycle with a chord from state 0 to state 4: cycles of 6 and 3.
    P = np.roll(np.eye(6), 1, axis=1)
    P[0] = 0.0
    P[0, [1, 4]] = 0.5
    with pytest.raises(AnalysisError, match="period 3"):
        mixing_times(P, [1e-3])
    # One self-loop breaks the period.
    P[5] = 0.0
    P[5, [0, 5]] = 0.5
    assert mixing_times(P, [1e-3])[1e-3].t_mix > 0


def two_state(p: float, q: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [q, 1.0 - q]])


@pytest.mark.parametrize("p, q", [(0.1, 0.3), (0.7, 0.6), (0.05, 0.02), (0.9, 0.2)])
def test_two_state_tv_profile_is_the_closed_form(p, q):
    # d(t) = max(p, q) / (p + q) * |1 - p - q|**t, and from each start
    # the other state's stationary mass times |1 - p - q|**t. A
    # threshold just above d(t) resolves at t, just below it at t + 1,
    # while d(t) stays far above pi's own error of about 1e-12.
    lam = abs(1.0 - p - q)
    starts = np.array([p, q]) / (p + q)
    for t in range(40):
        d = starts * lam**t
        if d.min() < 1e-5:
            break
        for scale, at in ((1 + 1e-6, t), (1 - 1e-6, t + 1)):
            for x in (0, 1):
                e = float(d[x] * scale)
                assert mixing_times(two_state(p, q), [e])[e].per_start[x] == at
            e = float(d.max() * scale)
            assert mixing_times(two_state(p, q), [e])[e].t_mix == at


@st.composite
def ergodic_chains(draw):
    """A random chain on n states made irreducible by a cycle through
    them all and aperiodic by a self-loop; other entries may be 0."""
    n = draw(st.integers(2, 8))
    entries = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0])
    weights = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    weights[np.arange(n), (np.arange(n) + 1) % n] += draw(st.floats(0.05, 1.0))
    weights[0, 0] += draw(st.floats(0.05, 1.0))
    return weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(ergodic_chains())
def test_every_eigenvalue_bounds_the_tv_distance_from_below(P):
    # |lambda|**t <= 2 d(t) for every eigenvalue lambda != 1 (Levin,
    # Peres and Wilmer, ch. 12), and d(t_mix(eps)) < eps, so
    # |lambda|**t_mix(eps) < 2 eps.
    eps = [0.25, 1e-2, 1e-3, 1e-5, 1e-7]
    reports = mixing_times(P, eps)
    lams = np.linalg.eigvals(P)
    largest = float(np.abs(lams[np.abs(lams - 1.0) > 1e-9]).max(initial=0.0))
    for e in eps:
        assert largest ** reports[e].t_mix <= 2 * e


def test_markov_steps_its_chains_without_blas():
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src/mdi/markov.py").read_text())
    # The step is a sparse product over the class block's nonzeros: no
    # `@`, no np.dot, np.matmul or np.linalg.
    blas = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.MatMult)
        or (isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"))
    ]
    assert blas == []


def test_mixing_epsilon_validation(monkeypatch):
    with pytest.raises(ValueError):
        mixing_times(np.eye(2), [])
    with pytest.raises(ValueError):
        mixing_times(np.eye(2), [0.0])
    # nan never resolves and inf resolves at t = 0; both are refused
    # before the first step, alone or beside a good threshold.
    monkeypatch.setattr(markov, "MAX_STEPS", 0)
    for eps in ([np.nan], [np.inf], [1e-3, np.nan], [np.inf, 1e-3]):
        with pytest.raises(ValueError, match="finite"):
            mixing_times(np.eye(2), eps)


def test_kl_reference_values():
    p = np.array([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    point = np.array([1.0, 0.0])
    assert kl_divergence(point, p) == pytest.approx(np.log(2.0))
    # Unfounded q mass is free under KL(p || q); missing q mass is not.
    assert kl_divergence(p, point) > 1.0


def test_kl_is_nonnegative_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        assert kl_divergence(p, q) >= 0.0


def test_kl_floors_zero_reference_mass():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    val = kl_divergence(p, q)
    assert np.isfinite(val)
    qf = np.maximum(q, 1e-9)
    qf = qf / qf.sum()
    assert val == pytest.approx(float(np.sum(p * np.log(p / qf))))
    with pytest.raises(AnalysisError):
        kl_divergence(p, np.array([0.2, 0.3, 0.5]))


def test_max_abs_diff():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    assert max_abs_diff(p, q) == pytest.approx(0.3)
    assert max_abs_diff(p, p) == 0.0
    with pytest.raises(AnalysisError):
        max_abs_diff(p, np.array([0.5, 0.5]))


def log_from_flats(flats) -> EpochLog:
    """A raw log whose states on grid2(), which splits both axes at 0,
    are the flat states `flats`.

    The direction of each change picks the bucket: a rise lands in
    bucket 1, a fall in bucket 0. Values stay near 1e6, where log10 is
    positive, so the composite has the sign of the change. Row m's
    state pairs the delay change into row m with the window change into
    row m + 1, so the delay walk takes one more (rising) step at its end
    and the window walk one at its start.
    """
    d_up, w_up = np.divmod(np.asarray(flats), 2)

    def walk(up):
        return 1e6 + np.cumsum(np.r_[0.0, np.where(up, 1.0, -1.0)])

    return EpochLog(20 * np.arange(len(flats) + 2), walk(np.r_[d_up, 1]), walk(np.r_[1, w_up]))


def test_empirical_distribution_counts_states():
    cfg = grid2()
    log = log_from_flats([0, 1, 1, 3])
    assert state_visits(log, cfg).tolist() == [1, 2, 0, 1]
    emp = empirical_distribution(log, cfg)
    assert np.allclose(emp, [0.25, 0.5, 0.0, 0.25])


def test_empirical_distribution_discard_and_errors():
    cfg = grid2()
    log = log_from_flats([0, 1, 1, 3])
    assert state_visits(log, cfg, discard=2).tolist() == [0, 1, 0, 1]
    emp = empirical_distribution(log, cfg, discard=2)
    assert np.allclose(emp, [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(AnalysisError):
        empirical_distribution(log, cfg, discard=4)
    with pytest.raises(ValueError):
        empirical_distribution(log, cfg, discard=-1)
    # Two epochs have no state: the first has no delay before it, the
    # last no window move after it.
    with pytest.raises(AnalysisError, match="no states left after discarding 0 of 0"):
        empirical_distribution(EpochLog([0, 20], [10.0, 11.0], [2.0, 3.0]), cfg)


def test_stationary_fit_averages_the_logs_frequencies():
    cfg = grid2()
    logs = [log_from_flats([0, 1, 1, 3]), log_from_flats([2, 2])]
    pi = np.full(4, 0.25)
    # The mean of [1/4, 1/2, 0, 1/4] and [0, 0, 1, 0]; pooling the visits
    # would give [1/6, 1/3, 1/3, 1/6].
    emp = np.array([0.125, 0.25, 0.5, 0.125])
    assert stationary_fit(logs, cfg, pi) == {
        "epochs_used": 6,
        "kl_empirical_vs_stationary": kl_divergence(emp, pi),
        "max_abs_diff": 0.25,
    }
    # The discard applies to each log, and one left with no state raises.
    with pytest.raises(AnalysisError, match="no states left after discarding 3 of 2"):
        stationary_fit(logs, cfg, pi, discard=3)
    with pytest.raises(AnalysisError, match="at least one log"):
        stationary_fit([], cfg, pi)


def test_long_walk_frequencies_approach_stationary():
    # Sample a well-mixing 4-state chain, train a model on the walk, and
    # check the walk's own visit frequencies against the trained chain's
    # stationary distribution.
    cfg = grid2()
    truth = np.array(
        [
            [0.40, 0.30, 0.20, 0.10],
            [0.10, 0.40, 0.30, 0.20],
            [0.20, 0.10, 0.40, 0.30],
            [0.30, 0.20, 0.10, 0.40],
        ]
    )
    rng = np.random.default_rng(21)
    walk = [0]
    for _ in range(10_000):
        walk.append(int(rng.choice(4, p=truth[walk[-1]])))
    walk = np.array(walk)
    model = TransitionModel(cfg, count_transitions(cfg, walk // 2, walk % 2))
    P = to_stochastic(model, empty_rows="uniform")
    pi = stationary(P)
    emp = np.bincount(walk[100:], minlength=4) / walk[100:].size
    assert kl_divergence(emp, pi) <= 0.05
    assert max_abs_diff(emp, pi) <= 0.02
    # Two steps of the extracted chain stay on the simplex.
    check_stochastic(P @ P)
