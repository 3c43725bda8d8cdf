"""Chain extraction, stationary analysis, mixing, divergences."""

import numpy as np
import pytest

from mdi.markov import (
    AnalysisError,
    ConvergenceError,
    check_distribution,
    check_stochastic,
    empirical_distribution,
    is_irreducible,
    kl_divergence,
    lazy,
    max_abs_diff,
    mixing_times,
    stationary,
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


def test_check_distribution_validates():
    check_distribution(np.array([0.25, 0.75]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([[0.5, 0.5]]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([0.6, 0.6]))
    with pytest.raises(AnalysisError):
        check_distribution(np.array([-0.1, 1.1]))


def counted_model(pairs) -> TransitionModel:
    counts = np.zeros((2, 2, 2, 2), dtype=np.uint64)
    for (a, b), c in pairs.items():
        counts[a // 2, a % 2, b // 2, b % 2] = c
    return TransitionModel(grid2(), counts)


def test_to_stochastic_empty_row_policies():
    model = counted_model({(0, 1): 3, (0, 2): 1, (1, 0): 2})
    P_self = to_stochastic(model, empty_rows="self-loop")
    assert np.allclose(P_self[0], [0.0, 0.75, 0.25, 0.0])
    assert P_self[2, 2] == 1.0 and P_self[3, 3] == 1.0
    P_unif = to_stochastic(model, empty_rows="uniform")
    assert np.allclose(P_unif[2], 0.25)
    assert np.allclose(P_unif[3], 0.25)
    assert np.array_equal(to_stochastic(model), P_unif)  # the default
    with pytest.raises(ValueError):
        to_stochastic(model, empty_rows="drop")


def test_lazy_preserves_stationary_and_kills_periodicity():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    L = lazy(flip)
    assert np.allclose(L, [[0.5, 0.5], [0.5, 0.5]])
    rng = np.random.default_rng(0)
    P = random_chain(6, rng)
    pi = stationary(P)
    pi_lazy = stationary(lazy(P))
    assert np.abs(pi - pi_lazy).max() < 1e-9


def test_irreducibility_detection():
    cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert is_irreducible(cycle)
    assert not is_irreducible(np.eye(2))
    blocks = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    assert not is_irreducible(blocks)


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
    assert np.allclose(stationary(np.eye(4)), 0.25)
    doubly = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.5, 0.2, 0.3],
            [0.3, 0.5, 0.2],
        ]
    )
    assert np.allclose(stationary(doubly), 1.0 / 3.0, atol=1e-9)


def test_stationary_raises_when_iteration_budget_exhausted():
    # Asymmetric and glacially mixing, so the uniform start is far from
    # stationary and each step barely moves.
    P = np.array([[1.0 - 1e-7, 1e-7], [2e-7, 1.0 - 2e-7]])
    with pytest.raises(ConvergenceError):
        stationary(P, max_iter=10)


def test_rank_one_chain_mixes_in_one_step():
    q = np.array([0.1, 0.2, 0.3, 0.4])
    P = np.tile(q, (4, 1))
    report = mixing_times(P, [1e-3])[1e-3]
    assert report.t_mix == 1
    assert report.per_start.shape == (4,)


def test_identity_chain_mixes_in_zero_steps():
    assert mixing_times(np.eye(5), [1e-3])[1e-3].t_mix == 0


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


def test_mixing_never_resolves_on_a_periodic_chain():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConvergenceError):
        mixing_times(flip, [1e-3], max_iter=200)
    # The lazy transform breaks the period and resolves immediately.
    assert mixing_times(lazy(flip), [1e-3])[1e-3].t_mix <= 2


def test_mixing_epsilon_validation():
    with pytest.raises(ValueError):
        mixing_times(np.eye(2), [])
    with pytest.raises(ValueError):
        mixing_times(np.eye(2), [0.0])
    # nan never resolves and inf resolves at t = 0; both are refused
    # before the first step, alone or beside a good threshold.
    for eps in ([np.nan], [np.inf], [1e-3, np.nan], [np.inf, 1e-3]):
        with pytest.raises(ValueError, match="finite"):
            mixing_times(np.eye(2), eps, max_iter=0)


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
    positive, so the composite has the sign of the change.
    """
    d_up, w_up = np.divmod(np.asarray(flats), 2)

    def walk(up):
        return 1e6 + np.cumsum(np.r_[0.0, np.where(up, 1.0, -1.0)])

    return EpochLog(20 * np.arange(len(flats) + 1), walk(d_up), walk(w_up))


def test_empirical_distribution_counts_states():
    cfg = grid2()
    log = log_from_flats([0, 1, 1, 3])
    emp = empirical_distribution(log, cfg)
    assert np.allclose(emp, [0.25, 0.5, 0.0, 0.25])


def test_empirical_distribution_discard_and_errors():
    cfg = grid2()
    log = log_from_flats([0, 1, 1, 3])
    emp = empirical_distribution(log, cfg, discard=2)
    assert np.allclose(emp, [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(AnalysisError):
        empirical_distribution(log, cfg, discard=4)
    with pytest.raises(ValueError):
        empirical_distribution(log, cfg, discard=-1)
    # One epoch has no state.
    with pytest.raises(ValueError, match="at least 2"):
        empirical_distribution(EpochLog([0], [10.0], [2.0]), cfg)


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
