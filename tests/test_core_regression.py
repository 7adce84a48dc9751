"""Tests for regression + step-wise selection (repro.core.regression)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regression import (fit_full, fit_linear, stepwise_select)

from .oracles import naive_stepwise_select


def _synthetic(n=200, p=30, informative=(2, 7, 11), noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    design = rng.integers(0, 2, size=(n, p)).astype(float)
    coefficients = np.zeros(p)
    for index, column in enumerate(informative):
        coefficients[column] = 1.0 + index
    target = 0.5 + design @ coefficients + rng.normal(0, noise, n)
    return design, target, coefficients


def test_fit_linear_recovers_coefficients():
    design, target, coefficients = _synthetic()
    intercept, fitted = fit_linear(design, target)
    assert abs(intercept - 0.5) < 0.1
    assert np.allclose(fitted, coefficients, atol=0.1)


def test_fit_linear_weighted():
    design = np.array([[1.0], [1.0], [0.0]])
    target = np.array([2.0, 2.0, 0.0])
    # weight the last row heavily; the intercept should go to ~0
    intercept, coef = fit_linear(design, target,
                                 weights=np.array([1.0, 1.0, 100.0]))
    assert abs(intercept) < 0.05
    assert abs(coef[0] - 2.0) < 0.1


def test_stepwise_finds_informative_columns():
    design, target, _ = _synthetic()
    model = stepwise_select(design, target, f_threshold=4.0)
    assert set(model.features) >= {2, 7, 11}
    assert model.features.size < 10  # noise columns mostly excluded
    assert model.r_squared > 0.98


def test_stepwise_reduces_feature_count_substantially():
    """The paper's '>65% of T removed' behaviour on sparse problems."""
    design, target, _ = _synthetic(p=80, informative=(1, 5, 40))
    model = stepwise_select(design, target, f_threshold=4.0)
    assert model.features.size <= 0.35 * 80


def test_stepwise_respects_max_features():
    design, target, _ = _synthetic()
    model = stepwise_select(design, target, max_features=2)
    assert model.features.size <= 2


def test_stepwise_forced_features_always_kept():
    design, target, _ = _synthetic()
    model = stepwise_select(design, target, forced_features=[0, 1])
    assert {0, 1} <= set(model.features)


def test_stepwise_handles_constant_columns():
    design = np.ones((50, 3))
    design[:, 1] = np.arange(50)
    target = 2.0 * design[:, 1] + 1.0
    model = stepwise_select(design, target)
    assert list(model.features) == [1]


def test_stepwise_pure_noise_selects_nothing():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(100, 20))
    target = rng.normal(size=100)
    model = stepwise_select(design, target, f_threshold=12.0)
    assert model.features.size <= 2


def test_model_predict_shapes():
    design, target, _ = _synthetic()
    model = stepwise_select(design, target)
    predictions = model.predict(design)
    assert predictions.shape == (design.shape[0],)
    single = model.predict(design[0])
    assert single.shape == (1,)


def test_fit_full_uses_every_column():
    design, target, _ = _synthetic(p=10, informative=(2, 7))
    model = fit_full(design, target)
    assert model.features.size == 10
    assert model.r_squared > 0.9


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_stepwise_never_beats_perfect_fit(seed):
    design, target, _ = _synthetic(seed=seed, noise=0.2)
    model = stepwise_select(design, target)
    assert model.r_squared <= 1.0 + 1e-9
    assert model.residual_variance >= 0.0


# ---------------------------------------------------------------------------
# gram engine vs the dense reference (tests/oracles.py)
# ---------------------------------------------------------------------------
def _random_problem(seed):
    """A randomized step-wise problem in the trainer's design style."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    p = int(rng.integers(5, 40))
    if seed % 2:
        design = (rng.random((n, p)) < 0.3).astype(float)
    else:
        design = rng.normal(size=(n, p))
    if seed % 3 == 0:
        design[:, int(rng.integers(0, p))] = 1.0  # constant column
    if seed % 4 == 0:
        design[:, -1] = design[:, 0]  # exact duplicate column
    k = int(rng.integers(1, min(n, p)))
    coefficients = np.zeros(p)
    coefficients[rng.choice(p, size=k, replace=False)] = \
        rng.normal(size=k) * 3
    target = design @ coefficients + \
        rng.normal(size=n) * (10.0 ** rng.integers(-6, 1))
    forced = list(rng.choice(p, size=int(rng.integers(0, 4)),
                             replace=True))
    max_features = None if seed % 5 else int(rng.integers(1, p + 1))
    ridge = float(10.0 ** rng.integers(-9, -4))
    return design, target, forced, max_features, ridge


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_stepwise_gram_matches_naive(seed):
    design, target, forced, max_features, ridge = _random_problem(seed)
    naive = naive_stepwise_select(design, target,
                                  max_features=max_features, ridge=ridge,
                                  forced_features=forced)
    gram = stepwise_select(design, target, max_features=max_features,
                           ridge=ridge, forced_features=forced)
    assert list(naive.features) == list(gram.features)
    assert naive.intercept == gram.intercept
    assert np.array_equal(naive.coefficients, gram.coefficients)


def test_stepwise_gram_matches_naive_on_saturated_fit():
    # n close to p with near-zero final residual: the regime where the
    # gram identity y'y - b.beta cancels catastrophically
    rng = np.random.default_rng(3)
    design = (rng.random((24, 40)) < 0.4).astype(float)
    target = design @ rng.normal(size=40)  # exactly representable
    naive = naive_stepwise_select(design, target, f_threshold=4.0)
    gram = stepwise_select(design, target, f_threshold=4.0)
    assert list(naive.features) == list(gram.features)
    assert np.array_equal(naive.coefficients, gram.coefficients)


def test_stepwise_forced_duplicates_deduped():
    design, target, _ = _synthetic(p=10, informative=(2, 7))
    for select in (naive_stepwise_select, stepwise_select):
        duped = select(design, target, forced_features=[1, 1, 2])
        clean = select(design, target, forced_features=[1, 2])
        assert list(duped.features) == list(clean.features)
        assert np.array_equal(duped.coefficients, clean.coefficients)


def test_stepwise_integer_target_matches_float():
    design, target, _ = _synthetic(p=12, informative=(2, 7), noise=0.3)
    rounded = np.round(target).astype(int)
    for select in (naive_stepwise_select, stepwise_select):
        from_int = select(design, rounded)
        from_float = select(design, rounded.astype(float))
        assert list(from_int.features) == list(from_float.features)
        assert np.array_equal(from_int.coefficients,
                              from_float.coefficients)


def test_fit_full_gram_cache_is_bit_identical():
    from repro.core.regression import GramCache

    design, target, _ = _synthetic(p=10, informative=(2, 7))
    plain = fit_full(design, target)
    cached = fit_full(design, target, gram=GramCache(design, target))
    assert plain.intercept == cached.intercept
    assert np.array_equal(plain.coefficients, cached.coefficients)


def test_fit_full_accepts_integer_target():
    design, target, _ = _synthetic(p=8, informative=(1, 4), noise=0.2)
    model = fit_full(design, np.round(target).astype(int))
    assert model.r_squared > 0.8
