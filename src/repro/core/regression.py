"""Linear regression with step-wise feature selection (paper §III-B).

EMSim fits activity factors with a linear model over transition bits
(Eq. 8) and prunes statistically insignificant bits with step-wise
regression based on F-tests — "we managed to reduce the size of T by more
than 65%".  This module provides the ridge-regularized least-squares fit
and the forward step-wise selector.

The selector builds the augmented Gram matrix ``[1|X]^T [1|X]`` and
moment vector ``[1|X]^T y`` once (:class:`GramCache`); every candidate's
residual sum of squares then comes from a rank-1 Schur-complement update
of the current subset's inverse instead of a dense solve over the data,
and the final coefficients are refitted through :func:`fit_linear`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..robustness.errors import ConvergenceError


@dataclass
class LinearModel:
    """A fitted linear model ``y ~ intercept + X[:, features] @ coef``."""

    intercept: float
    coefficients: np.ndarray
    features: np.ndarray          # column indices into the full design
    residual_variance: float = 0.0
    r_squared: float = 0.0

    def predict(self, design: np.ndarray) -> np.ndarray:
        """Predict for a full design matrix (all columns present)."""
        design = np.atleast_2d(np.asarray(design, dtype=float))
        return self.predict_selected(design[:, self.features])

    def predict_selected(self, selected: np.ndarray) -> np.ndarray:
        """Predict from the selected columns alone, ``design[:, features]``."""
        if self.features.size == 0:
            return np.full(selected.shape[0], self.intercept)
        return self.intercept + selected @ self.coefficients


def fit_linear(design: np.ndarray, target: np.ndarray,
               ridge: float = 1e-8,
               weights: Optional[np.ndarray] = None
               ) -> Tuple[float, np.ndarray]:
    """(Weighted) least-squares fit with intercept: (intercept, coef)."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    augmented = np.hstack([np.ones((design.shape[0], 1)), design])
    if weights is not None:
        scale = np.sqrt(np.asarray(weights, dtype=float))[:, None]
        augmented = augmented * scale
        target = target * scale[:, 0]
    gram = augmented.T @ augmented
    gram += ridge * np.eye(gram.shape[0])
    solution = np.linalg.solve(gram, augmented.T @ target)
    return float(solution[0]), solution[1:]


def _rss(design: np.ndarray, target: np.ndarray,
         columns: List[int], ridge: float) -> float:
    target = np.asarray(target, dtype=float)
    if columns:
        intercept, coef = fit_linear(design[:, columns], target, ridge)
        predictions = intercept + design[:, columns] @ coef
    else:
        predictions = np.full_like(target, target.mean())
    residuals = target - predictions
    return float(residuals @ residuals)


class GramCache:
    """Precomputed normal equations for one ``(design, target)`` pair.

    Builds the augmented Gram matrix ``G = [1|X]^T [1|X]``, the moment
    vector ``b = [1|X]^T y`` and ``y^T y`` exactly once; ridge solutions
    and residual sums of squares for arbitrary column subsets then come
    from small dense solves on submatrices of ``G`` instead of fresh
    O(n p^2) passes over the data.  Shared by the step-wise selector's
    fast path and :func:`fit_full`.
    """

    def __init__(self, design: np.ndarray, target: np.ndarray):
        self.design = np.asarray(design, dtype=float)
        self.target = np.asarray(target, dtype=float)
        self.n_samples = self.design.shape[0]
        self.augmented = np.hstack(
            [np.ones((self.n_samples, 1)), self.design])
        self.gram = self.augmented.T @ self.augmented
        self.moment = self.augmented.T @ self.target
        self.target_ss = float(self.target @ self.target)

    def indices(self, columns: Sequence[int]) -> np.ndarray:
        """Augmented-matrix indices (intercept first) for design columns."""
        columns = np.asarray(list(columns), dtype=int)
        return np.concatenate(([0], columns + 1))

    def solve(self, columns: Sequence[int],
              ridge: float) -> Tuple[float, np.ndarray]:
        """Ridge solution ``(intercept, coef)`` over ``columns``.

        Solves the same normal equations :func:`fit_linear` would build
        for the column subset, without touching the data again.
        """
        idx = self.indices(columns)
        sub = self.gram[np.ix_(idx, idx)] + ridge * np.eye(len(idx))
        solution = np.linalg.solve(sub, self.moment[idx])
        return float(solution[0]), solution[1:]

    def _state(self, columns, ridge: float):
        """(aug indices, inverse, beta, ridge-fit RSS) for a subset."""
        idx = self.indices(columns)
        sub = self.gram[np.ix_(idx, idx)] + ridge * np.eye(len(idx))
        inverse = np.linalg.inv(sub)
        beta = inverse @ self.moment[idx]
        rss = (self.target_ss - float(self.moment[idx] @ beta) -
               ridge * float(beta @ beta))
        return idx, inverse, beta, max(rss, 0.0)


def _dedupe_preserving(columns) -> List[int]:
    """Drop duplicate column indices, keeping first-occurrence order."""
    seen = set()
    unique = []
    for column in columns:
        if column not in seen:
            seen.add(column)
            unique.append(column)
    return unique


def _stepwise_gram(cache: GramCache, f_threshold: float,
                   max_features: Optional[int], ridge: float,
                   selected: List[int],
                   candidates: List[int]) -> List[int]:
    """Fast search loop: every candidate scored by a rank-1 Schur update.

    With the current subset's inverse ``C = (G_S + ridge I)^-1`` in hand,
    adding candidate column c drops the penalized objective by
    ``gamma^2 d`` where ``d = (G_cc + ridge) - g^T C g`` is the Schur
    complement and ``gamma = (b_c - beta^T g) / d``; one matrix product
    scores *all* candidates of a step at once.

    The sweep scores are used for *shortlisting* only.  Every candidate
    whose sweep drop is within a safety margin of the best is rescored
    with the exact :func:`_rss` and the winner chosen by a strict-``<``
    scan in candidate order, so exact ties (duplicate design columns
    are common in transition matrices) break toward the earliest
    column, as a dense scan over every candidate would.  Candidates that
    tie only in exact arithmetic are decided by rounding, so a ~1e-16
    change to the design or the target can pick a different column.  The
    decision quantities — the accepted candidate's residual sum of
    squares and the partial-F statistic — come from those exact
    rescores, which also sidesteps the sweep's weakness: the
    ``y^T y - b . beta`` identity cancels catastrophically once the fit
    is nearly exact.
    The shortlist is a handful of columns in practice, so each step
    costs a few dense solves instead of one per candidate.
    """
    design, target = cache.design, cache.target
    n_samples = cache.n_samples
    gram, moment = cache.gram, cache.moment
    _, inverse, beta, _ = cache._state(selected, ridge)
    idx = list(cache.indices(selected))
    rss_current = _rss(design, target, selected, ridge)
    noise_floor = 1e-9 * max(cache.target_ss, 1e-30)
    while candidates:
        if max_features is not None and len(selected) >= max_features:
            break
        if rss_current <= noise_floor:
            # the residual sits at the roundoff floor of y^T y, so
            # sweep scores are pure noise; scan every candidate exactly
            # (this only happens on the last step or two of a saturated
            # fit, so the per-candidate saving elsewhere survives)
            shortlist = range(len(candidates))
        else:
            cand = np.asarray(candidates, dtype=int) + 1
            cross = gram[np.ix_(idx, cand)]
            projected = inverse @ cross
            schur = (gram[cand, cand] + ridge -
                     np.einsum("km,km->m", cross, projected))
            positive = schur > 0
            gamma = ((moment[cand] - beta @ cross) /
                     np.where(positive, schur, 1.0))
            # objective drop per candidate, up to a candidate-
            # independent constant (the current RSS) and the
            # ridge-norm correction
            drop = (gamma ** 2 * schur - ridge *
                    (2.0 * gamma * (beta @ projected) - gamma ** 2 *
                     (np.einsum("km,km->m", projected, projected) + 1.0)))
            drop = np.where(positive, drop, -np.inf)
            top = float(np.max(drop))
            if not np.isfinite(top):
                break
            # margin covers the sweep's roundoff so the true argmin
            # (and every exact tie) lands in the shortlist;
            # flatnonzero keeps candidate order for the
            # first-tie-wins scan
            margin = 1e-2 * abs(top) + 1e-10 * cache.target_ss
            shortlist = np.flatnonzero(drop >= top - margin)
        best = None
        best_rss = rss_current
        for short in shortlist:
            rss_new = _rss(design, target,
                           selected + [candidates[short]], ridge)
            if rss_new < best_rss:
                best_rss = rss_new
                best = int(short)
        if best is None:
            break
        dof = n_samples - len(selected) - 2
        if dof <= 0:
            break
        denom = best_rss / dof
        f_stat = (rss_current - best_rss) / denom if denom > 0 else \
            float("inf")
        if f_stat < f_threshold:
            break
        selected.append(candidates.pop(best))
        idx, inverse, beta, _ = cache._state(selected, ridge)
        idx = list(idx)
        rss_current = best_rss
    return selected


def stepwise_select(design: np.ndarray, target: np.ndarray,
                    f_threshold: float = 4.0,
                    max_features: Optional[int] = None,
                    ridge: float = 1e-8,
                    forced_features: Optional[List[int]] = None
                    ) -> LinearModel:
    """Forward step-wise regression with a partial-F entry criterion.

    Starting from the intercept-only model, repeatedly adds the candidate
    column whose inclusion yields the largest partial F-statistic

        F = (RSS_old - RSS_new) / (RSS_new / (n - p - 1))

    and stops when no candidate reaches ``f_threshold`` (or
    ``max_features`` is hit).  Columns with no variance are never
    considered — exactly the pruning of non-contributing transition bits
    the paper describes.  Duplicate ``forced_features`` are dropped
    (first occurrence wins) so repeated indices cannot double-enter the
    design and skew the F-test degrees of freedom.  The final model is
    refitted with :func:`fit_linear` on the selected columns.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    n_samples, n_columns = design.shape
    variances = design.var(axis=0)
    selected: List[int] = [
        col for col in _dedupe_preserving(forced_features or [])
        if variances[col] > 0]
    candidates = [col for col in range(n_columns)
                  if variances[col] > 0 and col not in selected]
    selected = _stepwise_gram(GramCache(design, target), f_threshold,
                              max_features, ridge, selected, candidates)

    if selected:
        intercept, coef = fit_linear(design[:, selected], target, ridge)
        predictions = intercept + design[:, selected] @ coef
    else:
        intercept, coef = float(target.mean()), np.zeros(0)
        predictions = np.full_like(target, intercept)
    residuals = target - predictions
    total = target - target.mean()
    total_ss = float(total @ total)
    return LinearModel(
        intercept=intercept,
        coefficients=np.asarray(coef, dtype=float),
        features=np.asarray(selected, dtype=int),
        residual_variance=float(residuals @ residuals) /
        max(1, n_samples - len(selected) - 1),
        r_squared=1.0 - float(residuals @ residuals) / total_ss
        if total_ss > 0 else 1.0)


def fit_full(design: np.ndarray, target: np.ndarray,
             ridge: float = 1e-6,
             gram: Optional[GramCache] = None) -> LinearModel:
    """Fit using every column (no selection); for ablation comparisons.

    ``gram`` optionally reuses an existing :class:`GramCache` built for
    the same ``(design, target)`` pair so the normal equations are not
    recomputed; the solution is identical to the direct solve.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    cache = gram if gram is not None else GramCache(design, target)
    intercept, coef = cache.solve(range(design.shape[1]), ridge)
    predictions = intercept + design @ coef
    residuals = target - predictions
    total = target - target.mean()
    total_ss = float(total @ total)
    return LinearModel(
        intercept=intercept, coefficients=coef,
        features=np.arange(design.shape[1]),
        residual_variance=float(residuals @ residuals) /
        max(1, design.shape[0] - design.shape[1] - 1),
        r_squared=1.0 - float(residuals @ residuals) / total_ss
        if total_ss > 0 else 1.0)


# ----------------------------------------------------------------------
# robust fitting (IRLS / Huber)
# ----------------------------------------------------------------------
# Corrupted probes (burst noise, drift, mis-gated amplitudes) produce
# gross outliers that ordinary least squares lets poison every
# coefficient.  The trainers use the Huber M-estimator solved by
# iteratively reweighted least squares; residuals beyond ``c`` scaled
# MADs contribute linearly instead of quadratically, so a handful of bad
# rows cannot move the fit.

_MAD_TO_SIGMA = 1.4826      # consistency factor for Gaussian residuals
_SCALE_FLOOR = 1e-12


@dataclass
class RobustFitInfo:
    """Diagnostics from one robust (IRLS) fit."""

    method: str = "huber"
    iterations: int = 0
    converged: bool = True
    outliers_rejected: int = 0       # rows with final weight < 0.5
    total_observations: int = 0
    final_scale: float = 0.0         # robust residual scale (MAD-based)
    weights: Optional[np.ndarray] = field(default=None, repr=False)

    def describe(self) -> str:
        """One-line fitting summary for training reports."""
        return (f"{self.method}: {self.outliers_rejected}/"
                f"{self.total_observations} observations down-weighted "
                f"in {self.iterations} iterations"
                f"{'' if self.converged else ' (NOT converged)'}")


def mad_scale(residuals: np.ndarray) -> float:
    """Robust residual scale: 1.4826 * median absolute deviation."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        return 0.0
    center = float(np.median(residuals))
    return _MAD_TO_SIGMA * float(np.median(np.abs(residuals - center)))


def mad_outlier_mask(values: np.ndarray, threshold: float = 6.0
                     ) -> np.ndarray:
    """Boolean mask of values further than ``threshold`` MADs from the
    median (True = outlier).  Used to screen per-stage alpha observations
    before step-wise selection."""
    values = np.asarray(values, dtype=float)
    scale = mad_scale(values)
    if scale < _SCALE_FLOOR:
        return np.zeros(values.shape, dtype=bool)
    return np.abs(values - np.median(values)) > threshold * scale


def huber_weights(residuals: np.ndarray, scale: float,
                  c: float = 1.345) -> np.ndarray:
    """Huber IRLS weights: 1 inside ``c * scale``, decaying outside."""
    residuals = np.asarray(residuals, dtype=float)
    if scale < _SCALE_FLOOR:
        return np.ones(residuals.shape)
    normalized = np.abs(residuals) / (c * scale)
    weights = np.ones(residuals.shape)
    outside = normalized > 1.0
    weights[outside] = 1.0 / normalized[outside]
    return weights


def irls_solve(matrix: np.ndarray, target: np.ndarray,
               ridge: float = 1e-6, c: float = 1.345,
               max_iter: int = 50, tol: float = 1e-8,
               base_weights: Optional[np.ndarray] = None,
               gram: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, RobustFitInfo]:
    """Huber-IRLS solution of ``matrix @ x ~ target``.

    ``matrix`` is used as given (include an intercept column if one is
    wanted); ``base_weights`` multiply the robustness weights, so fixed
    observation weighting (e.g. the MISO pure-floor up-weighting)
    composes with outlier down-weighting.  ``gram`` optionally supplies
    a precomputed ``matrix.T @ matrix``, reused for the unweighted
    initial solve so callers that already built the normal equations
    (e.g. the joint alpha fit) skip one O(n p^2) product.  Raises
    :class:`ConvergenceError` if the iteration produces non-finite
    values; merely hitting ``max_iter`` is reported via
    ``info.converged`` instead, since the estimate is still usable.
    """
    matrix = np.asarray(matrix, dtype=float)
    target = np.asarray(target, dtype=float)
    n_rows, n_cols = matrix.shape
    base = np.ones(n_rows) if base_weights is None else \
        np.asarray(base_weights, dtype=float)

    def solve(weights: np.ndarray,
              gram_matrix: Optional[np.ndarray] = None) -> np.ndarray:
        scaled = matrix * weights[:, None]
        if gram_matrix is None:
            gram_matrix = scaled.T @ matrix
        normal = gram_matrix + ridge * np.eye(n_cols)
        return np.linalg.solve(normal, scaled.T @ target)

    solution = solve(base, gram if base_weights is None else None)
    info = RobustFitInfo(method="huber", total_observations=n_rows)
    robust = np.ones(n_rows)
    for iteration in range(1, max_iter + 1):
        residuals = target - matrix @ solution
        scale = mad_scale(residuals)
        info.final_scale = scale
        if scale < _SCALE_FLOOR:
            # residuals already (near) zero: nothing to reweight
            info.iterations = iteration
            break
        robust = huber_weights(residuals, scale, c=c)
        updated = solve(base * robust)
        if not np.all(np.isfinite(updated)):
            raise ConvergenceError(
                f"IRLS produced non-finite coefficients at iteration "
                f"{iteration}", iterations=iteration)
        shift = float(np.max(np.abs(updated - solution)))
        solution = updated
        info.iterations = iteration
        reference = float(np.max(np.abs(solution))) + 1.0
        if shift <= tol * reference:
            break
    else:
        info.converged = False
    info.weights = base * robust
    info.outliers_rejected = int(np.sum(robust < 0.5))
    return solution, info
