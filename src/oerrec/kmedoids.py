"""K-medoids clustering (PAM) over precomputed pairwise distances.

Small-n regime: the swap step scans every (medoid, non-medoid) exchange and
accepts the single best cost-reducing one, repeating until no swap improves.
Each swap step screens, then decides. The screen prices all k x m exchanges
in one pass over the candidate columns (FastPAM1; Schubert & Rousseeuw,
"Faster k-Medoids Clustering", SISAP 2019). The decision recomputes the
exact per-medoid sums only for the medoids whose screened minimum lies
within a relative 1e-9 of the best one, and accepts in medoid order on a
strict <. So exact ties, as between duplicate points, break as a per-medoid
scan breaks them, and never by the screen's rounding.
Determinism: the seeded generator only draws the initial medoid set; callers
must present rows in a canonical order (sorted reader ids) so results are
invariant to input permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "manhattan", "cosine")


def pairwise_distances(X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """Symmetric (n, n) distance matrix with an exactly-zero diagonal."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-d array, got shape {X.shape}")
    if metric == "euclidean":
        sq = np.sum(X * X, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        D = np.sqrt(np.maximum(d2, 0.0))
    elif metric == "manhattan":
        D = np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)
    elif metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        sim = (X @ X.T) / (safe[:, None] * safe[None, :])
        D = 1.0 - np.clip(sim, -1.0, 1.0)
        # zero vectors: maximally distant from everything, coincident with
        # each other
        zero = norms == 0.0
        D[zero, :] = 1.0
        D[:, zero] = 1.0
        D[np.ix_(zero, zero)] = 0.0
    else:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    np.fill_diagonal(D, 0.0)
    return D


@dataclass(frozen=True)
class KMedoidsResult:
    medoid_indices: tuple[int, ...]  # row indices into X, one per community
    assignment: np.ndarray  # (n,) community index in [0, k)
    cost: float  # summed distance of every point to its medoid
    n_swaps: int


def _assign(D: np.ndarray, medoids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    Dmed = D[:, medoids]
    # argmin takes the first minimum, which is the lower community index
    assignment = np.argmin(Dmed, axis=1)
    for ci, m in enumerate(medoids):
        assignment[m] = ci
    return assignment, Dmed[np.arange(D.shape[0]), assignment]


def kmedoids(
    X: np.ndarray,
    k: int,
    rng: np.random.Generator,
    metric: str = "euclidean",
) -> KMedoidsResult:
    """PAM: seeded init, nearest-medoid assignment, best-improvement swaps."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside valid range 1..{n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")

    D = pairwise_distances(X, metric)
    medoids = [int(i) for i in rng.choice(n, size=k, replace=False)]
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    _, d_near_all = _assign(D, medoids)
    cost = float(d_near_all.sum())
    n_swaps = 0

    while True:
        Dmed = D[:, medoids]  # (n, k)
        nearest = np.argmin(Dmed, axis=1)
        d_near = Dmed[np.arange(n), nearest]
        if k > 1:
            part = np.partition(Dmed, 1, axis=1)
            d_second = part[:, 1]
        else:
            d_second = np.full(n, np.inf)

        candidates = np.flatnonzero(~is_medoid)
        if candidates.size == 0:
            break
        Dc = D[:, candidates]  # (n, m)
        # Screen: swapping medoid ci for candidate j costs
        # sum_i min(d_near_i, D_ij) plus, over the points nearest to ci,
        # min(d_second_i, D_ij) - min(d_near_i, D_ij).
        A = np.minimum(d_near[:, None], Dc)
        B = np.minimum(d_second[:, None], Dc)
        np.subtract(B, A, out=B)
        onehot = np.zeros((k, n))
        onehot[nearest, np.arange(n)] = 1.0
        screened = A.sum(axis=0) + onehot @ B  # (k, m)
        del A, B
        # Decide: every term is nonnegative, so rounding moves a screened sum
        # by a relative ~n * 2^-52 at most, far inside 1e-9.
        row_min = screened.min(axis=1)
        best_cost = cost
        best_swap: tuple[int, int] | None = None
        for ci in np.flatnonzero(row_min <= row_min.min() * (1.0 + 1e-9)).tolist():
            # cost contribution if medoid ci were removed: its points fall
            # back to their second-nearest medoid
            fallback = np.where(nearest == ci, d_second, d_near)
            new_costs = np.minimum(fallback[:, None], Dc).sum(axis=0)
            j = int(np.argmin(new_costs))
            if new_costs[j] < best_cost:
                best_cost = float(new_costs[j])
                best_swap = (ci, int(candidates[j]))
        if best_swap is None:
            break
        ci, h = best_swap
        is_medoid[medoids[ci]] = False
        is_medoid[h] = True
        medoids[ci] = h
        cost = best_cost
        n_swaps += 1

    assignment, dists = _assign(D, medoids)
    return KMedoidsResult(tuple(medoids), assignment, float(dists.sum()), n_swaps)
