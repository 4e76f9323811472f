"""Optional embedding and clustering stages: PCA, exact t-SNE, k-means.

These feed the two reduced pipelines: a 2-D t-SNE embedding or a PCA
projection is clustered with k-means and the cluster id joins the feature
matrix as a relative cluster-size frequency.

The t-SNE here is the exact O(n^2) formulation: per-row Gaussian
bandwidths found by binary search to the target perplexity, symmetrized
joint probabilities, Student-t low-dimensional affinities, gradient
descent with early exaggeration and a momentum switch.  P is built in
place over the pairwise distances; beside it, the descent and each KL
evaluation keep one n x n buffer, filled by two full-shape BLAS products
(the Gram matrix and the gradient) and by elementwise passes over blocks
of `_BLOCK` rows that stay in L2.  Each descent iteration computes only
the gradient; the KL divergence is evaluated at the start and at the end.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

_EPS = np.finfo(float).tiny
_BLOCK = 64  # rows per t-SNE elementwise pass: 0.3 MB at 576 rows, inside L2
_PERPLEXITY_TOL = 1e-3  # a row's bandwidth search stops this close to the target
_PERPLEXITY_STEPS = 100  # or after this many search steps
_KMEANS_MAX_ITER = 300  # Lloyd passes at most
_TSNE_DIMS = 2  # embedding dimensions
_TSNE_LEARNING_RATE = 200.0
_EARLY_EXAGGERATION = 12.0  # P is scaled by this for the first exaggeration_iter steps
_MOMENTUM_EARLY = 0.5  # momentum during exaggeration,
_MOMENTUM_LATE = 0.8  # and after it


@dataclass
class PcaModel:
    """Orthonormal principal axes (rows), variance ratios, column means."""

    components: np.ndarray  # (n_components, n_features)
    explained_variance_ratio: np.ndarray
    means: np.ndarray


def pca_fit(matrix, n_components: int | None = None) -> PcaModel:
    """Fit principal axes of the column-centered data.

    Components are the top eigenvectors of the covariance matrix in
    eigenvalue order (computed via SVD of the centered data).  When
    `n_components` is omitted, the smallest count preserving >= 95% of the
    variance is kept.  Signs are fixed so each component's
    largest-magnitude entry is positive.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DomainError("pca_fit needs a non-empty 2-D matrix")
    n, d = X.shape
    means = X.mean(axis=0)
    centered = X - means
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variances = singular**2
    total = variances.sum()
    ratios = variances / total if total > 0 else np.zeros_like(variances)
    if n_components is None:
        cumulative = np.cumsum(ratios)
        n_components = int(np.searchsorted(cumulative, 0.95 - 1e-12) + 1)
        n_components = min(n_components, len(ratios))
    if not 1 <= n_components <= min(n, d):
        raise DomainError(
            f"n_components {n_components} outside [1, {min(n, d)}]"
        )
    components = vt[:n_components].copy()
    flips = np.abs(components).argmax(axis=1)
    signs = np.sign(components[np.arange(len(components)), flips])
    signs[signs == 0] = 1.0
    components *= signs[:, None]
    return PcaModel(
        components=components,
        explained_variance_ratio=ratios[:n_components],
        means=means,
    )


def pca_transform(matrix, model: PcaModel) -> np.ndarray:
    """Centered data projected onto the principal axes."""
    X = np.asarray(matrix, dtype=float)
    return (X - model.means) @ model.components.T


def pca_inverse_transform(scores, model: PcaModel) -> np.ndarray:
    """Back-projection of principal scores into feature space."""
    return np.asarray(scores, dtype=float) @ model.components + model.means


@dataclass
class TsneConfig:
    perplexity: float = 30.0
    n_iter: int = 1000
    exaggeration_iter: int = 250  # momentum switches here too
    seed: int = 0


@dataclass
class TsneEmbedding:
    coordinates: np.ndarray
    kl_initial: float
    kl_final: float


def _distance_blocks(norms, gram):
    """Turn `gram`, holding 2 X X^T, into squared distances
    max(n_i + n_j - gram_ij, 0) in place, one block of `_BLOCK` rows at a
    time; yields (first row, block) as each block is done."""
    n = len(norms)
    sums = np.empty((min(_BLOCK, n), n))
    for s in range(0, n, _BLOCK):
        block = gram[s:s + _BLOCK]
        pair = sums[:len(block)]
        pair[...] = norms[s:s + _BLOCK, None]  # a column copy, then a row add:
        pair += norms  # faster than one broadcast add, and the same sums
        np.subtract(pair, block, out=block)
        np.maximum(block, 0.0, out=block)
        yield s, block


def _squared_distances(X):
    """Pairwise squared distances, clamped at 0, with a zero diagonal."""
    out = X @ X.T
    out *= 2.0
    for s, block in _distance_blocks((X * X).sum(axis=1), out):
        np.fill_diagonal(block[:, s:], 0.0)
    return out


def conditional_probabilities(matrix, perplexity: float) -> np.ndarray:
    """Row-conditional Gaussian affinities calibrated to a perplexity.

    Per row, the bandwidth is found by binary search until the conditional
    distribution's perplexity 2^H is within `_PERPLEXITY_TOL` of the target
    (or the step budget runs out, as happens on degenerate geometry where
    the perplexity is constant in the bandwidth).  Each row is written over
    that row's distances; the diagonal stays 0.
    """
    X = np.asarray(matrix, dtype=float)
    n = X.shape[0]
    if not 0 < perplexity < n - 1 + 1e-12:
        raise ConfigError(f"perplexity {perplexity} infeasible for {n} rows")
    P = _squared_distances(X)
    for i in range(n):
        others = np.delete(P[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        for _ in range(_PERPLEXITY_STEPS):
            kernel = np.exp(-others * beta)
            total = kernel.sum()
            if total <= 0:
                row = np.full_like(others, 1.0 / len(others))
            else:
                row = kernel / total
            entropy = -(row * np.log2(np.maximum(row, _EPS))).sum()
            current = 2.0**entropy
            if abs(current - perplexity) <= _PERPLEXITY_TOL:
                break
            if current > perplexity:  # too flat: sharpen
                beta_lo = beta
                beta = beta * 2.0 if np.isinf(beta_hi) else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = beta / 2.0 if beta_lo == 0.0 else (beta + beta_lo) / 2.0
        P[i, :i], P[i, i + 1:] = row[:i], row[i:]
    return P


def joint_probabilities(matrix, perplexity: float) -> np.ndarray:
    """Symmetrized affinities p_ij = (p_j|i + p_i|j) / 2n; entries sum to 1."""
    P = conditional_probabilities(matrix, perplexity)
    n = len(P)
    for s in range(0, n, _BLOCK):  # in place: each strip's sums, then their mirror
        strip = P[s:s + _BLOCK, s:]
        strip += P[s:, s:s + _BLOCK].T  # numpy copies the overlapping corner first
        P[s:, s:s + _BLOCK] = strip.T
    P /= 2.0 * n
    return P


def _blocked_kernel(Y, kernel):
    """Student-t affinities 1 / (1 + d2) with a zero diagonal, into `kernel`;
    returns their sum.

    `kernel` first receives the Gram matrix 2 Y Y^T from one full-shape
    gemm; the elementwise steps then run block by block.
    """
    np.matmul(Y * 2.0, Y.T, out=kernel)
    for s, block in _distance_blocks((Y * Y).sum(axis=1), kernel):
        block += 1.0
        np.divide(1.0, block, out=block)
        np.fill_diagonal(block[:, s:], 0.0)
    return kernel.sum()


def _kl_divergence(P, Y):
    """KL(P || Q) for the low-dimensional affinities Q of layout `Y`."""
    Q = np.empty_like(P)
    total = _blocked_kernel(Y, Q)
    for s in range(0, len(Y), _BLOCK):
        rows = slice(s, s + _BLOCK)
        block = Q[rows]
        block /= total
        np.maximum(block, _EPS, out=block)
        np.divide(np.maximum(P[rows], _EPS), block, out=block)
        np.log(block, out=block)
        block *= P[rows]
    return float(Q.sum())


def _descend(P, Y, config: TsneConfig):
    """Gradient descent from layout `Y`; returns the final layout.

    Per iteration `kernel` holds the Student-t affinities, then
    M = diag(rowsum(coeff)) - coeff, with coeff = (target - Q) * kernel, so
    the gradient is 4 M Y.  Each block of M is written as
    kernel * (Q - target), the exact negation of coeff, and the exaggerated
    target is formed one block at a time, so no n x n copy of P is kept.
    The buffer is freed on return.
    """
    kernel = np.empty_like(P)
    scratch = np.empty((min(_BLOCK, len(P)), len(P)))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)  # per-coordinate adaptive rates keep lr=200 stable
    for iteration in range(config.n_iter):
        early = iteration < config.exaggeration_iter
        momentum = _MOMENTUM_EARLY if early else _MOMENTUM_LATE
        total = _blocked_kernel(Y, kernel)
        for s in range(0, len(Y), _BLOCK):
            rows = slice(s, s + _BLOCK)
            block, target = kernel[rows], P[rows]
            if early:
                target = target * _EARLY_EXAGGERATION
            q = np.divide(block, total, out=scratch[:len(block)])
            q -= target
            block *= q
            np.fill_diagonal(block[:, s:], -block.sum(axis=1))
        grad = 4.0 * (kernel @ Y)
        agree = update * grad < 0.0
        gains[agree] += 0.2
        gains[~agree] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - _TSNE_LEARNING_RATE * gains * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)
    return Y


def tsne_embed(matrix, config: TsneConfig | None = None) -> TsneEmbedding:
    """Exact t-SNE of the rows of `matrix`.

    Gradient descent starts from a small seeded Gaussian layout, runs an
    early-exaggeration phase, then continues with higher momentum.  The
    reported divergences are against the plain (unexaggerated) affinities,
    and the final one is checked to improve on the initial one.
    """
    config = config or TsneConfig()
    X = np.asarray(matrix, dtype=float)
    n = X.shape[0]
    if n < 4 or not config.perplexity < n - 1 + 1e-12:  # conditional_probabilities' bound
        needed = max(4, int(np.ceil(config.perplexity + 1 - 1e-12)))
        raise DomainError(f"t-SNE with perplexity {config.perplexity} needs at least "
                          f"{needed} rows, got {n}")
    P = joint_probabilities(X, config.perplexity)
    rng = np.random.default_rng(config.seed)
    Y = rng.normal(scale=1e-4, size=(n, _TSNE_DIMS))
    kl_initial = _kl_divergence(P, Y)
    Y = _descend(P, Y, config)
    kl_final = _kl_divergence(P, Y)
    if not kl_final < kl_initial:
        raise DomainError(
            f"t-SNE failed to improve: KL {kl_initial:.6f} -> {kl_final:.6f}"
        )
    return TsneEmbedding(coordinates=Y, kl_initial=kl_initial, kl_final=kl_final)


@dataclass
class KmeansModel:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)


def _assign(X, centroids):
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * (X @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1)  # ties: lowest centroid index


def _exact_inertia(X, centroids, assignments):
    diff = X - centroids[assignments]
    return float((diff * diff).sum())


def check_cluster_count(k: int, n: int) -> None:
    """Refuse a k-means k outside [1, n] for n rows."""
    if not 1 <= k <= n:
        raise DomainError(f"k {k} outside [1, {n}]")


def kmeans_fit(matrix, k: int, seed: int = 0) -> KmeansModel:
    """Lloyd iterations from a k-means++ seeding.

    Runs until the assignments reach a fixpoint or `_KMEANS_MAX_ITER`
    passes; the recorded inertia never increases between iterations.  A
    cluster that empties is reseeded to the point farthest from its
    current centroid.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DomainError("kmeans_fit needs a non-empty 2-D matrix")
    n = X.shape[0]
    check_cluster_count(k, n)
    rng = np.random.default_rng(seed)

    # k-means++: subsequent seeds drawn with probability proportional to
    # the squared distance from the nearest existing seed
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
        else:
            centroids[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((X - centroids[j]) ** 2).sum(axis=1))

    assignments = _assign(X, centroids)
    history = [_exact_inertia(X, centroids, assignments)]
    for iterations in range(1, _KMEANS_MAX_ITER + 1):
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
            else:
                distances = ((X - centroids[assignments]) ** 2).sum(axis=1)
                centroids[j] = X[distances.argmax()]
        new_assignments = _assign(X, centroids)
        history.append(_exact_inertia(X, centroids, new_assignments))
        converged = (new_assignments == assignments).all()
        assignments = new_assignments
        if converged:
            break
    return KmeansModel(
        centroids=centroids,
        assignments=assignments,
        inertia=history[-1],
        n_iter=iterations,
        seed=seed,
        inertia_history=history,
    )


def kmeans_assign(matrix, model: KmeansModel) -> np.ndarray:
    """Nearest-centroid assignment for new rows."""
    return _assign(np.asarray(matrix, dtype=float), model.centroids)


def cluster_frequencies(assignments, k: int) -> np.ndarray:
    """Relative cluster sizes, indexed by cluster id."""
    counts = np.bincount(np.asarray(assignments, int), minlength=k)
    return counts / counts.sum()


def embedding_to_csv(coordinates, assignments=None) -> str:
    """CSV export (row index, coordinates, optional cluster id)."""
    coordinates = np.asarray(coordinates, dtype=float)
    dims = coordinates.shape[1]
    header = ["row"] + [f"dim{i}" for i in range(dims)]
    if assignments is not None:
        header.append("cluster")
    lines = [",".join(header)]
    for i, row in enumerate(coordinates):
        cells = [str(i)] + [f"{v:.8f}" for v in row]
        if assignments is not None:
            cells.append(str(int(assignments[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
