import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from iotrisk import dimred
from iotrisk.dimred import (
    TsneConfig,
    cluster_frequencies,
    conditional_probabilities,
    embedding_to_csv,
    joint_probabilities,
    kmeans_assign,
    kmeans_fit,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    tsne_embed,
)
from iotrisk.dataset import SynthesisSpec, bundled_corpus_path, load_corpus, synthesize_corpus
from iotrisk.encoding import CorpusEncoder
from iotrisk.errors import ConfigError, DomainError
from iotrisk.pipeline import (
    PipelineConfig,
    build_design,
    fit_design,
    fit_pipeline,
    predict_devices,
)

from conftest import src_env


def brute_force_pca(X):
    """Oracle: explicit covariance accumulation + eigendecomposition."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    means = X.mean(axis=0)
    cov = np.zeros((d, d))
    for row in X:
        delta = row - means
        for i in range(d):
            for j in range(d):
                cov[i, j] += delta[i] * delta[j]
    cov /= n - 1
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], eigenvectors[:, order].T


class TestPca:
    def test_rank_one_line(self):
        t = np.linspace(-2, 2, 30)
        X = np.column_stack([t, 2 * t])
        model = pca_fit(X, n_components=2)
        direction = np.array([1.0, 2.0]) / np.sqrt(5)
        assert abs(model.components[0] @ direction) == pytest.approx(1.0)
        assert model.explained_variance_ratio == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_isotropic_cloud(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4000, 2))
        model = pca_fit(X, n_components=2)
        assert model.explained_variance_ratio == pytest.approx([0.5, 0.5], abs=0.05)

    @pytest.mark.parametrize("shape", [(5, 3), (50, 8)])
    def test_matches_brute_force_eigendecomposition(self, shape):
        rng = np.random.default_rng(1)
        X = rng.normal(size=shape)
        k = min(shape) if shape[0] > shape[1] else shape[1] - 1
        model = pca_fit(X, n_components=min(k, min(shape)))
        eigenvalues, eigenvectors = brute_force_pca(X)
        total = eigenvalues.sum()
        for i, component in enumerate(model.components):
            cosine = abs(component @ eigenvectors[i])
            assert cosine > 1 - 1e-8, i
            assert model.explained_variance_ratio[i] == pytest.approx(
                eigenvalues[i] / total, rel=1e-9
            )

    def test_transform_is_centered(self):
        rng = np.random.default_rng(2)
        X = rng.normal(5.0, 2.0, size=(40, 4))
        model = pca_fit(X, n_components=3)
        scores = pca_transform(X, model)
        assert np.all(np.abs(scores.mean(axis=0)) < 1e-9)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 5))
        model = pca_fit(X, n_components=5)
        reconstructed = pca_inverse_transform(pca_transform(X, model), model)
        centered = X - X.mean(axis=0)
        rebuilt = reconstructed - X.mean(axis=0)
        relative = np.linalg.norm(rebuilt - centered) / np.linalg.norm(centered)
        assert relative < 1e-6

    def test_components_orthonormal(self):
        rng = np.random.default_rng(4)
        model = pca_fit(rng.normal(size=(30, 6)), n_components=4)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-9)

    def test_default_component_count_95_percent(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(300, 3)) * np.array([30.0, 10.0, 0.01])
        model = pca_fit(base)
        assert len(model.components) == 2

    def test_out_of_range_components(self):
        with pytest.raises(DomainError):
            pca_fit(np.eye(3), n_components=4)

    def test_empty_matrix(self):
        with pytest.raises(DomainError):
            pca_fit(np.empty((0, 3)))


class TestTsne:
    def test_three_equidistant_points_uniform(self):
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        P = joint_probabilities(triangle, perplexity=1.9)
        off_diagonal = P[~np.eye(3, dtype=bool)]
        assert off_diagonal == pytest.approx([1 / 6] * 6)
        assert np.diag(P).tolist() == [0.0, 0.0, 0.0]

    def test_joint_matrix_properties(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        P = joint_probabilities(X, perplexity=10)
        assert np.allclose(P, P.T)
        assert (P >= 0).all()
        assert abs(P.sum() - 1.0) < 1e-9

    def test_conditional_perplexity_calibration(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 5))
        target = 12.0
        P = conditional_probabilities(X, target)
        for i in range(40):
            row = P[i][P[i] > 0]
            entropy = -(row * np.log2(row)).sum()
            assert abs(2.0**entropy - target) <= 1e-3

    def test_duplicated_pair_are_mutual_nearest_neighbors(self):
        rng = np.random.default_rng(0)
        points = np.vstack(
            [[0.0, 0.0], [0.0, 0.0], 10 + rng.normal(scale=0.5, size=(6, 2))]
        )
        embedding = tsne_embed(points, TsneConfig(perplexity=3, n_iter=500, seed=1))
        Y = embedding.coordinates
        d2 = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert d2[0].argmin() == 1 and d2[1].argmin() == 0

    def test_final_kl_below_initial(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        embedding = tsne_embed(X, TsneConfig(perplexity=8, seed=2))
        assert embedding.kl_final < embedding.kl_initial
        assert np.isfinite(embedding.coordinates).all()

    def test_infeasible_perplexity(self):
        with pytest.raises(ConfigError):
            joint_probabilities(np.eye(5), perplexity=5)

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            tsne_embed(np.eye(3), TsneConfig(perplexity=1.5))


def seed_joint_probabilities(X, perplexity):
    """Oracle: the original calibration, with the distances, the
    conditional affinities and their symmetrized sum each a fresh n x n
    array."""
    n = X.shape[0]
    norms = (X * X).sum(axis=1)
    d2 = norms[:, None] + norms[None, :]
    gram = X @ X.T
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    C = np.zeros((n, n))
    for i in range(n):
        others = np.delete(d2[i], i)
        beta, beta_lo, beta_hi = 1.0, 0.0, np.inf
        for _ in range(dimred._PERPLEXITY_STEPS):
            kernel = np.exp(-others * beta)
            total = kernel.sum()
            if total <= 0:
                row = np.full_like(others, 1.0 / len(others))
            else:
                row = kernel / total
            entropy = -(row * np.log2(np.maximum(row, np.finfo(float).tiny))).sum()
            current = 2.0**entropy
            if abs(current - perplexity) <= dimred._PERPLEXITY_TOL:
                break
            if current > perplexity:
                beta_lo = beta
                beta = beta * 2.0 if np.isinf(beta_hi) else (beta + beta_hi) / 2.0
            else:
                beta_hi = beta
                beta = beta / 2.0 if beta_lo == 0.0 else (beta + beta_lo) / 2.0
        C[i, np.arange(n) != i] = row
    return (C + C.T) / (2.0 * n)


def seed_tsne(X, config):
    """Oracle: the original descent loop, which evaluated the KL divergence
    and the gradient together each iteration, with fresh n x n temporaries
    and an n x n diagonal matrix."""
    tiny = np.finfo(float).tiny

    def kl_and_gradient(P, Y):
        norms = (Y * Y).sum(axis=1)
        d2 = norms[:, None] + norms[None, :] - 2.0 * (Y @ Y.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        kernel = 1.0 / (1.0 + d2)
        np.fill_diagonal(kernel, 0.0)
        Q = kernel / kernel.sum()
        kl = float((P * np.log(np.maximum(P, tiny) / np.maximum(Q, tiny))).sum())
        coeff = (P - Q) * kernel
        grad = 4.0 * ((np.diag(coeff.sum(axis=1)) - coeff) @ Y)
        return kl, grad

    P = seed_joint_probabilities(X, config.perplexity)
    Y = np.random.default_rng(config.seed).normal(
        scale=1e-4, size=(X.shape[0], dimred._TSNE_DIMS))
    kl_initial, _ = kl_and_gradient(P, Y)
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    for iteration in range(config.n_iter):
        early = iteration < config.exaggeration_iter
        momentum = dimred._MOMENTUM_EARLY if early else dimred._MOMENTUM_LATE
        target = P * dimred._EARLY_EXAGGERATION if early else P
        _, grad = kl_and_gradient(target, Y)
        agree = update * grad < 0.0
        gains[agree] += 0.2
        gains[~agree] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - dimred._TSNE_LEARNING_RATE * gains * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)
    kl_final, _ = kl_and_gradient(P, Y)
    return Y, kl_initial, kl_final


def clustered(n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(4, 5))
    return centers[rng.integers(4, size=n)] + rng.normal(size=(n, 5))


class TestTsneDescent:
    @pytest.mark.parametrize("n", [40, 64, 65, 200])
    def test_joint_probabilities_bit_identical_to_seed_formula(self, n):
        # calibration and symmetrization run in place over 64-row blocks:
        # less than one block, one whole block, one block plus a row, and a
        # partial last block
        X = clustered(n, seed=16)
        assert np.array_equal(joint_probabilities(X, 10.0),
                              seed_joint_probabilities(X, 10.0))

    def test_bit_identical_to_seed_iteration(self):
        # the descent works on 64-row blocks: 40 rows is less than one
        # block, 128 is two whole ones, 80 and 200 end in a partial one;
        # the oracle's Y @ Y.T (syrk) also pins the gemm Gram product
        for n, n_iter in [(40, 120), (80, 300), (128, 120), (200, 120)]:
            X = clustered(n, seed=14)
            config = TsneConfig(
                perplexity=10, n_iter=n_iter, exaggeration_iter=n_iter * 2 // 5, seed=3)
            embedding = tsne_embed(X, config)
            Y, kl_initial, kl_final = seed_tsne(X, config)
            assert np.array_equal(embedding.coordinates, Y), n
            assert embedding.kl_initial == kl_initial, n
            assert embedding.kl_final == kl_final, n

    def test_same_bits_at_any_blas_thread_count(self):
        # iotrisk is imported before numpy, as `python -m iotrisk` does, so
        # its one-thread BLAS pin holds; at 1,153 rows OpenBLAS's threaded
        # products (calibration Gram matrix, gradient) round differently
        script = "\n".join([
            "import iotrisk",
            "import hashlib",
            "import numpy as np",
            "from iotrisk.dimred import TsneConfig, _descend, joint_probabilities",
            "rng = np.random.default_rng(0)",
            "P = joint_probabilities(rng.normal(size=(1153, 10)), 30.0)",
            "Y = _descend(P, rng.normal(scale=1e-4, size=(1153, 2)), TsneConfig(n_iter=5))",
            "print(hashlib.sha256(P.tobytes() + Y.tobytes()).hexdigest())",
        ])
        digests = set()
        for threads in ("1", "2", "3"):
            done = subprocess.run([sys.executable, "-c", script],
                                  env=src_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr[-2000:]
            digests.add(done.stdout)
        assert len(digests) == 1

    def test_peak_memory_has_no_per_iteration_temporaries(self):
        # P plus one n x n buffer (the kernel in the descent, Q in a KL)
        # and a few 64-row blocks: 2.97 n^2 doubles at n = 200 and 2.44 at
        # n = 400; a second n x n buffer, an n x n temporary per iteration
        # or an exaggerated copy of P exceeds the bound
        for n, bound in [(200, 3.25), (400, 2.75)]:
            X = clustered(n, seed=15)
            tracemalloc.start()
            try:
                tsne_embed(X, TsneConfig(perplexity=20, n_iter=300, seed=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * n * n * 8, n


class TestKmeans:
    def test_two_obvious_clusters_exact(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        model = kmeans_fit(X, 2, seed=0)
        centroids = np.sort(model.centroids[:, 0])
        assert centroids[0] == np.mean([0.0, 0.1])
        assert centroids[1] == np.mean([10.0, 10.1])
        assert model.inertia == pytest.approx(0.01, rel=1e-9)

    def test_k_equals_rows_zero_inertia(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 2))
        model = kmeans_fit(X, 6, seed=1)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            kmeans_fit(np.eye(3), 4, seed=0)
        with pytest.raises(DomainError):
            kmeans_fit(np.eye(3), 0, seed=0)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(200, 2))
        model = kmeans_fit(X, 5, seed=3)
        diffs = np.diff(model.inertia_history)
        assert (diffs <= 1e-9).all()

    def test_same_seed_reproduces_model(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 3))
        a = kmeans_fit(X, 4, seed=7)
        b = kmeans_fit(X, 4, seed=7)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.assignments, b.assignments)

    def test_assignments_are_argmin(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 2))
        model = kmeans_fit(X, 4, seed=5)
        d2 = ((X[:, None, :] - model.centroids[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(model.assignments, d2.argmin(axis=1))

    def test_inertia_matches_assignments(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        model = kmeans_fit(X, 3, seed=2)
        implied = ((X - model.centroids[model.assignments]) ** 2).sum()
        assert abs(model.inertia - implied) < 1e-9

    def test_assign_new_rows(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        model = kmeans_fit(X, 2, seed=0)
        fresh = kmeans_assign(np.array([[0.2], [9.0]]), model)
        near_zero = model.assignments[0]
        assert fresh[0] == near_zero and fresh[1] != near_zero


class TestClusterFeature:
    def test_cluster_frequencies(self):
        assert cluster_frequencies([0, 0, 1, 2], 3).tolist() == [0.5, 0.25, 0.25]

    def test_design_column_is_scaled_cluster_size(self):
        records = synthesize_corpus(SynthesisSpec(seed=4, total=120, signal_strength=0.8))
        encoded = CorpusEncoder.fit(records).transform(records)
        design, artifacts = build_design(encoded, PipelineConfig(mode="pca", seed=3))
        assert design.columns[-1] == "cluster"
        assert np.array_equal(design.data[:, :-1], encoded.data)
        assignments = artifacts.kmeans.assignments
        sizes = cluster_frequencies(assignments, 4)[assignments]
        assert np.allclose(design.data[:, -1], (sizes - sizes.mean()) / sizes.std())

    @pytest.mark.parametrize("family, overrides", [
        ("gbdt", {"n_stages": 30}), ("rfc", {"n_trees": 10}),
    ])
    def test_training_rows_score_as_they_were_fitted(self, family, overrides):
        # the fitted stage applied to new rows (PCA scores -> nearest centroid)
        # gives the training rows the design they were fitted on
        records, _ = load_corpus(bundled_corpus_path())
        config = PipelineConfig(mode="pca", family=family, overrides=overrides, seed=7)
        encoder, pipeline = fit_pipeline(records, config)
        design = fit_design(records, config)[1]
        scored = np.array([p.probabilities for p in predict_devices(encoder, pipeline, records)])
        assert scored.tobytes() == pipeline.model.predict_proba(design.data).tobytes()

    def test_embedding_csv(self):
        text = embedding_to_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1])
        lines = text.splitlines()
        assert lines[0] == "row,dim0,dim1,cluster"
        assert len(lines) == 3
