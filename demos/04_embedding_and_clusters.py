"""The optional reduction stages: PCA, exact t-SNE, k-means, and the
cluster-id column that joins the feature matrix.

Run: python demos/04_embedding_and_clusters.py
"""

import numpy as np

from iotrisk.dataset import SynthesisSpec, synthesize_corpus
from iotrisk.dimred import (
    TsneConfig,
    cluster_frequencies,
    embedding_to_csv,
    kmeans_fit,
    pca_fit,
    pca_transform,
    tsne_embed,
)
from iotrisk.encoding import CorpusEncoder


def main():
    records = synthesize_corpus(SynthesisSpec(seed=11, total=220, signal_strength=0.8))
    encoded = CorpusEncoder.fit(records).transform(records)

    pca = pca_fit(encoded.data)  # default: smallest count keeping >= 95% variance
    print(f"PCA keeps {len(pca.components)} components; "
          f"variance ratios: {np.round(pca.explained_variance_ratio, 3)}")
    scores = pca_transform(encoded.data, pca)

    embedding = tsne_embed(
        encoded.data, TsneConfig(perplexity=25, n_iter=500, seed=3)
    )
    print(f"t-SNE: KL {embedding.kl_initial:.3f} -> {embedding.kl_final:.3f} "
          f"over 500 iterations")

    km = kmeans_fit(embedding.coordinates, k=4, seed=5)
    print(f"k-means on the embedding: inertia {km.inertia:.2f} "
          f"after {km.n_iter} iterations, sizes "
          f"{np.bincount(km.assignments, minlength=4).tolist()}")

    # the cluster id joins the matrix as its cluster's relative size, the
    # frequency representation of the other categorical features
    column = cluster_frequencies(km.assignments, 4)[km.assignments]
    augmented = np.column_stack([encoded.data, column])
    print(f"augmented matrix: {augmented.shape[1]} columns, cluster column values "
          f"{np.unique(column).round(3).tolist()}")

    purity = 0
    for j in range(4):
        members = encoded.labels[km.assignments == j]
        if members.size:
            purity += np.bincount(members, minlength=4).max()
    print(f"cluster/label purity at signal 0.8: {purity / len(records):.2f}")

    csv_head = embedding_to_csv(embedding.coordinates, km.assignments).splitlines()[:3]
    print("embedding CSV export (first rows):")
    for line in csv_head:
        print(f"  {line}")

    # pca-mode pipelines cluster the principal scores instead
    km_scores = kmeans_fit(scores, k=4, seed=5)
    print(f"k-means on PCA scores: inertia {km_scores.inertia:.2f}")


if __name__ == "__main__":
    main()
