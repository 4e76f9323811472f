"""From device records to a numeric matrix: frequency encoding, standard
scaling, unseen-value smoothing, and the feature correlation matrix.

Run: python demos/03_encoding_and_correlation.py
"""

import dataclasses

import numpy as np

from iotrisk.dataset import SynthesisSpec, synthesize_corpus
from iotrisk.encoding import CorpusEncoder, correlation_matrix, fit_frequency


def main():
    records = synthesize_corpus(SynthesisSpec(seed=7, total=400, signal_strength=0.6))

    table = fit_frequency(records, "protocols")
    print("protocol frequencies over the corpus:")
    for value, share in sorted(table.frequencies.items(), key=lambda kv: -kv[1]):
        print(f"  {value:10s} {share:.3f}")

    encoder = CorpusEncoder.fit(records)
    encoded = encoder.transform(records)
    print(f"\nencoded matrix: {encoded.data.shape[0]} x {encoded.data.shape[1]}, "
          f"columns={', '.join(encoded.columns)}")
    print(f"per-column means ~0: {np.abs(encoded.data.mean(axis=0)).max():.2e}")
    print(f"per-column stds  ~1: {np.abs(encoded.data.std(axis=0) - 1).max():.2e}")

    # unseen categories at scoring time smooth to 1/(n_fit+1) and are
    # listed in the result's `unseen`
    probe = [dataclasses.replace(records[0], brand="never_seen")]
    row, feature, value = encoder.transform(probe).unseen[0]
    smoothed = 1.0 / (encoder.tables[feature].n_fit + 1)
    print(f"\nunseen {feature}={value!r} in row {row} encodes as frequency {smoothed:.6g}")

    report = correlation_matrix(encoded, include_label=True)
    print("\ncorrelation with the label (encoded columns):")
    label_row = report.matrix[-1]
    for name, value in sorted(zip(report.names, label_row), key=lambda kv: -abs(kv[1])):
        if name != "risk_score":
            print(f"  {name:25s} {value:+.3f}")
    if report.constant:
        print(f"constant columns: {report.constant}")


if __name__ == "__main__":
    main()
