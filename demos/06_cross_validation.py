"""Repeated stratified cross-validation across the three pipeline modes,
with the R{repeat}-F{fold} accuracy layout.

Run: python demos/06_cross_validation.py
"""

import numpy as np

from iotrisk.dataset import SynthesisSpec, synthesize_corpus
from iotrisk.encoding import CorpusEncoder
from iotrisk.ensemble import ModelSpec
from iotrisk.evaluation import cross_validate, make_fold_plan
from iotrisk.pipeline import PipelineConfig, build_design
from iotrisk.reporting import cv_report


def main():
    records = synthesize_corpus(SynthesisSpec(seed=23, total=300, signal_strength=0.6))
    labels = np.array([int(r.risk_score) for r in records])

    plan = make_fold_plan(labels, k=5, repeats=2, seed=8)
    sizes = [np.bincount(a, minlength=5).tolist() for a in plan.assignments]
    print(f"fold sizes per repeat: {sizes}")

    encoder = CorpusEncoder.fit(records)
    encoded = encoder.transform(records)
    params = {"n_stages": 40, "learning_rate": 0.1, "max_depth": 3}
    spec = ModelSpec("gbdt", params, seed=8)
    modes = ("wo_dr", "tsne", "pca")
    designs = [build_design(encoded, PipelineConfig(mode=mode, seed=8))[0].data
               for mode in modes]
    runs = list(zip(modes, cross_validate([(spec, X) for X in designs], labels, plan)))

    print()
    print(cv_report("text", runs, k=5, repeats=2, seed=8, family="gbdt"))
    print("The reduced modes are reported for comparison; whether they help "
          "is an empirical question the table answers per corpus.")

    # each fold predicts its training folds' most common class everywhere
    baseline = [
        (labels[plan.test_indices(r, f)]
         == np.bincount(labels[plan.train_indices(r, f)]).argmax()).mean()
        for r in range(plan.repeats) for f in range(plan.k)
    ]
    print(f"majority-class baseline: {100 * np.mean(baseline):.1f}%")


if __name__ == "__main__":
    main()
