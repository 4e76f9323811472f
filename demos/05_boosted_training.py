"""Train the boosted-tree classifier, inspect its loss curve, score a
held-out split, and predict fresh devices (including an unseen brand).

Run: python demos/05_boosted_training.py
"""

import dataclasses

from iotrisk.dataset import SynthesisSpec, synthesize_corpus
from iotrisk.evaluation import compute_metrics, stratified_split
from iotrisk.pipeline import PipelineConfig, fit_pipeline, predict_devices
from iotrisk.reporting import metrics_report


def main():
    records = synthesize_corpus(SynthesisSpec(seed=19, total=600, signal_strength=0.8))
    labels = [int(r.risk_score) for r in records]
    train_idx, test_idx = stratified_split(labels, 0.2, seed=4)
    train = [records[i] for i in train_idx]
    test = [records[i] for i in test_idx]

    config = PipelineConfig(family="gbdt", mode="wo_dr", seed=9,
                            overrides={"n_stages": 120})
    encoder, pipeline = fit_pipeline(train, config)
    history = pipeline.model.loss_history
    print(f"training deviance: {history[0]:.3f} (prior) -> {history[-1]:.3f} "
          f"after {len(pipeline.model.stages)} stages")

    encoded_test = encoder.transform(test)
    predicted = pipeline.model.predict(encoded_test.data)
    report = compute_metrics(encoded_test.labels, predicted)
    print()
    print(metrics_report("text", report, "held-out metrics (%)"))

    fresh = [
        dataclasses.replace(test[0], brand="brand_new_entrant"),
        test[1],
    ]
    predictions = predict_devices(encoder, pipeline, fresh)
    for i, p in enumerate(predictions):
        rounded = [round(float(v), 3) for v in p.probabilities]
        print(f"device {i}: {p.risk.name} {rounded} warnings={list(p.warnings)}")


if __name__ == "__main__":
    main()
