# Building a committee of domain experts and fusing their predictions by
# precision weighting. Uses the synthetic covariate-shift generator: several
# source domains, one scarce target domain, shared label function.
# Run with: python3 demos/03_expert_fusion.py

import numpy as np

from gpde import (
    Dataset,
    GpdeModel,
    ShiftConfig,
    expert_weights,
    multilabel_report,
    predict,
    synth_shift,
    train_gpde,
    train_target_expert,
)

cfg = ShiftConfig(seed=42)
sources, target_pool, test = synth_shift(cfg)
print(f"{len(sources)} source domains x {sources[0].n} samples, "
      f"target pool {target_pool.n}, test {test.n}, {cfg.dims} features, "
      f"{cfg.n_outputs} outputs")

# Train per-domain source experts (one shared hyperparameter triple) plus a
# target expert on 50 labeled target points, with uniform committee weights.
n_t = 50
target = Dataset(target_pool.X[:n_t], target_pool.Y[:n_t], "target_train")
model = train_gpde(sources, target)
print(f"shared source hyperparameters: {model.sources[0].hyper}")
print(f"target hyperparameters:        {model.target.hyper}")

# ---------------------------------------------------------------------------
# Fused predictions
# ---------------------------------------------------------------------------
fused = predict(model, test.X)
report = multilabel_report(test.Y, fused.labels, fused.mean)
acc = np.mean(fused.labels == test.Y)
print(f"\nfused committee:  accuracy {acc:.3f}  macro F1 {report.macro_f1:.3f}  "
      f"macro AUC {report.macro_auc:.3f}")

# Compare against the target expert alone (strip the sources from the model).
solo = train_gpde([], target)
solo_pred = predict(solo, test.X)
solo_acc = np.mean(solo_pred.labels == test.Y)
print(f"target expert:    accuracy {solo_acc:.3f}")

# ---------------------------------------------------------------------------
# Who gets listened to where?
# ---------------------------------------------------------------------------
# Per-point normalized weights: columns are the source experts in order, the
# target expert last. Confident (low variance) experts dominate.
W = expert_weights(model, test.X)
names = [e.data.domain_id for e in model.sources] + [model.target.data.domain_id]
print("\nmean expert weight on the test set:")
for name, w in zip(names, W.mean(axis=0)):
    print(f"  {name:13s} {w:.3f}")

# The same committee re-pointed at a bigger target set leans on the target
# expert more, because its predictive variance drops with more data.
for m in (10, 200):
    bigger = GpdeModel(model.sources,
                       train_target_expert(Dataset(target_pool.X[:m], target_pool.Y[:m], "t")))
    w_t = expert_weights(bigger, test.X)[:, -1].mean()
    print(f"mean target-expert weight with {m:3d} target points: {w_t:.3f}")
