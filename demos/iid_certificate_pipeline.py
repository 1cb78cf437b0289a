"""Train a stochastic representation and certify its contrastive risk.

End to end at toy scale: synthesize a Gaussian mixture task, draw iid
contrastive tuples, minimise the bound-derived objective, then compute the
selection certificate on the training tuples and sanity-check it against a
fresh held-out estimate. Takes a few seconds.

The CLI wraps exactly this flow (gen-data / train / bound / eval); see the
README for the command versions.
"""

import numpy as np

from pbcurl import data, evaluation, network, training

rng = np.random.default_rng(11)

# 6 latent classes in 10 dimensions, well separated
model = data.random_gaussian_model(dim=10, n_classes=6, separation=3.0, std=1.0, rng=rng)
train = data.sample_contrastive_iid(model, m=4000, k=4, block_size=2, rng=rng)
heldout = data.sample_contrastive_iid(model, m=2000, k=4, block_size=2, rng=rng)
print(f"{len(train)} training tuples, k={train.k}, block={train.block_size}")

cfg = training.TrainConfig(
    layer_sizes=(10, 16, 8), objective="iid", k=4, block_size=2,
    epochs=60, batch_size=200, lr=1e-3, lam=0.5, seed=3,
)
record = training.train(cfg, train)["pb"]
print(f"trained {record.stopped_epoch} epochs, "
      f"objective {record.epochs[0]['train_objective']:.1f}"
      f" -> {record.epochs[-1]['train_objective']:.1f}")

# certificate on the training tuples (this is the selection criterion)
report = training.selection_certificate(
    cfg.layer_sizes, record.final_posterior, record.final_prior, train,
    grid_b=cfg.grid_b, grid_c=cfg.grid_c, delta=cfg.delta,
    loss_kind=cfg.loss_kind, objective="iid",
    n_samples=10, rng=np.random.default_rng(99),
)
print(f"empirical risk {report.empirical_risk:.4f}  "
      f"KL {report.divergence_value:.1f}  certificate {report.bound_value:.4f}")

# the held-out risk the certificate is supposed to cover
held_risk, draws = evaluation.mc_posterior_risk(
    cfg.layer_sizes, record.final_posterior, heldout, 10,
    "zero-one", cfg.loss_kind, np.random.default_rng(99),
)
print(f"held-out risk {held_risk:.4f}  covered: {held_risk <= report.bound_value}")

# downstream: mean classifiers on labeled samples through the trained features
labeled = data.sample_labeled(model, 600, np.random.default_rng(5))
test = data.sample_labeled(model, 600, np.random.default_rng(6))
reps = [
    data.LabeledDataset(network.forward(cfg.layer_sizes, record.final_posterior.mu, s.x), s.y)
    for s in (labeled, test)
]
metrics = evaluation.evaluate_representation(*reps, rng=np.random.default_rng(7))
print("avg2 {avg2:.3f}  top1 {top1:.3f}  top5 {top5:.3f}".format(**metrics))
