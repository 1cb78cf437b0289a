"""Dependent data: windowed tuples from sequences and the chi-square bound.

Contrastive tuples built from a time series overlap, so they are not iid;
the certificate has to pay for the dependence. The moment term grows with
the dependency length T (tuples closer than T frames share information) and
the divergence switches from KL to chi-square. This script builds an AR(1)
corpus, trains the dependent-data objective, and prints the certificate
alongside what the same numbers would give if dependence were ignored.
"""

import numpy as np

from pbcurl import bounds, data, evaluation, training

rng = np.random.default_rng(8)

# 8 classes, 12 sequences each, 40 steps of an AR(1) around the class mean
model = data.random_gaussian_model(dim=8, n_classes=8, separation=3.0, std=1.0, rng=rng)
seqs, labels = data.gen_sequences(
    model, n_per_class=12, length=40, ar_coeff=0.7, rng=rng
)
train = data.build_noniid_from_sequences(seqs, labels, k=4, block_size=2, rng=rng)
print(f"{len(train)} tuples from {len(seqs)} sequences, dependency T = {train.dependency_t}")

cfg = training.TrainConfig(
    layer_sizes=(8, 16, 8), objective="noniid", k=4, block_size=2,
    epochs=150, batch_size=100, lr=1e-3, lam=0.1, seed=21,
)
record = training.train(cfg, train)["pb"]
print(f"objective {record.epochs[0]['train_objective']:.2f}"
      f" -> {record.epochs[-1]['train_objective']:.2f}")

post, prior = record.final_posterior, record.final_prior
report = training.selection_certificate(
    cfg.layer_sizes, post, prior, train,
    grid_b=cfg.grid_b, grid_c=cfg.grid_c, delta=cfg.delta,
    loss_kind=cfg.loss_kind, objective="noniid",
    n_samples=10, rng=np.random.default_rng(99),
)
print(f"empirical risk {report.empirical_risk:.4f}  "
      f"chi2 {report.divergence_value:.3f}  certificate {report.bound_value:.4f}")

# what the penalty looks like if tuple dependence were (wrongly) ignored
naive = bounds.selection_bound_noniid(
    report.empirical_risk, report.j, report.extras["chi2_log1p"], len(train), cfg.delta, 0
)
print(f"same numbers with T=0 (iid pretence): {naive:.4f}  "
      f"(1+8T inflation = {1 + 8 * train.dependency_t}x inside the sqrt)")

# held-out sequences from the same process
te_seqs, te_labels = data.gen_sequences(model, 4, 40, 0.7, np.random.default_rng(9))
heldout = data.build_noniid_from_sequences(
    te_seqs, te_labels, k=4, block_size=2, rng=np.random.default_rng(10)
)
held_risk, _ = evaluation.mc_posterior_risk(
    cfg.layer_sizes, post, heldout, 10, "zero-one", cfg.loss_kind,
    np.random.default_rng(99),
)
print(f"held-out risk {held_risk:.4f}  covered: {held_risk <= report.bound_value}")
