"""How class collision floors the unsupervised contrastive loss.

A negative example is drawn from the class marginal rho, so with probability
tau it lands in the anchor's own class. On those tuples no representation
can separate positive from negative, which keeps the expected unsupervised
loss away from zero no matter how good the features are. This script builds
a small discrete task where everything is exactly enumerable and walks the
pieces: tau, its k-negative version tau_k, the conditional collision loss,
and the transfer inequality connecting unsupervised and supervised risk.
"""

import dataclasses

import numpy as np

from pbcurl import bounds, oracle

rng = np.random.default_rng(42)

# three latent classes, moderately unbalanced
rho = np.array([0.5, 0.3, 0.2])
print("class marginal rho:", rho)
print("collision probability tau =", bounds.tau_collision(rho))

# with k negatives a collision only needs one of them to hit the anchor class
for k in (1, 2, 4, 8):
    print(f"  k={k}: tau_k = {bounds.tau_k(rho, k):.4f}")

# conditional expected loss given at least one collision, logistic loss:
# even a perfect representation pays log2(1 + #collisions) on those tuples
for k in (1, 2, 4):
    ct = bounds.collision_term(rho, k, "logistic")
    print(f"logistic collision term, k={k}: {ct:.4f}")
print("hinge collision term is always 1:", bounds.collision_term(rho, 3, "hinge"))

# Now the transfer inequality on an exactly enumerable instance. The oracle
# enumerates every tuple, so both sides are computed without sampling.
inst = oracle.random_instance(rng, max_classes=3, max_support=4, max_dim=3)
for kind in ("logistic", "hinge"):
    lhs, rhs, ok = oracle.check_collision_transfer(inst, kind)
    print(f"{kind}: supervised mean-classifier loss {lhs:.4f} <= transfer bound {rhs:.4f}  ({ok})")

# A collapsed representation (every input mapped to the same point) leaves
# the mean classifier no signal: its supervised loss meets the bound exactly.
inst_flat = dataclasses.replace(
    inst, f_table=np.tile(inst.f_table[:1], (inst.f_table.shape[0], 1))
)
lhs, rhs, _ = oracle.check_collision_transfer(inst_flat, "logistic")
print(f"collapsed features: supervised mean-classifier loss = bound = {lhs:.4f}")

# And a point-mass marginal makes collision certain: tau_k = 1 whatever k is.
print("point mass tau_k:", bounds.tau_k(np.array([1.0, 0.0]), 5))
