# Gaussian process regression basics: sample a function from a known GP,
# fit the kernel hyperparameters back by marginal likelihood, and inspect
# the posterior. Run with: python3 demos/01_gp_regression.py

import numpy as np

from gpde import Dataset, Hyperparams, fit_detailed, kernel_matrix, posterior, train_expert

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# Sample noisy observations of a random smooth function
# ---------------------------------------------------------------------------
true = Hyperparams(length_scale=1.0, signal_std=1.0, noise_std=0.2)
X = rng.uniform(-3.0, 3.0, size=(120, 1))
K = kernel_matrix(X, h=true) + true.noise_std**2 * np.eye(len(X))
Y = np.linalg.cholesky(K) @ rng.normal(size=(len(X), 1))
data = Dataset(X=X, Y=Y, domain_id="demo")

print(f"true hyperparameters : {true}")

# ---------------------------------------------------------------------------
# Fit by L-BFGS-B on the log marginal likelihood
# ---------------------------------------------------------------------------
result = fit_detailed([data])
print(f"fitted               : {result.hyper}")
print(f"objective {result.objective:.2f} after {result.n_iter} iterations "
      f"(converged={result.converged})")

# The objective trace is non-decreasing; the last few entries show the plateau.
tail = ", ".join(f"{v:.3f}" for v in result.trace[-4:])
print(f"objective trace tail : {tail}")

# ---------------------------------------------------------------------------
# Posterior predictions
# ---------------------------------------------------------------------------
expert = train_expert(data, result.hyper)
X_star = np.linspace(-4.0, 4.0, 9).reshape(-1, 1)
pred = posterior(expert, X_star)

print("\n  x      mean    std")
for x, m, v in zip(X_star.ravel(), pred.mean.ravel(), pred.variance):
    print(f"{x:5.1f}  {m:7.3f}  {np.sqrt(v):5.3f}")

# Inside the data range the predictive std is small; outside it grows back
# toward the prior signal_std. That reversion is the hook the adaptation
# machinery relies on (see 02_adaptation.py).
inside = pred.variance[4]
outside = pred.variance[0]
print(f"\nvariance at x=0: {inside:.3f}   at x=-4: {outside:.3f} "
      f"(prior {result.hyper.signal_std**2:.3f})")
