"""Release gate: every criterion checked at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible even with output
capture on) so a full run doubles as the acceptance checklist.  Oracles are
self-contained: dense joint-Gaussian conditioning via ``np.linalg.solve`` and
``scipy.spatial.distance.cdist``, independent of the library's kernel and
factorization code paths.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from gpde import (
    BenchmarkSpec,
    Dataset,
    GpdeModel,
    Hyperparams,
    ShiftConfig,
    UndefinedMetricError,
    adapted_posterior,
    auc_roc,
    classification_rate,
    expert_weights,
    f1_score,
    fit,
    fuse,
    log_marginal_likelihood,
    pca_apply,
    pca_fit,
    posterior,
    predict,
    run_benchmark,
    synth_shift,
    train_expert,
    train_source_experts,
)


class _Check:
    ok = False
    detail = ""


@contextlib.contextmanager
def criterion(capsys, name):
    """Run one acceptance check, always emitting a visible PASS/FAIL line."""
    state = _Check()
    try:
        yield state
    except BaseException as exc:
        with capsys.disabled():
            print(f"[FAIL] {name}: raised {exc!r}")
        raise
    line = f"[{'PASS' if state.ok else 'FAIL'}] {name}: {state.detail}"
    with capsys.disabled():
        print(line)
    assert state.ok, line


def _rbf(A, B, h: Hyperparams) -> np.ndarray:
    d2 = cdist(np.atleast_2d(A), np.atleast_2d(B), "sqeuclidean")
    return h.signal_std**2 * np.exp(-0.5 * d2 / h.length_scale**2)


def _condition(X, Y, X_star, h: Hyperparams, noise_std: float):
    """Dense joint-Gaussian conditioning (the reference implementation)."""
    K = _rbf(X, X, h) + noise_std**2 * np.eye(len(X))
    Ks = _rbf(X, X_star, h)
    sol = np.linalg.solve(K, Ks)
    mean = sol.T @ Y
    var = np.diag(_rbf(X_star, X_star, h) - Ks.T @ sol).copy()
    return mean, var


def _random_hyper(rng) -> Hyperparams:
    return Hyperparams(
        length_scale=float(rng.uniform(0.4, 2.0)),
        signal_std=float(rng.uniform(0.5, 1.5)),
        noise_std=float(rng.uniform(0.05, 0.6)),
    )


def test_posterior_matches_dense_conditioning(capsys):
    with criterion(capsys, "posterior equals dense conditioning "
                           "(50 cases, atol 1e-8, < 10 s)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            n, d, co = rng.integers(1, 11), rng.integers(1, 4), rng.integers(1, 3)
            h = _random_hyper(rng)
            data = Dataset(rng.normal(size=(n, d)), rng.normal(size=(n, co)), "dom")
            Xs = rng.normal(size=(4, d))
            pred = posterior(train_expert(data, h), Xs)
            mean, var = _condition(data.X, data.Y, Xs, h, h.noise_std)
            worst = max(worst, float(np.max(np.abs(pred.mean - mean))),
                        float(np.max(np.abs(pred.variance - var))))
        elapsed = time.perf_counter() - t0
        c.ok = worst < 1e-8 and elapsed < 10.0
        c.detail = f"max abs err {worst:.2e}, {elapsed:.1f} s"


def test_adaptation_matches_union_conditioning(capsys):
    with criterion(capsys, "adapted posterior equals conditioning on source+target "
                           "(50 cases, atol 1e-8, < 10 s)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(50):
            ns, nt = rng.integers(2, 9), rng.integers(1, 6)
            d, co = rng.integers(1, 4), rng.integers(1, 3)
            h = _random_hyper(rng)
            source = Dataset(rng.normal(size=(ns, d)), rng.normal(size=(ns, co)), "s")
            target = Dataset(rng.normal(size=(nt, d)), rng.normal(size=(nt, co)), "t")
            Xs = rng.normal(size=(4, d))
            pred = adapted_posterior(train_expert(source, h), target, Xs)
            mean, var = _condition(np.vstack([source.X, target.X]),
                                   np.vstack([source.Y, target.Y]), Xs, h, h.noise_std)
            worst = max(worst, float(np.max(np.abs(pred.mean - mean))),
                        float(np.max(np.abs(pred.variance - var))))
        elapsed = time.perf_counter() - t0
        c.ok = worst < 1e-8 and elapsed < 10.0
        c.detail = f"max abs err {worst:.2e}, {elapsed:.1f} s"


def test_objective_gradient_matches_finite_differences(capsys):
    with criterion(capsys, "marginal-likelihood gradient matches central differences "
                           "(100 draws, rtol 1e-5, < 30 s)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            n, d, co = rng.integers(2, 9), rng.integers(1, 4), rng.integers(1, 3)
            data = Dataset(rng.normal(size=(n, d)), rng.normal(size=(n, co)), "dom")
            h = _random_hyper(rng)
            _, grad = log_marginal_likelihood(data, h)
            z = np.array(h.to_log())
            fd = np.empty(3)
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[j] += step
                zm[j] -= step
                up, _ = log_marginal_likelihood(data, Hyperparams.from_log(zp))
                dn, _ = log_marginal_likelihood(data, Hyperparams.from_log(zm))
                fd[j] = (up - dn) / (2.0 * step)
            used = np.abs(grad - fd) / (1e-5 * np.abs(fd) + 1e-7)
            worst = max(worst, float(np.max(used)))
            if np.any(used > 1.0):
                c.detail = f"gradient mismatch: analytic {grad}, numeric {fd}"
                return
        elapsed = time.perf_counter() - t0
        c.ok = elapsed < 30.0
        c.detail = f"worst error at {worst:.1%} of tolerance, {elapsed:.1f} s"


def test_fusion_identities(capsys):
    with criterion(capsys, "precision-weighted fusion identities "
                           "(1000 draws, atol 1e-12, < 5 s)") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(104)
        worst = 0.0
        hull_slack = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            t, co = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            means = [rng.normal(scale=2.0, size=(t, co)) for _ in range(m)]
            variances = [rng.uniform(1e-4, 5.0, size=t) for _ in range(m)]
            betas = rng.uniform(0.1, 1.0, size=m)
            if m > 1 and rng.random() < 0.3:
                betas[rng.integers(m)] = 0.0  # dropped experts must be skipped exactly
            betas /= betas.sum()
            mu, v = fuse(means, variances, betas)

            active = betas > 0.0
            prec = sum(b / var for b, var in zip(betas, variances) if b > 0.0)
            v_ref = 1.0 / prec
            mu_ref = v_ref[:, None] * sum(
                b * mn / var[:, None]
                for b, mn, var in zip(betas, means, variances) if b > 0.0
            )
            worst = max(worst, float(np.max(np.abs(v - v_ref))),
                        float(np.max(np.abs(mu - mu_ref))))
            act_means = np.stack([mn for mn, a in zip(means, active) if a])
            hull_slack = max(
                hull_slack,
                float(np.max(act_means.min(axis=0) - mu)),
                float(np.max(mu - act_means.max(axis=0))),
            )
            if m == 1:
                assert np.array_equal(mu, means[0]) and np.array_equal(v, variances[0])

        # no-source degeneracy: a lone target expert passes through unchanged
        rng2 = np.random.default_rng(105)
        data = Dataset(rng2.normal(size=(6, 2)), rng2.choice([-1.0, 1.0], (6, 1)), "t")
        expert = train_expert(data, Hyperparams(1.0, 1.0, 0.2))
        model = GpdeModel(sources=[], target=expert)
        Xs = rng2.normal(size=(5, 2))
        direct = posterior(expert, Xs)
        fused = predict(model, Xs)
        assert np.array_equal(fused.mean, direct.mean)
        assert np.array_equal(fused.variance, direct.variance)

        elapsed = time.perf_counter() - t0
        c.ok = worst < 1e-12 and hull_slack < 1e-9 and elapsed < 5.0
        c.detail = (f"max identity err {worst:.2e}, hull overshoot "
                    f"{hull_slack:.2e}, {elapsed:.1f} s")


def test_adaptation_never_increases_variance(capsys):
    with criterion(capsys, "adapted variance bounded by source variance and "
                           "monotone in target size (50 cases, +1e-8)") as c:
        rng = np.random.default_rng(106)
        worst = -np.inf
        for _ in range(50):
            ns, nt, d = rng.integers(3, 11), rng.integers(2, 7), rng.integers(1, 4)
            h = _random_hyper(rng)
            source = Dataset(rng.normal(size=(ns, d)), rng.normal(size=(ns, 1)), "s")
            expert = train_expert(source, h)
            tx, ty = rng.normal(size=(nt, d)), rng.normal(size=(nt, 1))
            Xs = rng.normal(size=(5, d))
            prev = posterior(expert, Xs).variance
            for k in range(1, nt + 1):
                cur = adapted_posterior(expert, Dataset(tx[:k], ty[:k], "t"), Xs).variance
                worst = max(worst, float(np.max(cur - prev)))
                prev = cur
        c.ok = worst <= 1e-8
        c.detail = f"max variance increase {worst:.2e}"


def test_metric_hand_examples(capsys):
    with criterion(capsys, "metric unit checks (exact hand-computed values)") as c:
        assert classification_rate(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
        assert classification_rate(np.arange(10), np.arange(10) % 5) == 0.5
        assert classification_rate(np.array([1, 2, 2, 3]), np.array([1, 2, 3, 3])) == 0.75

        ones = np.array([1.0, 1.0, -1.0])
        assert f1_score(ones, ones) == 1.0
        assert f1_score(-np.ones(4), -np.ones(4)) == 0.0
        assert f1_score(np.array([1, 1, 1, -1.0]), np.array([1, 1, -1, 1.0])) == 4 / 6

        assert auc_roc(np.array([0.3, 0.2, 0.9]), np.array([-1, -1, 1.0])) == 1.0
        assert auc_roc(np.zeros(4), np.array([1, -1, 1, -1.0])) == 0.5
        assert auc_roc(np.array([0.9, 0.4, 0.6, 0.1]), np.array([1, -1, 1, -1.0])) == 1.0
        with pytest.raises(UndefinedMetricError):
            auc_roc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
        c.ok = True
        c.detail = "9 examples exact, single-class input rejected"


def test_hyperparameters_recovered_from_sampled_data(capsys):
    with criterion(capsys, "hyperparameter recovery on sampled data "
                           "(N=200, median rel err < 25%, < 2 min)") as c:
        t0 = time.perf_counter()
        true = Hyperparams(length_scale=1.2, signal_std=1.0, noise_std=0.3)
        rel = []
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            X = rng.uniform(-3.0, 3.0, size=(200, 2))
            K = _rbf(X, X, true) + true.noise_std**2 * np.eye(200)
            Y = np.linalg.cholesky(K) @ rng.normal(size=(200, 2))
            est = fit([Dataset(X=X, Y=Y, domain_id="draw")])
            rel.append([
                abs(est.length_scale - true.length_scale) / true.length_scale,
                abs(est.signal_std - true.signal_std) / true.signal_std,
                abs(est.noise_std - true.noise_std) / true.noise_std,
            ])
        med = np.median(rel, axis=0)
        elapsed = time.perf_counter() - t0
        c.ok = bool(np.all(med < 0.25)) and elapsed < 120.0
        c.detail = (f"median rel err ell {med[0]:.3f}, signal {med[1]:.3f}, "
                    f"noise {med[2]:.3f}, {elapsed:.0f} s")


def test_synthetic_benchmark_trends(capsys):
    with criterion(capsys, "benchmark trends on the default synthetic shift "
                           "(10 folds, < 5 min)") as c:
        t0 = time.perf_counter()
        spec = BenchmarkSpec(methods=("gp_source", "gp_target", "gpa", "gpde"),
                             schedule=(10, 30, 50, 100), folds=10,
                             metrics=("acc",), seed=0)
        result = run_benchmark(spec, shift_cfg=ShiftConfig())
        acc = {m: [result.mean(m, n, "acc") for n in spec.schedule]
               for m in spec.methods}
        t = acc["gp_target"]
        drops = [max(0.0, t[i] - t[i + 1]) for i in range(len(t) - 1)]
        mono_ok = sum(g > 1e-12 for g in drops) <= 1 and max(drops) <= 0.01

        b_gap = min(
            acc["gpde"][i] - max(acc["gp_source"][i], acc["gp_target"][i])
            for i in range(len(spec.schedule))
        )
        c_gap = acc["gpde"][-1] - acc["gpa"][-1]
        elapsed = time.perf_counter() - t0
        c.ok = (mono_ok and b_gap >= -0.02 - 1e-12 and c_gap >= -1e-12
                and elapsed < 300.0)
        c.detail = (f"target monotone (max drop {max(drops):.4f}), fusion vs best "
                    f"baseline {b_gap:+.4f} (floor -0.02), fusion vs adapted "
                    f"{c_gap:+.4f} at n_t=100, {elapsed:.0f} s")


def test_target_expert_weight_grows_with_target_data(capsys):
    with criterion(capsys, "mean target-expert weight grows from n_t=10 to n_t=50 "
                           "(10 seeds)") as c:
        seeds = [int(s) for s in np.random.SeedSequence(0).generate_state(10)]
        w10, w50 = [], []
        for seed in seeds:
            cfg = ShiftConfig(seed=seed)
            sources, pool, test = synth_shift(cfg)
            proj = pca_fit(np.concatenate([s.X for s in sources]), 0.99)
            as_data = lambda d: Dataset(pca_apply(proj, d.X), d.Y, d.domain_id)
            sources = [as_data(s) for s in sources]
            pool, test = as_data(pool), as_data(test)
            experts = train_source_experts(sources)
            for n_t, sink in ((10, w10), (50, w50)):
                target = Dataset(pool.X[:n_t], pool.Y[:n_t], "target_train")
                model = GpdeModel(experts, train_expert(target, fit([target])))
                W = expert_weights(model, test.X)
                sink.append(float(W[:, -1].mean()))
        mean10, mean50 = float(np.mean(w10)), float(np.mean(w50))
        c.ok = mean50 > mean10
        c.detail = f"mean weight {mean10:.3f} at n_t=10 vs {mean50:.3f} at n_t=50"
