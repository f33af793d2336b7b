"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is fixed here, not computed; stochastic criteria use the seeds
pinned in the package or in conftest.
"""

import itertools
import time

import numpy as np

from conftest import (DEFAULT_TABLE_SEEDS, at_order, augment, banded_gram,
                      block_constant_matrix, closed_form_ratio_matrix, elimination_det)
from permclass.benchmarks import accuracy_study, bench_orders
from permclass.classify import ModelParams, sequential_partition
from permclass.cyclic import build_ratio_table, ratio_approx, ratio_from_kt
from permclass.datasets import SplitPlan, gen_expression
from permclass.exact import (ewens_probability, iter_set_partitions,
                             partition_probability_exact, per_alpha_exact,
                             ratio_exact, ratio_exact_matrix)
from permclass.experiments import DEFAULT_TABLE1_SEED, run_chequerboard, run_microarray
from permclass.kernels import GramMatrix, Kernel, gram


def report(idx, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:2d} {name}: {status} ({detail}; "
          f"{elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {idx} ({name}): {detail}"
    assert elapsed < budget, f"criterion {idx} over budget: {elapsed:.1f}s"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    kernel = Kernel.gaussian(1.0)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(0, 4))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        pts = rng.normal(size=(n, 2))
        t = rng.normal(size=2)
        table = build_ratio_table(gram(kernel, pts), alpha, order=n)
        approx = ratio_approx(t, table)
        exact = ratio_exact(t, pts, kernel, alpha)
        worst = max(worst, abs(approx - exact) / abs(exact))
    elapsed = time.time() - t0
    report(1, "oracle equivalence k=n", worst <= 1e-10,
           f"max rel err {worst:.2e} <= 1e-10 over 50 configs", elapsed, 1.0)


def test_criterion_2_closed_form_exactness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst23 = 0.0
    k1_diag_worst = 0.0
    k1_offdiag_gaps = []
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            n = int(rng.integers(2, 10))
            G = np.diag(rng.uniform(0.5, 2.0, size=n))
            structure = "diagonal"
        elif kind == 1:
            n = int(rng.integers(2, 10))
            G = np.full((n, n), float(rng.uniform(0.3, 1.5)))
            structure = "constant"
        else:
            sizes = []
            while sum(sizes) < 2:
                sizes = rng.integers(1, 4, size=int(rng.integers(2, 4))).tolist()
            if max(sizes) == 1:
                sizes[0] = 2
            G = block_constant_matrix(sizes, rng.uniform(0.3, 1.5,
                                                         size=len(sizes)))
            n = G.shape[0]
            structure = "block_constant"
        kt = rng.random(n)
        ktt = float(rng.uniform(0.5, 1.5))
        alpha = float(rng.uniform(0.3, 2.0))
        exact = ratio_exact_matrix(augment(G, kt, ktt), alpha)
        closed = closed_form_ratio_matrix(G, kt, ktt, alpha, structure)
        table = build_ratio_table(GramMatrix.from_matrix(G), alpha, order=3)
        for k in (2, 3):
            approx = ratio_from_kt(at_order(table, k), kt, ktt)
            worst23 = max(worst23,
                          abs(approx - exact) / abs(exact),
                          abs(closed - exact) / abs(exact))
        r1 = ratio_from_kt(at_order(table, 1), kt, ktt)
        if structure == "diagonal":
            k1_diag_worst = max(k1_diag_worst, abs(r1 - exact) / abs(exact))
        else:
            k1_offdiag_gaps.append(abs(r1 - exact) / abs(exact))
    elapsed = time.time() - t0
    ok = (worst23 <= 1e-10 and k1_diag_worst <= 1e-10
          and np.median(k1_offdiag_gaps) > 1e-6)
    report(2, "closed-form exactness", ok,
           f"k=2,3 max rel err {worst23:.2e}; k=1 diagonal {k1_diag_worst:.2e}; "
           f"k=1 elsewhere median gap {np.median(k1_offdiag_gaps):.2e}",
           elapsed, 10.0)


def test_criterion_3_determinant_and_convolution():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_det = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(n, n))
        lhs = per_alpha_exact(A, -1.0)
        rhs = (-1.0) ** n * elimination_det(A)
        worst_det = max(worst_det, abs(lhs - rhs) / max(1.0, abs(rhs)))
    worst_conv = 0.0
    for _ in range(15):
        n = int(rng.integers(1, 8))
        B = rng.random((n, n))
        A = (B + B.T) / 2
        np.fill_diagonal(A, rng.uniform(0.5, 1.5, size=n))
        a, b = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        total = 0.0
        idx = list(range(n))
        for r in range(n + 1):
            for S in itertools.combinations(idx, r):
                Sc = [i for i in idx if i not in S]
                total += (per_alpha_exact(A[np.ix_(S, S)], a)
                          * per_alpha_exact(A[np.ix_(Sc, Sc)], b))
        full = per_alpha_exact(A, a + b)
        worst_conv = max(worst_conv, abs(full - total) / abs(full))
    elapsed = time.time() - t0
    ok = worst_det <= 1e-9 and worst_conv <= 1e-9
    report(3, "determinant and convolution identities", ok,
           f"det rel err {worst_det:.2e}, convolution rel err {worst_conv:.2e}",
           elapsed, 30.0)


def test_criterion_4_ewens_crp():
    t0 = time.time()
    kern = Kernel.constant(1.0)
    pts6 = np.arange(6, dtype=float).reshape(-1, 1)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for part in iter_set_partitions(6):
            got = partition_probability_exact(pts6, part, lam, kern)
            worst = max(worst, abs(got - ewens_probability(part.sizes, lam)))
    ewens_ok = worst <= 1e-12

    draws = 100_000
    params = ModelParams(kernel=kern, lam=1.0, order="exact")
    pts3 = np.zeros((3, 1))
    counts = np.zeros(3)
    for s in range(draws):
        part = sequential_partition(pts3, params, rule="sample", seed=s)
        counts[part.block_count - 1] += 1
    p = np.array([1.0 / 3.0, 1.0 / 2.0, 1.0 / 6.0])
    sigma = np.sqrt(draws * p * (1 - p))
    dev = np.abs(counts - draws * p)
    crp_ok = bool((dev <= 3.0 * sigma).all())
    elapsed = time.time() - t0
    report(4, "Ewens reduction and CRP sampling", ewens_ok and crp_ok,
           f"Ewens max abs err {worst:.1e}; block-count dev/sigma "
           f"{np.max(dev / sigma):.2f} <= 3", elapsed, 60.0)


def test_criterion_5_projection_normalization():
    t0 = time.time()
    sizes = [3, 2, 4]
    N = sum(sizes)
    ground = [(float(i),) for i in range(N)]
    P = np.zeros((N, N))
    i0 = 0
    for s in sizes:
        P[i0:i0 + s, i0:i0 + s] = 1.0 / s
        i0 += s
    nu = len(sizes)  # trace of the projection
    kern = Kernel.projection(P, ground)
    train_idx = [0, 1, 3, 5, 6]
    pts = np.array([ground[i] for i in train_idx])
    n = len(train_idx)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        table = build_ratio_table(gram(kern, pts), alpha, order=3)
        for k in (1, 2, 3):
            table_k = at_order(table, k)
            total = sum(ratio_approx(np.array(g), table_k)
                        for g in ground)
            worst = max(worst, abs(total / (n + alpha * nu) - 1.0))
    elapsed = time.time() - t0
    report(5, "projection normalization", worst <= 1e-10,
           f"max |sum/(n+alpha*nu) - 1| = {worst:.2e} over k=1..3", elapsed, 5.0)


def test_criterion_6_penta_diagonal():
    t0 = time.time()
    rng = np.random.default_rng(606)
    errs3 = []
    for _ in range(100):
        n = int(rng.integers(5, 11))
        A = banded_gram(rng, n)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        exact = ratio_exact_matrix(A, alpha)
        table = build_ratio_table(GramMatrix.from_matrix(A[:n - 1, :n - 1]),
                                  alpha, order=3)
        approx = ratio_from_kt(table, A[n - 1, :n - 1], A[n - 1, n - 1])
        errs3.append(abs(approx - exact) / abs(exact))
    frac = float(np.mean(np.asarray(errs3) <= 1e-3))
    elapsed = time.time() - t0
    report(6, "penta-diagonal order-3 accuracy", frac >= 0.95,
           f"{frac * 100:.0f}% of 100 instances <= 1e-3 "
           f"(max {max(errs3):.2e})", elapsed, 60.0)


def test_criterion_7_figure1_gaps_and_probabilities():
    t0 = time.time()
    rep = accuracy_study()  # pinned seed in StudyConfig
    checks = {
        "R3/R2 in [1.01, 1.12]": 1.01 <= rep.central_mean_ratio_32 <= 1.12,
        "R2/R1 in [1.10, 1.30]": 1.10 <= rep.central_mean_ratio_21 <= 1.30,
        "gap(4v3) < gap(3v2)": rep.gap_32 < rep.gap_21,
        "monotone central": rep.monotone_central,
        "prob curves differ <= 0.05":
            max(rep.prob_max_abs_diff.values()) <= 0.05,
        "p(class1) at t=0 within 0.05 of 1":
            abs(rep.prob_curves[3][np.argmin(np.abs(rep.t_grid))] - 1.0) <= 0.05,
        "order 3 closer to oracle than order 1":
            rep.oracle_rel_err[3] < rep.oracle_rel_err[1],
    }
    elapsed = time.time() - t0
    ok = all(checks.values())
    detail = (f"R3/R2={rep.central_mean_ratio_32:.3f}, "
              f"R2/R1={rep.central_mean_ratio_21:.3f}, "
              f"max prob gap={max(rep.prob_max_abs_diff.values()):.3f}")
    if not ok:
        detail += "; failed: " + ", ".join(k for k, v in checks.items() if not v)
    report(7, "ratio-curve gaps and probability curves", ok, detail,
           elapsed, 60.0)


def test_criterion_8_chequerboard():
    t0 = time.time()
    k1_wins = k2_wins = 0
    pinned = None
    for seed in DEFAULT_TABLE_SEEDS:
        res = run_chequerboard(seed=seed)
        k1 = next(r for r in res.rows if r.name == "permanental K1")
        k2 = next(r for r in res.rows if r.name == "permanental K2")
        knn = next(r for r in res.rows if "nearest" in r.name)
        k1_wins += k1.test_errors < knn.test_errors
        k2_wins += k2.test_errors < knn.test_errors
        if seed == DEFAULT_TABLE1_SEED:
            pinned = (k1, knn)
    k1p, knnp = pinned
    band_ok = k1p.train_errors <= 6 and 250 <= k1p.test_errors <= 420
    wins_ok = k1_wins >= 8 and k2_wins >= 8
    elapsed = time.time() - t0
    report(8, "chequerboard errors and kNN comparison", band_ok and wins_ok,
           f"pinned seed {DEFAULT_TABLE1_SEED}: train {k1p.train_errors}/90, "
           f"test {k1p.test_errors}/3600 (kNN {knnp.test_errors}); "
           f"K1 beats kNN {k1_wins}/10, K2 {k2_wins}/10", elapsed, 600.0)


def test_criterion_9_complexity_slopes():
    t0 = time.time()
    rep = bench_orders([100, 200, 400, 800], seed=0, orders=(0, 1, 2, 3),
                       queries=20)
    slopes = {t.order: t.slope for t in rep.timings}
    k0 = next(t for t in rep.timings if t.order == 0)
    flat0 = max(k0.medians) <= 5.0 * min(k0.medians)
    bands = {1: (0.7, 1.3), 2: (1.7, 2.3), 3: (2.7, 3.3)}
    ok = flat0 and all(lo <= slopes[k] <= hi for k, (lo, hi) in bands.items())
    elapsed = time.time() - t0
    report(9, "complexity slopes", ok,
           "slopes " + ", ".join(f"k={k}: {slopes[k]:.2f}" for k in (1, 2, 3))
           + f"; k=0 spread x{max(k0.medians) / min(k0.medians):.1f}",
           elapsed, 300.0)


def test_criterion_10_microarray_u_shape():
    t0 = time.time()
    expr, planted = gen_expression(seed=0)
    assert expr.values.shape == (500, 72)
    result = run_microarray(expr, SplitPlan(repetitions=200, seed=0),
                            gene_counts=(1, 5, 200))
    idx = {m: i for i, m in enumerate(result.gene_counts)}
    ok = True
    details = []
    for fam in ("exponential", "gaussian"):
        errs = result.mean_test_errors[f"permanental {fam}"]
        u = errs[idx[5]] < errs[idx[1]] and errs[idx[5]] < errs[idx[200]]
        ok = ok and u
        details.append(f"{fam}: {errs[idx[1]]:.2f} -> {errs[idx[5]]:.2f} "
                       f"-> {errs[idx[200]]:.2f}")
    elapsed = time.time() - t0
    report(10, "microarray error curve is U-shaped", ok,
           "; ".join(details), elapsed, 300.0)
