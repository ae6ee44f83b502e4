"""Acceptance criteria, one test per criterion.

Each test prints a single line "[criterion N] PASS/FAIL: ..." (visible with
pytest -s or in captured output) and enforces its stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from capsketch import (
    AllThresholdSketch,
    DistinctCounter,
    FrequencyDistribution,
    MapperConfig,
    MaxDistinctSketch,
    StatisticSpec,
    SumCounter,
    cap1_approximation,
    capping_transform,
    hash_keys,
    inverse_transform,
    laplace_c,
    THREE_POINT_STABLE,
    THREE_POINT_TIGHT,
)
from capsketch.bench import _rep_seed, point_benchmark
from capsketch.core import _mix64
from capsketch.mappers import point_outkeys_batch
from capsketch.oracle import aggregate_ranks, exact_measurement, exact_statistic, zipf_ranks
from capsketch.transforms import CAP1_ERROR_GRID, DEFAULT_RHO_GRID, relative_error_to, rho_estimate

from conftest import toy_laplace
from reference import combination_batch

TOY = FrequencyDistribution({1.0: 10, 5.0: 2, 10.0: 1})


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {status}: {detail} ({elapsed:.1f}s / {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_transform_closed_form():
    start = time.time()
    worst = 0.0
    for t in [0.01, 0.1, 1.0, 10.0, 100.0]:
        rel = abs(laplace_c(TOY, t) - toy_laplace(t)) / toy_laplace(t)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    # asymptotes: t * SUM for small t, the distinct count for large t
    small = abs(laplace_c(TOY, 1e-8) / (1e-8 * 30.0) - 1.0)
    large = abs(laplace_c(TOY, 100.0) - 13.0) / 13.0
    ok = ok and small <= 1e-6 and large <= 1e-12
    _report(1, ok, f"max closed-form relerr {worst:.2e}, asymptote gaps {small:.2e}/{large:.2e}",
            time.time() - start, 1.0)


def test_criterion_2_point_unbiasedness():
    start = time.time()
    keys = [b"w%g-%d" % (w, j) for w in sorted(TOY.entries) for j in range(TOY.entries[w])]
    k64 = hash_keys(keys)
    vals = np.array([w for w in sorted(TOY.entries) for _ in range(TOY.entries[w])])
    ords = np.arange(13, dtype=np.uint64)
    r, seeds = 100, 400
    details = []
    ok = True
    for t in [0.1, 1.0, 10.0]:
        target = laplace_c(TOY, t)
        ms = np.empty(seeds)
        for s in range(seeds):
            cfg = MapperConfig(r=r, t=t, seed=s)
            ms[s] = len(point_outkeys_batch(k64, vals, cfg, ords)) / r
        se = ms.std(ddof=1) / math.sqrt(seeds)
        dev = abs(ms.mean() - target) / se
        ok = ok and dev < 4.0
        details.append(f"t={t}: {dev:.2f} se")
    _report(2, ok, "mean deviation " + ", ".join(details), time.time() - start, 60.0)


def test_criterion_3_zipf_replication():
    start = time.time()
    rows = point_benchmark(
        alphas=[1.1, 1.5, 2.0],
        n_elements=100_000,
        Ts=[1.0, 20.0, 500.0],
        rs=[1, 10, 100],
        k=100,
        reps=200,
        seed=0,
    )
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.alpha, row.T), []).append((row.r, row.nrmse_measurement))
    max_inversions = 0
    for vals in cells.values():
        vals.sort()
        seq = [v for _, v in vals]
        max_inversions = max(max_inversions, sum(1 for i in range(len(seq) - 1) if seq[i + 1] > seq[i]))
    approx = [row.nrmse_approx for row in rows]
    ok = max_inversions <= 1 and min(approx) >= 0.05 and max(approx) <= 0.20
    _report(
        3,
        ok,
        f"measurement-NRMSE inversions per cell <= {max_inversions}; "
        f"approx NRMSE in [{min(approx):.3f}, {max(approx):.3f}]",
        time.time() - start,
        900.0,
    )


def sqrt_combination_measurements(alpha, n_elements, r, reps, seed=0, n_keys=1_000_000):
    """Exact combination measurements of sum sqrt(w_x) over one Zipf dataset.

    Returns the per-repetition measurements (max-distinct statistic of the
    output elements divided by r, cutoff zero) and the exact statistic.
    """
    ranks = zipf_ranks(n_elements, alpha, n_keys=n_keys, seed=_mix64(seed ^ 0xABCD))
    unique, weights, dist = aggregate_ranks(ranks)
    key64s = hash_keys(b"%d" % r_ for r_ in unique)
    ordinals = np.arange(len(unique), dtype=np.uint64)
    a = inverse_transform(StatisticSpec("sqrt"))
    exact = exact_statistic(dist, StatisticSpec("sqrt"))
    out = np.empty(reps)
    for rep in range(reps):
        cfg = MapperConfig(r=int(r), seed=_rep_seed(seed, 7, rep))
        outkeys, vs = combination_batch(key64s, weights, cfg, ordinals, a, tau=0.0)
        out[rep] = exact_measurement((outkeys, vs), "max_distinct") / r
    return out, exact


def test_criterion_4_combination_unbiasedness():
    start = time.time()
    meas, exact = sqrt_combination_measurements(alpha=1.5, n_elements=100_000, r=100, reps=200, seed=0)
    se = meas.std(ddof=1) / math.sqrt(len(meas))
    dev = abs(meas.mean() - exact) / se
    _report(4, dev < 4.0, f"sqrt-statistic mean dev {dev:.2f} se (exact {exact:.1f})",
            time.time() - start, 600.0)


def test_criterion_5_three_point_bounds():
    start = time.time()
    cap1 = lambda w: np.minimum(1.0, w)
    tight = cap1_approximation(**THREE_POINT_TIGHT)
    stable = cap1_approximation(**THREE_POINT_STABLE)
    err_tight = relative_error_to(tight, cap1, CAP1_ERROR_GRID)
    err_stable = relative_error_to(stable, cap1, CAP1_ERROR_GRID)
    rho_tight = rho_estimate(tight, DEFAULT_RHO_GRID)
    rho_stable = rho_estimate(stable, DEFAULT_RHO_GRID)
    moment_gap = 0.0
    for tp in (tight, stable):
        mass = sum(m for _, m in tp.plus.deltas) - sum(m for _, m in tp.minus.deltas)
        first = sum(t * m for t, m in tp.plus.deltas) - sum(t * m for t, m in tp.minus.deltas)
        moment_gap = max(moment_gap, abs(mass - 1.0), abs(first - 1.0))
    ok = err_tight <= 0.12 and err_stable <= 0.15 and rho_tight <= 12.4 and rho_stable <= 2.9 and moment_gap <= 1e-12
    _report(
        5,
        ok,
        f"relerr {err_tight:.4f}/{err_stable:.4f}, rho {rho_tight:.2f}/{rho_stable:.2f}, "
        f"moment gap {moment_gap:.1e}",
        time.time() - start,
        1.0,
    )


def test_criterion_6_capping_reconstruction():
    start = time.time()
    specs = [
        StatisticSpec("cap", {"T": 5.0}),
        StatisticSpec("sum"),
        StatisticSpec("clipped_moment", {"p": 0.5}),
        StatisticSpec("softcap", {"T": 3.0}),
        StatisticSpec("log1p"),
    ]
    ws = np.logspace(-2, 3, 30)
    worst = 0.0
    for spec in specs:
        ct = capping_transform(spec)
        target = np.asarray(spec.evaluate(ws))
        worst = max(worst, float(np.max(np.abs(ct.reconstruct(ws) - target) / target)))
    _report(6, worst <= 1e-6, f"worst reconstruction relerr {worst:.2e}", time.time() - start, 5.0)


def test_criterion_7_sketch_algebra():
    start = time.time()
    rng = np.random.default_rng(42)
    n = 100_000
    okeys = rng.integers(0, 25_000, n).astype(np.uint64)
    yvals = rng.exponential(size=n) + 1e-9

    whole_dc = DistinctCounter(100, 7); whole_dc.update_batch(okeys)
    whole_md = MaxDistinctSketch(100, 7); whole_md.update_batch(okeys, yvals)
    whole_at = AllThresholdSketch(64, 7); whole_at.update_batch(okeys, yvals)
    whole_sum = SumCounter(); whole_sum.update_batch(yvals)
    blobs = (whole_dc.to_bytes(), whole_md.to_bytes(), whole_at.to_bytes(), whole_sum.to_bytes())

    ok = True
    for trial in range(50):
        prng = np.random.default_rng(trial)
        n_parts = int(prng.integers(2, 6))
        cuts = np.sort(prng.choice(np.arange(1, n), size=n_parts - 1, replace=False))
        merged = [None, None, None, None]
        for idx in np.split(np.arange(n), cuts):
            dc = DistinctCounter(100, 7); dc.update_batch(okeys[idx])
            md = MaxDistinctSketch(100, 7); md.update_batch(okeys[idx], yvals[idx])
            at = AllThresholdSketch(64, 7); at.update_batch(okeys[idx], yvals[idx])
            sc = SumCounter(); sc.update_batch(yvals[idx])
            parts = (dc, md, at, sc)
            merged = [p if m is None else m.merge(p) for m, p in zip(merged, parts)]
        ok = ok and all(m.to_bytes() == b for m, b in zip(merged, blobs))
        if not ok:
            break

    # all-threshold estimates nondecreasing in t
    ts = np.linspace(0.0, float(yvals.max()) * 1.05, 400)
    ests = whole_at.estimate_all(ts)
    monotone = bool(np.all(np.diff(ests) >= -1e-9))

    # sub-k exact modes
    small_keys = okeys[:40]
    dc = DistinctCounter(100, 7); dc.update_batch(small_keys)
    md = MaxDistinctSketch(100, 7); md.update_batch(small_keys, yvals[:40])
    uk, inv = np.unique(small_keys, return_inverse=True)
    gm = np.full(len(uk), -np.inf); np.maximum.at(gm, inv, yvals[:40])
    exact_ok = dc.estimate() == float(len(uk)) and md.estimate() == pytest.approx(float(gm.sum()), rel=1e-12)

    ok = ok and monotone and exact_ok
    _report(7, ok, f"50 partitions byte-exact={ok}, monotone={monotone}, sub-k exact={exact_ok}",
            time.time() - start, 120.0)


def test_criterion_8_cv_at_saturation():
    start = time.time()
    n, trials = 10_000, 500
    ok = True
    details = []
    for k in (64, 100, 256):
        target = 1.0 / math.sqrt(k - 2)
        for kind in ("distinct", "maxdistinct"):
            ests = np.empty(trials)
            for s in range(trials):
                seed = s * 31 + k
                keys = np.arange(n, dtype=np.uint64) + np.uint64((s + 1) * n)
                if kind == "distinct":
                    sk = DistinctCounter(k, seed)
                    sk.update_batch(keys)
                    ests[s] = sk.estimate() / n
                else:
                    vrng = np.random.default_rng(seed)
                    vals = vrng.uniform(1.0, 2.0, n)
                    sk = MaxDistinctSketch(k, seed)
                    sk.update_batch(keys, vals)
                    ests[s] = sk.estimate() / vals.sum()
            cv = ests.std(ddof=1) / ests.mean()
            ratio = cv / target
            ok = ok and abs(ratio - 1.0) <= 0.25
            details.append(f"{kind[:2]}/k={k}: {ratio:.3f}")
    _report(8, ok, "cv/target " + ", ".join(details), time.time() - start, 300.0)
