"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from conftest import (
    RANK_DEFICIENT,
    RANK_DEFICIENT_S1,
    random_digraph,
    same_partition_and_B,
    sin_max_angle,
)
from rolekit import (
    Adjacency,
    Assignment,
    PerturbationModel,
    RoleMatrix,
    apply_rank_one_weights,
    beta_bound,
    checkerboard_signature,
    default_beta2,
    extract_roles,
    extraction_cost,
    fixed_point,
    generate_structure,
    iterate,
    pattern_counts,
    perturb,
    reconstruct_B,
    scaled_iterate,
    spectrum_report,
    undirected_sigma_at_depth,
    ratio_monotonicity_check,
)


def _report(number: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    return ok


def test_criterion_01_ideal_block_cycle_spectra():
    start = time.time()
    ok = True
    for sizes, want in [
        ((200, 100, 100, 200), [200.0, 141.421356, 141.421356, 100.0]),
        ((20, 10, 10, 20), [20.0, 14.142136, 14.142136, 10.0]),
    ]:
        A, _, _ = generate_structure("block_cycle", sizes)
        sv = np.linalg.svd(A.entries, compute_uv=False)
        ok &= bool(np.allclose(sv[:4], want, atol=1e-6, rtol=0))
        ok &= bool(sv[4] / sv[3] < 1e-10)
    ok &= (time.time() - start) < 10.0
    assert _report(1, "ideal block-cycle singular values", ok)


def test_criterion_02_fixed_point_spectra_with_backsolved_beta():
    ok = True
    for sizes, beta2, want_half in [
        ((200, 100, 100, 200), 1.17953e-5, [382.437, 382.437, 270.424, 270.424]),
        ((20, 10, 10, 20), 1.17953e-3, [38.2437, 38.2437, 27.0424, 27.0424]),
    ]:
        A, _, _ = generate_structure("block_cycle", sizes)
        state = fixed_point(A, beta2)
        half = np.sqrt(np.linalg.svd(state.S, compute_uv=False)[:4])
        ok &= bool(np.allclose(half, want_half, rtol=1e-3, atol=0))
    # damping provenance: the pinned values solve the role-level diagonal
    # fixed-point equation d = 30000 + 50000 beta^2 d with d within 1e-3 of
    # the reported fourth singular value 73129.122
    d = 30000.0 / (1.0 - 50000.0 * 1.17953e-5)
    ok &= abs(d - 73129.122) / 73129.122 < 1e-3
    assert _report(2, "fixed-point spectra at the back-solved damping", ok)


def test_criterion_03_rank_deficient_counterexample():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    ok = bool(np.array_equal(iterate(A, 0.1, 1).S, RANK_DEFICIENT_S1))
    beta2 = 0.5 * default_beta2(A)
    for k in range(1, 11):
        ok &= np.linalg.matrix_rank(iterate(A, beta2, k).S) == 2
    result = extract_roles(A)
    ok &= result.q_est == 3
    ok &= [int(v) for v in result.assignment.sigma] == [0, 1, 2]
    ok &= result.residual == 0.0
    assert _report(3, "rank-deficient example: rank 2, three roles recovered", ok)


def test_criterion_04_iterates_share_image_and_rank():
    start = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        A = random_digraph(rng, n_max=20)
        compound = np.hstack([A.entries, A.entries.T])
        r = np.linalg.matrix_rank(compound)
        beta2 = default_beta2(A)
        states = {k: iterate(A, beta2, k).S for k in (1, 2, 3, 5, 6)}
        for k in (1, 2, 5):
            S = states[k]
            ok &= np.linalg.matrix_rank(S) == r
            ok &= sin_max_angle(S, compound) < 1e-8
            step = states[k + 1] - S
            ok &= np.linalg.eigvalsh(step).min() >= -1e-9 * np.linalg.norm(
                states[k + 1], 2)
        if not ok:
            break
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    assert _report(4, f"image/rank agreement on 200 random digraphs "
                      f"({elapsed:.1f} s)", ok)


def test_criterion_05_partial_sum_oracle():
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(100):
        A = random_digraph(rng, n_max=30, n_min=3)
        beta2 = 0.9 * default_beta2(A)
        acc = np.zeros((A.n, A.n))
        for pc in pattern_counts(A, 5):
            acc = acc + beta2 ** (pc.ell - 1) * pc.N
            S = iterate(A, beta2, pc.ell).S
            ok &= np.linalg.norm(S - acc) <= 1e-10 * np.linalg.norm(acc)
        if not ok:
            break
    assert _report(5, "partial-sum identity on 100 random graphs", ok)


def test_criterion_06_convergence_boundary():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(50):
        A = random_digraph(rng, n_max=15, n_min=3)
        rho = beta_bound(A)
        state = fixed_point(A, 0.9 / rho)
        ok &= state.converged
        low = np.linalg.norm(iterate(A, 1.1 / rho, 1).S)
        high = np.linalg.norm(iterate(A, 1.1 / rho, 50).S)
        ok &= high > 10 * low
        if not ok:
            break
    assert _report(6, "convergence inside, divergence outside the bound", ok)


def test_criterion_07_ideal_recovery_suite():
    rng = np.random.default_rng(77)
    trials = []
    for _ in range(25):
        q = int(rng.integers(2, 7))
        trials.append(("community", rng.integers(3, 21, size=q)))
    for _ in range(20):
        q = int(rng.integers(3, 6))
        trials.append(("overlapping", rng.integers(3, 21, size=q)))
    for _ in range(20):
        pairs = int(rng.integers(1, 4))
        trials.append(("bipartite_communities", rng.integers(3, 21, size=2 * pairs)))
    for _ in range(25):
        q = int(rng.integers(3, 7))
        trials.append(("block_cycle", rng.integers(3, 21, size=q)))
    trials.extend([("signed_example", None)] * 10)

    hits = 0
    for kind, sizes in trials:
        n = 6 if sizes is None else int(np.sum(sizes))
        A, B, truth = generate_structure(kind, sizes, perm=rng.permutation(n))
        result = extract_roles(A)
        good = (result.residual == 0.0
                and result.q_est == B.q
                and same_partition_and_B(result, B, truth))
        hits += good
    ok = hits == len(trials) == 100
    assert _report(7, f"ideal recovery on all generators ({hits}/100)", ok)


def test_criterion_08_structure_identities():
    rng = np.random.default_rng(88)
    ok = True

    # bipartite: exactly zero off-diagonal blocks
    n1, n2 = 6, 7
    M = np.zeros((n1 + n2, n1 + n2))
    M[:n1, n1:] = rng.random((n1, n2)) < 0.5
    M[n1:, :n1] = rng.random((n2, n1)) < 0.5
    A = Adjacency.from_matrix(M)
    for k in (1, 3, 5):
        S = iterate(A, default_beta2(A), k).S
        ok &= not S[:n1, n1:].any()
        ok &= not S[n1:, :n1].any()

    # checkerboard: |S_k| = Q S_k Q entrywise
    A, _, _ = generate_structure("signed_example")
    Q = checkerboard_signature(A)
    beta2 = default_beta2(A)
    for k in (1, 2, 5):
        S = iterate(A, beta2, k).S
        ok &= bool(np.array_equal(np.abs(S), Q.conjugate(S)))
        ok &= bool(np.array_equal(np.abs(S), iterate(abs(A), beta2, k).S))

    # rank-one weights: S_k^D = D S_k D to 1e-10 relative
    base, _, _ = generate_structure("block_cycle", (4, 3, 5))
    d = rng.uniform(0.5, 2.0, size=base.n)
    W = apply_rank_one_weights(base, d)
    beta2 = 0.5 * default_beta2(base)
    for k in (1, 2, 4):
        SD = scaled_iterate(W, d, beta2, k).S
        S = iterate(base, beta2, k).S
        want = d[:, None] * S * d[None, :]
        ok &= np.linalg.norm(SD - want) <= 1e-10 * np.linalg.norm(want)

    assert _report(8, "bipartite / checkerboard / weighted identities", ok)


def test_criterion_09_depth_scaling_closed_forms():
    rng = np.random.default_rng(99)
    ok = True

    # 100-point grid of (lam_hi, lam_lo, beta) with beta * lam_hi <= 0.95
    for _ in range(100):
        lam_hi = float(rng.uniform(0.5, 5.0))
        lam_lo = float(lam_hi * rng.uniform(0.1, 0.95))
        beta = float(rng.uniform(0.05, 0.95) / lam_hi)
        ok &= ratio_monotonicity_check(lam_hi, lam_lo, beta, k_max=25)
        if not ok:
            break

    # ordering preservation on random spectra
    for _ in range(20):
        lams = np.sort(rng.uniform(0.1, 4.0, size=8))[::-1]
        beta = 0.95 / lams[0]
        for k in (2, 5, 9):
            vals = [undirected_sigma_at_depth(l, beta, k) for l in lams]
            ok &= all(a >= b for a, b in zip(vals, vals[1:]))

    # closed form vs the iterated recurrence, 1e-10 relative on sigma(S_k)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        M = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        M = M + M.T
        if not M.any():
            M[0, 1] = M[1, 0] = 1.0
        A = Adjacency.from_matrix(M)
        lam1 = np.sqrt(2) * np.linalg.svd(M, compute_uv=False)
        beta = 0.9 / lam1[0]
        for k in (1, 3, 6):
            got = np.linalg.svd(iterate(A, beta**2, k).S, compute_uv=False)
            want = np.sort([undirected_sigma_at_depth(l, beta, k)
                            for l in lam1])[::-1] ** 2
            ok &= bool(np.allclose(got, want, rtol=1e-10, atol=1e-12 * want[0]))

    assert _report(9, "depth-scaled singular values: monotone ratios, "
                      "preserved order, exact closed form", ok)


def test_criterion_10_perturbed_gap_amplification():
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50))
    amplified = 0
    rank_hits = 0
    seeds = range(20)
    for seed in seeds:
        noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=seed))
        report = spectrum_report(noisy)  # fixed point at the default damping
        gap_A = report.sigma_A[3] / report.sigma_A[4]
        gap_S = report.sigma_S[3] / report.sigma_S[4]
        amplified += gap_S > gap_A
        rank_hits += report.gap_index == 4
    ok = amplified >= 18 and rank_hits >= 18
    assert _report(10, f"gap amplification {amplified}/20, "
                       f"rank estimate {rank_hits}/20", ok)


def test_criterion_11_brute_force_role_matrix_optimality():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(50):
        q = int(rng.integers(1, 4))
        sizes = rng.integers(1, 5, size=q)
        n = int(sizes.sum())
        assignment = Assignment.from_blocks(sizes, perm=rng.permutation(n))
        A = Adjacency.from_matrix((rng.random((n, n)) < rng.uniform(0.2, 0.8))
                                  .astype(float))
        best = extraction_cost(A, assignment, reconstruct_B(A, assignment))
        for bits in range(2 ** (q * q)):
            entries = np.array([(bits >> i) & 1 for i in range(q * q)],
                               dtype=float).reshape(q, q)
            ok &= best <= extraction_cost(A, assignment, RoleMatrix(entries)) + 1e-9
        if not ok:
            break
    assert _report(11, "threshold role matrix beats every binary alternative", ok)


def test_criterion_12_noisy_recovery_at_n_500():
    # a 10%-flipped 4-role block cycle large enough that the factor keeps
    # full rank (r = n), so every step goes through the wide compression
    rng = np.random.default_rng(500)
    A, B, truth = generate_structure("block_cycle", (125, 125, 125, 125),
                                     perm=rng.permutation(500))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=500))
    flips = int((noisy.entries != A.entries).sum())
    result = extract_roles(noisy, trunc_tol=1e-3)
    recovered = same_partition_and_B(result, B, truth)
    close = abs(result.residual - flips) < 0.5
    assert _report(12, f"noisy n = 500 recovery: partition {recovered}, "
                       f"residual {result.residual:.0f} vs {flips} flips",
                   recovered and close)

