import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    reference_build_H,
    reference_full_gradient,
    reference_mttkrp,
    reference_objective,
    reference_reconstruct,
    reference_unfolding_gradient,
)

from midasll1.model import (
    LL1Factors,
    RankVector,
    H_rows_at,
    _block_sums,
    full_gradient,
    gram_H,
    lipschitz_bound,
    mttkrp,
    objective,
    reconstruct,
)
from midasll1.prox import NONE, NONNEG, Regularizer
from midasll1.tensor import DenseTensor3, fiber_coordinates, row_count, unfold


def random_factors(rng, dims, L):
    rk = RankVector(L)
    return LL1Factors(
        rng.random((dims[0], rk.total)),
        rng.random((dims[1], rk.total)),
        rng.random((dims[2], rk.R)),
        rk,
    )


def all_H_rows(f, mode):
    """H_n as the loop's kernel gives it: `H_rows_at` over all J_n fibers,
    in unfolding order."""
    rows = np.arange(row_count(f.dims, mode))
    return H_rows_at(f, mode, *fiber_coordinates(f.dims, mode, rows))


def brute_reconstruct(f):
    i1, i2, i3 = f.dims
    out = np.zeros((i1, i2, i3))
    for r in range(f.ranks.R):
        blk = f.ranks.blocks[r]
        for a, b, c in itertools.product(range(i1), range(i2), range(i3)):
            out[a, b, c] += (f.A1[a, blk] @ f.A2[b, blk]) * f.A3[c, r]
    return out


def test_rank_vector_rejects_non_integer_widths():
    for bad in (2.7, 2.0, True, np.float64(3.0), np.bool_(True), "2"):
        with pytest.raises(ValueError, match=re.escape(f"rank widths must be integers, got {bad!r}")):
            RankVector((bad, 2))
    rk = RankVector((np.int64(3), np.int32(2), 1))
    assert rk.L == (3, 2, 1) and all(type(v) is int for v in rk.L)


@pytest.mark.parametrize("name, shape", [("A1", (4, 2)), ("A2", (5, 4)), ("A3", (6, 3)),
                                         ("A1", (12,))])
def test_factors_reject_a_wrong_column_count(name, shape):
    """A1 and A2 need L_total columns and A3 R, as 2-D arrays."""
    rk = RankVector((2, 1))
    arrays = {"A1": np.ones((4, 3)), "A2": np.ones((5, 3)), "A3": np.ones((6, 2))}
    arrays[name] = np.ones(shape)
    cols = rk.R if name == "A3" else rk.total
    with pytest.raises(ValueError, match=re.escape(f"{name} must have {cols} columns, "
                                                   f"got shape {shape}")):
        LL1Factors(**arrays, ranks=rk)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_kernels_reject_a_tensor_of_other_dims(mode):
    """`mttkrp` checks the dims, and `full_gradient` and `objective` rely
    on that check."""
    f = random_factors(np.random.default_rng(40), (4, 3, 2), (2, 1))
    x = DenseTensor3(np.ones((4, 3, 5)))
    match = re.escape("factor dims (4, 3, 2) do not match tensor dims (4, 3, 5)")
    for kernel in (lambda: mttkrp(f, x, mode), lambda: full_gradient(f, x, mode),
                   lambda: objective(f, x, NONE)):
        with pytest.raises(ValueError, match=match):
            kernel()


def test_reconstruct_rank1_outer_product():
    f = LL1Factors(
        np.array([[1.0], [0.0]]),
        np.array([[1.0], [0.0]]),
        np.array([[1.0], [1.0]]),
        RankVector((1,)),
    )
    x = reconstruct(f).array
    expected = np.zeros((2, 2, 2))
    expected[0, 0, :] = 1.0
    np.testing.assert_array_equal(x, expected)


def test_reconstruct_zero_A3():
    rng = np.random.default_rng(0)
    f = random_factors(rng, (3, 4, 2), (2, 1))
    f = f.replaced(3, np.zeros_like(f.A3))
    assert not reconstruct(f).array.any()


def test_reconstruct_matches_triple_loop():
    rng = np.random.default_rng(1)
    f = random_factors(rng, (4, 5, 3), (2, 2))
    assert np.abs(reconstruct(f).array - brute_reconstruct(f)).max() <= 1e-12


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfolding_factorization_identity(mode):
    rng = np.random.default_rng(2)
    f = random_factors(rng, (4, 5, 3), (2, 1, 3))
    x = reconstruct(f)
    h = all_H_rows(f, mode)
    resid = unfold(x, mode) - h @ f.factor(mode).T
    assert np.linalg.norm(resid) <= 1e-10


def test_build_H1_all_ones():
    f = LL1Factors(
        np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), RankVector((1,))
    )
    np.testing.assert_array_equal(all_H_rows(f, 1), np.ones((4, 1)))


def test_build_H3_unit_rank_reduces_to_kron():
    rng = np.random.default_rng(3)
    f = random_factors(rng, (3, 4, 2), (1, 1))
    h3 = all_H_rows(f, 3)
    for r in range(2):
        np.testing.assert_array_equal(h3[:, r], np.kron(f.A2[:, r], f.A1[:, r]))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_build_H_rows_matches_full(mode):
    rng = np.random.default_rng(4)
    f = random_factors(rng, (4, 3, 5), (2, 3))
    h = all_H_rows(f, mode)
    rows = rng.permutation(h.shape[0])[:5]
    a, b = fiber_coordinates(f.dims, mode, rows)
    np.testing.assert_array_equal(H_rows_at(f, mode, a, b), h[rows])


def test_objective_exact_fit_is_zero():
    rng = np.random.default_rng(5)
    f = random_factors(rng, (4, 5, 3), (2, 2))
    x = reconstruct(f)
    obj = objective(f, x, NONNEG)
    assert obj.f == 0.0 and obj.phi == 0.0


def test_objective_zero_factors_closed_form():
    rng = np.random.default_rng(6)
    x = DenseTensor3(rng.random((4, 5, 3)))
    rk = RankVector((2,))
    f = LL1Factors(np.zeros((4, 2)), np.zeros((5, 2)), np.zeros((3, 1)), rk)
    obj = objective(f, x, NONE)
    assert obj.f == pytest.approx(np.sum(x.array**2) / (2 * 60), rel=1e-14)


def test_objective_triple_loop_oracle():
    rng = np.random.default_rng(7)
    f = random_factors(rng, (4, 5, 3), (2, 2))
    x = DenseTensor3(rng.random((4, 5, 3)))
    resid = x.array - brute_reconstruct(f)
    expected = np.sum(resid**2) / (2 * 60)
    assert objective(f, x, NONE).f == pytest.approx(expected, rel=1e-12)


def test_objective_infeasible_indicator_is_inf():
    rng = np.random.default_rng(8)
    f = random_factors(rng, (3, 3, 3), (1,))
    f = f.replaced(1, f.A1 - 2.0)
    obj = objective(f, reconstruct(f), NONNEG)
    assert obj.phi == np.inf and obj.f >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_rejects_overflowing_reconstruction():
    """Finite factors whose reconstruction overflows: the finiteness check
    of the reconstruction still raises."""
    rk = RankVector((2,))
    big = np.full((3, 2), 1e200)
    f = LL1Factors(big, big, np.ones((3, 1)), rk)
    x = DenseTensor3(np.ones((3, 3, 3)))
    with pytest.raises(ValueError, match="the reconstruction overflows"):
        objective(f, x, NONE)
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        reconstruct(f)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_objective_overflowing_residual_is_inf():
    """A finite reconstruction whose squared residual overflows gives f = inf."""
    rk = RankVector((2,))
    big = np.full((3, 2), 1e90)
    f = LL1Factors(big, big, np.ones((3, 1)), rk)
    x = DenseTensor3(np.ones((3, 3, 3)))
    assert np.isfinite(reconstruct(f).array).all()
    obj = objective(f, x, NONE)
    assert obj.f == np.inf and obj.phi == np.inf


KERNEL_SHAPES = [
    ((9, 8, 7), (2, 3)),         # unequal L_r
    ((20, 15, 10), (3, 1, 4)),
    ((6, 9, 11), (9, 2)),        # a block wider than 8 columns
    ((5, 7, 4), (1,)),           # R = 1
    ((7, 5, 6), (3,)),
    ((100, 100, 50), (4, 4, 4)), # the mid benchmark shape
]


def kernel_problem(dims, L, seed, draw="standard_normal"):
    """Factors and a tensor of `dims` with entries from `rng.<draw>`."""
    rng = np.random.default_rng(seed)
    d = getattr(rng, draw)
    rk = RankVector(L)
    f = LL1Factors(d((dims[0], rk.total)), d((dims[1], rk.total)), d((dims[2], rk.R)), rk)
    return f, DenseTensor3(d(dims))


@pytest.mark.parametrize("dims, L", KERNEL_SHAPES)
def test_kernels_match_reference_bitwise(dims, L):
    """The H rows of all fibers, `mttkrp`, `full_gradient` and `reconstruct`
    give the same bits as the plain kron/hstack, unfolding-contraction and
    validated-reconstruction formulas of `tests/conftest.py`."""
    f, x = kernel_problem(dims, L, sum(dims) + len(L))
    for mode in (1, 2, 3):
        assert all_H_rows(f, mode).tobytes() == reference_build_H(f, mode).tobytes()
        np.testing.assert_array_equal(mttkrp(f, x, mode), reference_mttkrp(f, x, mode))
        np.testing.assert_array_equal(full_gradient(f, x, mode),
                                      reference_full_gradient(f, x, mode))
    recon = reconstruct(f).array
    np.testing.assert_array_equal(recon, reference_reconstruct(f).array)
    assert recon.flags.f_contiguous


def fit_rounding(f, x):
    """16 eps (||X||^2 + ||Xhat||^2) / (2N): the error `objective`'s
    contraction identity may add to f."""
    xhat = reference_reconstruct(f).array
    sq_sum = np.vdot(x.array, x.array) + np.vdot(xhat, xhat)
    return 16 * np.finfo(float).eps * sq_sum / (2 * x.size)


@pytest.mark.parametrize("dims, L", KERNEL_SHAPES)
def test_objective_is_the_residual_sum_to_rounding(dims, L):
    """f is the entry-by-entry residual sum of `reference_objective` to
    `fit_rounding`, h and phi = f + h are exact: on an unrelated tensor and
    on the factors' own reconstruction plus noise of 1e-4 to 10 times the
    draw, for both draws."""
    reg = Regularizer("ridge", 0.3)
    for seed, draw in enumerate(("standard_normal", "random")):
        f, e = kernel_problem(dims, L, sum(dims) + len(L) + seed, draw)
        xhat = reference_reconstruct(f).array
        for x in (e, *(DenseTensor3(xhat + s * e.array) for s in (1e-4, 1e-2, 1.0, 10.0))):
            obj = objective(f, x, reg)
            f_ref, h_ref, _ = reference_objective(f, x, reg)
            assert abs(obj.f - f_ref) <= fit_rounding(f, x), (draw, f_ref)
            assert obj.h == h_ref and obj.phi == obj.f + obj.h


@pytest.mark.parametrize("dims, L", KERNEL_SHAPES)
def test_objective_of_an_exact_fit_is_the_residual_sum(dims, L):
    """At a noiseless tensor's planted truth the identity would cancel to
    rounding noise of either sign: f falls back to the residual sum, with
    the bits of `reference_objective`, and is never negative."""
    for draw in ("standard_normal", "random"):
        f, _ = kernel_problem(dims, L, sum(dims), draw)
        x = reconstruct(f)
        obj = objective(f, x, NONE)
        assert (obj.f, obj.h, obj.phi) == reference_objective(f, x, NONE)
        assert obj.f >= 0.0


def test_objective_makes_no_tensor_sized_buffer():
    """Away from an exact fit, one call at the mid benchmark shape allocates
    well under one 4 MB tensor: no reconstruction."""
    f, x = kernel_problem((100, 100, 50), (4, 4, 4), 3)
    objective(f, x, NONNEG)  # caches ||X||^2
    tracemalloc.start()
    try:
        objective(f, x, NONNEG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("dims, L", KERNEL_SHAPES)
def test_full_gradient_matches_unfolding_formula(dims, L):
    """`full_gradient` contracts the tensor's storage in another order than
    the H_n formula over the copied unfolding; the two agree to a few ulps
    of the largest entry."""
    for seed, draw in itertools.product((1, 2), ("standard_normal", "random")):
        f, x = kernel_problem(dims, L, seed, draw)
        for mode in (1, 2, 3):
            g = full_gradient(f, x, mode)
            ref = reference_unfolding_gradient(f, x, mode)
            assert np.abs(g - ref).max() <= 1e-13 * np.abs(g).max()


def test_full_gradient_makes_no_tensor_sized_buffer():
    """One call at the mid benchmark shape allocates well under one 4 MB
    copy of the tensor: no unfolding copy and no J_n x L H_n."""
    f, x = kernel_problem((100, 100, 50), (4, 4, 4), 3)
    for mode in (1, 2, 3):
        full_gradient(f, x, mode)
        tracemalloc.start()
        try:
            full_gradient(f, x, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (mode, peak)


def finite_difference_gradient(f, x, mode, h=1e-6):
    a = f.factor(mode)
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap, am = a.copy(), a.copy()
            ap[i, j] += h
            am[i, j] -= h
            out[i, j] = (
                objective(f.replaced(mode, ap), x, NONE).f
                - objective(f.replaced(mode, am), x, NONE).f
            ) / (2 * h)
    return out


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_full_gradient_finite_differences(mode):
    rng = np.random.default_rng(9)
    f = random_factors(rng, (4, 5, 3), (2, 1))
    x = DenseTensor3(rng.random((4, 5, 3)))
    g = full_gradient(f, x, mode)
    fd = finite_difference_gradient(f, x, mode)
    assert np.abs(g - fd).max() / np.abs(g).max() <= 1e-5


def test_full_gradient_zero_at_exact_fit():
    rng = np.random.default_rng(10)
    f = random_factors(rng, (4, 4, 4), (2, 2))
    x = reconstruct(f)
    for mode in (1, 2, 3):
        assert np.linalg.norm(full_gradient(f, x, mode)) <= 1e-9


def test_directional_derivative_consistency():
    rng = np.random.default_rng(11)
    f = random_factors(rng, (4, 5, 3), (2, 2))
    x = DenseTensor3(rng.random((4, 5, 3)))
    eps = 1e-6
    for mode in (1, 2, 3):
        d = rng.standard_normal(f.factor(mode).shape)
        d /= np.linalg.norm(d)
        num = (
            objective(f.replaced(mode, f.factor(mode) + eps * d), x, NONE).f
            - objective(f.replaced(mode, f.factor(mode) - eps * d), x, NONE).f
        ) / (2 * eps)
        inner = float(np.sum(full_gradient(f, x, mode) * d))
        assert num == pytest.approx(inner, rel=1e-5)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_gram_H_matches_explicit(mode):
    rng = np.random.default_rng(12)
    f = random_factors(rng, (4, 5, 3), (2, 3, 1))
    h = reference_build_H(f, mode)
    g = gram_H(f, mode)
    assert np.abs(g - h.T @ h).max() <= 1e-12 * max(1.0, np.abs(g).max())
    assert np.abs(g - g.T).max() <= 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-12


def test_lipschitz_scalar_gram():
    # 1x1 Gram [4] and I^3 = 8 -> bound 0.5
    f = LL1Factors(
        np.array([[2.0], [0.0]]),
        np.array([[1.0], [0.0]]),
        np.array([[1.0], [0.0]]),
        RankVector((1,)),
    )
    # H3 column = kron(A2, A1) = [2,0,0,0]; Gram = [4]
    assert lipschitz_bound(f, 3) == pytest.approx(0.5, rel=1e-12)


def test_lipschitz_matches_dense_eigensolver():
    """L_n is sigma_max(H_n)^2 / N of the explicit H_n, to rounding, for
    nonnegative (uniform) and for signed (standard-normal) factors."""
    rng = np.random.default_rng(13)
    for sample in (rng.random, rng.standard_normal):
        f = LL1Factors(sample((5, 4)), sample((4, 4)), sample((3, 2)), RankVector((2, 2)))
        for mode in (1, 2, 3):
            lam = np.linalg.norm(reference_build_H(f, mode), 2) ** 2 / 60
            assert lipschitz_bound(f, mode) == pytest.approx(lam, rel=1e-12)


def test_lipschitz_is_exact_on_a_signed_gram():
    """H_1 = A2 has the Gram [[2, -1], [-1, 2]], whose all-ones vector is the
    eigenvector of the smaller eigenvalue 1: a power iteration started there
    reads 1/6.  The bound is 3/6, and a 1/L step does not raise f."""
    f = LL1Factors(np.eye(2), np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[1.0]]), RankVector((2,)))
    x = DenseTensor3(np.arange(6.0).reshape(2, 3, 1) / 6)
    lip = lipschitz_bound(f, 1)
    assert lip == pytest.approx(0.5, rel=1e-12)
    stepped = f.replaced(1, f.A1 - full_gradient(f, x, 1) / lip)
    assert objective(stepped, x, NONE).f <= objective(f, x, NONE).f


def test_lipschitz_orthonormal_scaled():
    # H2 = c kron A1 with orthonormal-column A1 scaled by sigma and unit c
    sigma = 3.0
    f = LL1Factors(
        sigma * np.eye(2),
        np.random.default_rng(14).random((3, 2)),
        np.array([[1.0], [0.0]]),
        RankVector((2,)),
    )
    assert lipschitz_bound(f, 2) == pytest.approx(sigma**2 / 12, rel=1e-6)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_H_rows_at_gathers_like_fancy_indexing(mode):
    """`H_rows_at`, which gathers rows with `take`, has the bits of the
    same products of fancy-indexed rows for 1-D coordinates (a batch), 2-D
    ones (a warm-start chunk of bins) and a broadcast grid of all fibers."""
    f = random_factors(np.random.default_rng(15), (5, 7, 4), (2, 1))

    def fancy(a, b):
        if mode == 3:
            return _block_sums(f.A2[b, :] * f.A1[a, :], f.ranks)
        return np.repeat(f.A3, f.ranks.L, axis=1)[b, :] * (f.A2 if mode == 1 else f.A1)[a, :]

    fast, slow = (d for k, d in enumerate(f.dims, start=1) if k != mode)
    jn = fast * slow
    batch = np.random.default_rng(16).choice(jn, size=6, replace=False)
    for a, b in (fiber_coordinates(f.dims, mode, batch),
                 fiber_coordinates(f.dims, mode, np.arange(jn - jn % 4).reshape(-1, 4)),
                 (np.arange(fast), np.arange(slow)[:, None])):
        got, want = H_rows_at(f, mode, a, b), fancy(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_n_kernels_never_read_a_n(mode):
    """The mode-n H rows, the Gram of H_n, X_(n)^T H_n and L_n come from the
    other two factors: filling A_n with NaNs leaves their bits as they are.
    The solver relies on this to pass a gradient point as `factors` plus A_n."""
    f = random_factors(np.random.default_rng(17), (5, 7, 4), (2, 1))
    nan = f.replaced(mode, np.full_like(f.factor(mode), np.nan))
    batch = np.random.default_rng(18).choice(row_count(f.dims, mode), size=6, replace=False)
    a, b = fiber_coordinates(f.dims, mode, batch)
    assert H_rows_at(nan, mode, a, b).tobytes() == H_rows_at(f, mode, a, b).tobytes()
    assert gram_H(nan, mode).tobytes() == gram_H(f, mode).tobytes()
    x = DenseTensor3(np.random.default_rng(19).random(f.dims))
    assert mttkrp(nan, x, mode).tobytes() == mttkrp(f, x, mode).tobytes()
    assert lipschitz_bound(nan, mode) == lipschitz_bound(f, mode)


def test_kept_kernels_follow_the_factors_they_read():
    """The Grams ride along to the points `replaced` builds, and Y and M3
    stay kept on the tensor.  After `replaced(3, a)` the kernels of modes 1
    and 2, and after `replaced(1, a)` those of modes 2 and 3, are a freshly
    built point's bit for bit; what reads none of the new factor is the same
    kept array."""
    rng = np.random.default_rng(31)
    f = random_factors(rng, (5, 7, 4), (2, 1))
    x = DenseTensor3(rng.random(f.dims))
    for mode in (1, 2, 3):
        mttkrp(f, x, mode)
        gram_H(f, mode)
    for n in (3, 1):
        g = f.replaced(n, rng.random(f.factor(n).shape))
        fresh = LL1Factors(g.A1, g.A2, g.A3, g.ranks)
        for mode in (1, 2, 3):
            if mode != n:
                assert mttkrp(g, x, mode).tobytes() == mttkrp(fresh, x, mode).tobytes()
                assert gram_H(g, mode).tobytes() == gram_H(fresh, mode).tobytes()
        assert gram_H(g, n) is gram_H(f, n)
    assert mttkrp(f.replaced(3, f.A3 + 1.0), x, 3) is mttkrp(f, x, 3)


def test_kept_contractions_follow_the_tensor():
    """Each tensor keeps its own contractions: one point contracted against
    a second tensor gives that tensor's X_(n)^T H_n, and against the first
    again the first's."""
    rng = np.random.default_rng(32)
    f = random_factors(rng, (5, 7, 4), (2, 1))
    x, z = (DenseTensor3(rng.random(f.dims)) for _ in range(2))
    for mode in (1, 2, 3):
        for t in (x, z, x):
            assert mttkrp(f, t, mode).tobytes() == reference_mttkrp(f, t, mode).tobytes()


def test_kept_contractions_follow_the_point():
    """Two points contracted in turn against one tensor each get their own
    X_(n)^T H_n: what the tensor keeps from one is not served to the other."""
    rng = np.random.default_rng(36)
    f, g = (random_factors(rng, (5, 7, 4), (2, 1)) for _ in range(2))
    x = DenseTensor3(rng.random(f.dims))
    for mode in (1, 2, 3):
        for p in (f, g, f):
            assert mttkrp(p, x, mode).tobytes() == reference_mttkrp(p, x, mode).tobytes()


def test_points_keep_no_tensor():
    """Contractions are kept on the tensor, so a point that has been through
    the full-gradient kernels and the objective keeps only its Grams, each
    with the two factors it read."""
    rng = np.random.default_rng(37)
    f = random_factors(rng, (5, 7, 4), (2, 1))
    x = DenseTensor3(rng.random(f.dims))
    for mode in (1, 2, 3):
        full_gradient(f, x, mode)
    objective(f, x, NONE)
    assert set(vars(f)) == {"A1", "A2", "A3", "ranks", "_gram1", "_gram2", "_gram3"}


def test_factor_arrays_are_read_only_copies():
    """The constructor copies its inputs and marks them read-only, so writing
    into a factor raises ValueError instead of leaving what was kept from
    it stale, and writing into an input leaves the point as it was."""
    rng = np.random.default_rng(35)
    inputs = rng.random((5, 3)), rng.random((7, 3)), rng.random((4, 2))
    f = LL1Factors(*inputs, RankVector((2, 1)))
    x = DenseTensor3(rng.random(f.dims))
    phi = objective(f, x, NONE).phi
    for n in (1, 2, 3):
        a = f.factor(n)
        with pytest.raises(ValueError):
            a *= 2.0
        with pytest.raises(ValueError):
            f.copy().factor(n)[0, 0] = 0.0
    for a in inputs:
        a *= 2.0
    assert objective(f, x, NONE).phi == phi


def test_kept_arrays_are_read_only():
    """A kept Gram or M3, or a rank vector's column blocks, is shared by every
    later call on the point, the tensor or the ranks, so writing into it
    raises instead of changing what they return."""
    f = random_factors(np.random.default_rng(33), (5, 7, 4), (2, 1))
    x = DenseTensor3(np.random.default_rng(34).random(f.dims))
    for kept in (mttkrp(f, x, 3), gram_H(f, 1), gram_H(f, 2), gram_H(f, 3),
                 f.ranks.column_blocks):
        with pytest.raises(ValueError):
            kept[..., 0] = 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lipschitz_bound_is_inf_when_not_finite():
    """One huge or non-finite entry of A1 makes the Gram of modes 2 and 3
    non-finite (1e200, inf, nan): their bound is inf, not the 0 or NaN of a
    collapsed factor, and mode 1's is as it was.  At 1e78 the Gram (about
    1e156) is finite and so is the bound: that of the explicit H_n."""
    f = random_factors(np.random.default_rng(19), (5, 4, 3), (2, 2))
    for bad in (1e78, 1e200, np.inf, np.nan):
        a1 = f.A1.copy()
        a1[0, 0] = bad
        g = f.replaced(1, a1)
        for mode in (2, 3):
            if bad == 1e78:
                lam = np.linalg.norm(reference_build_H(g, mode), 2) ** 2 / 60
                assert lipschitz_bound(g, mode) == pytest.approx(lam, rel=1e-12)
            else:
                assert lipschitz_bound(g, mode) == math.inf
        assert lipschitz_bound(g, 1) == lipschitz_bound(f, 1)


@pytest.mark.parametrize("L", [
    *[(w,) for w in range(1, 10)],      # R = 1
    *[(w, w, w) for w in range(1, 10)],  # equal widths, 8 and 9 summed pairwise by numpy
    (1, 2), (3, 1, 4), (7, 8, 9), (2, 9, 1, 5),
])
def test_block_sums_match_reference_bitwise(L):
    """The mode-3 H rows from `H_rows_at` (all fibers as one batch and as a
    stack of two batches) keep the bits of the per-block `sum` of the
    reference, signed zeros included, at 1, 8 and 10,000 rows."""
    rng = np.random.default_rng(sum(L) * len(L))
    rk = RankVector(L)
    for dims in ((1, 1, 2), (4, 2, 3), (100, 100, 2)):
        a1 = rng.standard_normal((dims[0], rk.total))
        a2 = rng.standard_normal((dims[1], rk.total))
        a1[rng.random(a1.shape) < 0.3] = -0.0
        a2[rng.random(a2.shape) < 0.3] = 0.0
        a1[0] = -0.0  # a row of -0.0 products: numpy's sum makes +0.0 of it
        f = LL1Factors(a1, a2, rng.standard_normal((dims[2], rk.R)), rk)
        ref = reference_build_H(f, 3)
        rows = np.arange(ref.shape[0])
        a, b = fiber_coordinates(f.dims, 3, rows)
        assert H_rows_at(f, 3, a, b).tobytes() == ref.tobytes()
        if rows.size % 2 == 0:
            stacked = H_rows_at(f, 3, a.reshape(2, -1), b.reshape(2, -1))
            assert stacked.tobytes() == ref.tobytes()
