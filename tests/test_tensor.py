import itertools

import numpy as np
import pytest

from midasll1.tensor import (
    DenseTensor3,
    fiber_coordinates,
    fiber_rows_at,
    fold,
    khatri_rao,
    row_count,
    unfold,
)


def gather(t, mode, rows):
    return fiber_rows_at(t, mode, *fiber_coordinates(t.dims, mode, rows))


def counting_tensor():
    # X(i1,i2,i3) = i1 + 2*(i2-1) + 4*(i3-1), 1-based
    cube = np.empty((2, 2, 2))
    for i1, i2, i3 in itertools.product(range(2), repeat=3):
        cube[i1, i2, i3] = (i1 + 1) + 2 * i2 + 4 * i3
    return DenseTensor3(cube)


def brute_force_unfold(t, mode):
    dims = t.dims
    jn = row_count(dims, mode)
    out = np.empty((jn, dims[mode - 1]))
    for i1, i2, i3 in itertools.product(*(range(d) for d in dims)):
        idx = (i1, i2, i3)
        j, mult = 0, 1
        for k in range(3):
            if k == mode - 1:
                continue
            j += idx[k] * mult
            mult *= dims[k]
        out[j, idx[mode - 1]] = t.array[i1, i2, i3]
    return out


def test_unfold_counting_tensor_mode1():
    t = counting_tensor()
    u = unfold(t, 1)
    assert u.shape == (4, 2)
    np.testing.assert_array_equal(u[:, 0], [1, 3, 5, 7])
    np.testing.assert_array_equal(u[:, 1], [2, 4, 6, 8])


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_index_formula(mode):
    rng = np.random.default_rng(7)
    t = DenseTensor3(rng.random((3, 4, 5)))
    np.testing.assert_array_equal(unfold(t, mode), brute_force_unfold(t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("dims", [(2, 2, 2), (5, 3, 2), (3, 4, 5)])
def test_fold_unfold_roundtrip(mode, dims):
    rng = np.random.default_rng(11)
    t = DenseTensor3(rng.random(dims))
    back = fold(unfold(t, mode), mode, dims)
    np.testing.assert_array_equal(back.array, t.array)


def test_fold_zero_matrix_is_zero_tensor():
    z = fold(unfold(DenseTensor3(np.zeros((4, 2, 3))), 2), 2, (4, 2, 3))
    assert not z.array.any()


def test_fold_dimension_mismatch():
    t = counting_tensor()
    with pytest.raises(ValueError):
        fold(unfold(t, 1), 1, (2, 2, 3))


def test_tensor_rejects_nonfinite():
    cube = np.zeros((2, 2, 2))
    cube[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        DenseTensor3(cube)


@pytest.mark.parametrize("build, match", [
    (lambda: DenseTensor3(np.zeros((2, 2))), "expected a 3rd-order tensor, got ndim=2"),
    (lambda: DenseTensor3(np.zeros((2, 2, 2, 1))), "expected a 3rd-order tensor, got ndim=4"),
    (lambda: DenseTensor3.from_flat(np.zeros(0), (0, 2, 2)),
     r"dimensions must be positive, got \(0, 2, 2\)"),
    (lambda: DenseTensor3.from_flat(np.zeros(4), (2, -2, -1)), "dimensions must be positive"),
    (lambda: DenseTensor3.from_flat(np.zeros(7), (2, 2, 2)),
     r"flat data has 7 entries, dims \(2, 2, 2\) need 8"),
], ids=["ndim-2", "ndim-4", "zero-dim", "negative-dims", "entry-count"])
def test_tensor_rejects_malformed_shapes(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("mode", [0, 4, -1])
def test_mode_outside_one_to_three_is_rejected(mode):
    with pytest.raises(ValueError, match=f"mode must be 1, 2 or 3, got {mode}"):
        row_count((2, 3, 4), mode)


def test_norm_keeps_the_bits_of_linalg_norm():
    """`norm()` is the square root of the cached `sqnorm`, with the bits of
    `np.linalg.norm` over the entries, on C- and F-ordered input of several
    shapes and scales."""
    rng = np.random.default_rng(20)
    for i in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 30, size=3))
        a = rng.standard_normal(dims) * 10.0 ** rng.integers(-150, 150)
        t = DenseTensor3(a if i % 2 else np.asfortranarray(a))
        assert t.norm() == float(np.linalg.norm(a.ravel(order="F")))


def test_from_flat_column_major():
    t = DenseTensor3.from_flat(np.arange(1.0, 9.0), (2, 2, 2))
    np.testing.assert_array_equal(t.array, counting_tensor().array)
    np.testing.assert_array_equal(t.flat, np.arange(1.0, 9.0))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_gather_full_batch_equals_unfold(mode):
    rng = np.random.default_rng(3)
    t = DenseTensor3(rng.random((3, 4, 5)))
    jn = row_count(t.dims, mode)
    rows = gather(t, mode, np.arange(jn))
    np.testing.assert_array_equal(rows, unfold(t, mode))


def test_gather_singleton_matches_unfold_row():
    rng = np.random.default_rng(5)
    t = DenseTensor3(rng.random((3, 4, 5)))
    for mode in (1, 2, 3):
        u = unfold(t, mode)
        for j in (0, 3, u.shape[0] - 1):
            row = gather(t, mode, np.array([j]))
            np.testing.assert_array_equal(row[0], u[j])


def test_gather_deterministic():
    rng = np.random.default_rng(9)
    t = DenseTensor3(rng.random((4, 4, 4)))
    rows = np.array([3, 0, 7])
    a = gather(t, 2, rows)
    b = gather(t, 2, rows)
    np.testing.assert_array_equal(a, b)


def test_khatri_rao_scalar():
    np.testing.assert_array_equal(khatri_rao(np.array([[2.0]]), np.array([[3.0]])), [[6.0]])


def test_khatri_rao_gram_identity():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((5, 3))
    kr = khatri_rao(a, b)
    lhs = kr.T @ kr
    rhs = (a.T @ a) * (b.T @ b)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_khatri_rao_kron_structure():
    b = np.random.default_rng(1).random((3, 2))
    a = np.zeros((4, 2))
    a[2, 0] = 1.0
    a[1, 1] = 1.0
    kr = khatri_rao(a, b)
    np.testing.assert_array_equal(kr[:, 0], np.kron(a[:, 0], b[:, 0]))
    np.testing.assert_array_equal(kr[:, 1], np.kron(a[:, 1], b[:, 1]))


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 2)), np.ones((2, 3)))
