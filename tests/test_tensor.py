import itertools

import numpy as np
import pytest

from midasll1.tensor import (
    DenseTensor3,
    FiberBatch,
    fold,
    gather_fiber_rows,
    khatri_rao,
    row_count,
    unfold,
    unfold_contiguous,
)


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
    z = fold(unfold(DenseTensor3.zeros((4, 2, 3)), 2), 2, (4, 2, 3))
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


def test_from_flat_column_major():
    t = DenseTensor3.from_flat(np.arange(1.0, 9.0), (2, 2, 2))
    np.testing.assert_array_equal(t.array, counting_tensor().array)
    np.testing.assert_array_equal(t.flat, np.arange(1.0, 9.0))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_gather_full_batch_equals_unfold(mode):
    rng = np.random.default_rng(3)
    t = DenseTensor3(rng.random((3, 4, 5)))
    jn = row_count(t.dims, mode)
    rows = gather_fiber_rows(t, FiberBatch(mode, np.arange(jn)))
    np.testing.assert_array_equal(rows, unfold(t, mode))


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_contiguous_matches_unfold(mode):
    rng = np.random.default_rng(4)
    t = DenseTensor3(rng.random((3, 4, 5)))
    u = unfold_contiguous(t, mode)
    np.testing.assert_array_equal(u, unfold(t, mode))
    assert u.flags.c_contiguous
    # the mode-1 unfolding is the column-major storage itself
    assert np.shares_memory(u, t.array) == (mode == 1)


def test_gather_singleton_matches_unfold_row():
    rng = np.random.default_rng(5)
    t = DenseTensor3(rng.random((3, 4, 5)))
    for mode in (1, 2, 3):
        u = unfold(t, mode)
        for j in (0, 3, u.shape[0] - 1):
            row = gather_fiber_rows(t, FiberBatch(mode, np.array([j])))
            np.testing.assert_array_equal(row[0], u[j])


def test_gather_deterministic():
    rng = np.random.default_rng(9)
    t = DenseTensor3(rng.random((4, 4, 4)))
    batch = FiberBatch(2, np.array([3, 0, 7]))
    a = gather_fiber_rows(t, batch)
    b = gather_fiber_rows(t, batch)
    np.testing.assert_array_equal(a, b)


def test_gather_out_of_range():
    t = counting_tensor()
    with pytest.raises(IndexError):
        gather_fiber_rows(t, FiberBatch(1, np.array([4])))


def test_fiber_batch_validation():
    with pytest.raises(ValueError):
        FiberBatch(1, np.array([1, 1]))
    with pytest.raises(ValueError):
        FiberBatch(1, np.array([], dtype=int))
    with pytest.raises(ValueError):
        FiberBatch(4, np.array([0]))


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
