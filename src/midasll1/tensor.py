"""Dense third-order tensor storage, unfolding, fiber gathering, Khatri-Rao kernels.

Conventions
-----------
Element order is column-major: index i1 varies fastest, then i2, then i3.
The mode-n unfolding is the J_n-by-I_n matrix with

    X_(n)[j, i_n] = X[i1, i2, i3],   j = sum over k != n of i_k * Jbar_k,

where Jbar_k is the product of the dimensions I_m for m < k, m != n (all
indices 0-based here; the classical formula is 1-based).  Note this layout
is the transpose of the Kolda-convention I_n-by-J_n unfolding used by some
other toolchains; importing data from those requires a transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DenseTensor3:
    """Immutable dense real third-order tensor (float64)."""

    array: np.ndarray  # shape (I1, I2, I3)

    def __post_init__(self):
        a = np.asarray(self.array, dtype=np.float64)
        if a.ndim != 3:
            raise ValueError(f"expected a 3rd-order tensor, got ndim={a.ndim}")
        if not np.isfinite(a).all():
            raise ValueError("tensor entries must be finite")
        a = np.asfortranarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    @property
    def flat(self) -> np.ndarray:
        """Entries in column-major order (i1 fastest)."""
        return self.array.ravel(order="F")

    @classmethod
    def from_flat(cls, flat, dims) -> "DenseTensor3":
        flat = np.asarray(flat, dtype=np.float64)
        i1, i2, i3 = dims
        if any(d <= 0 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        if flat.size != i1 * i2 * i3:
            raise ValueError(
                f"flat data has {flat.size} entries, dims {dims} need {i1 * i2 * i3}"
            )
        return cls(flat.reshape((i1, i2, i3), order="F"))

    @classmethod
    def zeros(cls, dims) -> "DenseTensor3":
        return cls(np.zeros(dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


@dataclass(frozen=True)
class FiberBatch:
    """A set of distinct mode-n fiber indices (0-based rows of the unfolding)."""

    mode: int
    indices: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)
        idx = np.asarray(self.indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("batch must contain at least one fiber index")
        if np.unique(idx).size != idx.size:
            raise ValueError("fiber indices must be distinct")
        if idx.min() < 0:
            raise ValueError("fiber indices must be nonnegative")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def trusted(cls, mode: int, indices: np.ndarray) -> "FiberBatch":
        """Wrap intp indices already known to be distinct and in range,
        without the checks of the constructor."""
        out = object.__new__(cls)
        out.__dict__.update(mode=mode, indices=indices)
        return out

    @property
    def size(self) -> int:
        return self.indices.size


def _check_mode(mode: int):
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def row_count(dims, mode: int) -> int:
    """J_n = product of the dimensions other than mode n."""
    _check_mode(mode)
    i1, i2, i3 = dims
    return (i1 * i2 * i3) // dims[mode - 1]


def fiber_coordinates(dims, mode: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Split unfolding row indices into the two non-mode coordinates.

    Returns (first, second) where `first` is the faster-varying coordinate:
    (i2, i3) for mode 1, (i1, i3) for mode 2, (i1, i2) for mode 3.
    """
    _check_mode(mode)
    rows = np.asarray(rows, dtype=np.intp)
    i1, i2, _ = dims
    fast = i2 if mode == 1 else i1
    return rows % fast, rows // fast


def unfold(t: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-n unfolding: J_n rows (all other indices), I_n columns."""
    _check_mode(mode)
    moved = np.moveaxis(t.array, mode - 1, 2)
    jn = row_count(t.dims, mode)
    return moved.reshape((jn, t.dims[mode - 1]), order="F")


def unfold_contiguous(t: DenseTensor3, mode: int) -> np.ndarray:
    """`unfold` as a C-contiguous array, made in one pass: a view for mode 1,
    whose unfolding is the column-major storage itself, one copy otherwise."""
    _check_mode(mode)
    a, b = (k for k in range(3) if k != mode - 1)
    x = np.ascontiguousarray(t.array.transpose(b, a, mode - 1))
    return x.reshape(row_count(t.dims, mode), t.dims[mode - 1])


def fold(m: np.ndarray, mode: int, dims) -> DenseTensor3:
    """Inverse of unfold(t, mode) for a tensor of shape `dims`; exact round trip."""
    jn = row_count(dims, mode)
    if m.shape != (jn, dims[mode - 1]):
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with mode {mode} of dims {dims}"
        )
    rest = [d for k, d in enumerate(dims, start=1) if k != mode]
    cube = m.reshape((*rest, dims[mode - 1]), order="F")
    return DenseTensor3(np.moveaxis(cube, 2, mode - 1))


def gather_fiber_rows(t: DenseTensor3, batch: FiberBatch) -> np.ndarray:
    """Rows of the mode-n unfolding for the sampled fibers, as a B-by-I_n matrix.

    Computed by direct index arithmetic; the full unfolding is never built.
    """
    jn = row_count(t.dims, batch.mode)
    if batch.indices.max() >= jn:
        raise IndexError(f"fiber index out of range for J_{batch.mode}={jn}")
    a, b = fiber_coordinates(t.dims, batch.mode, batch.indices)
    return fiber_rows_at(t, batch.mode, a, b)


def fiber_rows_at(t: DenseTensor3, mode: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`gather_fiber_rows` at fiber coordinates `(a, b)` from
    `fiber_coordinates`, without checks; a C-contiguous B-by-I_n copy."""
    x = t.array
    if mode == 1:
        return np.ascontiguousarray(x[:, a, b].T)
    if mode == 2:
        return x[a, :, b]
    return x[a, b, :]


def mode1_rows(t: DenseTensor3, span: slice) -> np.ndarray:
    """Consecutive rows of the mode-1 unfolding as a zero-copy view.

    The tensor is stored column-major, so the mode-1 unfolding is a
    C-contiguous view of it and so is any run of its rows: the same values
    and memory layout as `fiber_rows_at` on those fibers.
    """
    return t.array.reshape((t.dims[0], -1), order="F").T[span]


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao product; the second argument's row index is fastest.

    Column l of the result is kron(a[:, l], b[:, l]), so the row ordering is
    consistent with unfolding rows (earlier modes fastest).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts must match, got shapes {a.shape} and {b.shape}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])
