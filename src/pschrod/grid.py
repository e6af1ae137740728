"""Uniform tensor grids on a box, with quadrature, gradients and file I/O.

The whole package computes on ``[-L, L]^n`` (n = 1, 2, 3) discretized by
``m`` equally spaced nodes per axis.  A :class:`GridFunction` is a flat
row-major array of nodal samples; :func:`sample` makes one from a field by
a single call on the nodes' coordinate arrays, so a field is a numpy
expression of them.  Integrals are tensor-product trapezoid
sums, so all quadrature weights are positive and one-sided inequality
checks stay one-sided.  Annulus integrals mask whole nodes (no cell clipping); the
induced O(h) geometric error is absorbed by report tolerances downstream.
The cell-centred gradient is defined once, by the stencil table
:func:`cell_stencil`; G v (:func:`cell_gradient_squared`), G^T w
(:func:`cell_gradient_adjoint`) and the solver's Hessian fill read it, no
matrix of G is stored, and :func:`energy_sums` gives the X-norm sums.
The solver and every estimate check use G.  The nodal central-difference
:func:`gradient`, an ``(m**n, n)`` array with one column per axis, serves
only the ark bound's ``|grad f|`` in :mod:`pschrod.compactness`.
Positive powers of grid data go through :func:`abs_power`, which keeps
``pow`` off its slow paths (underflowing results, zero arguments) on
decaying solutions.

All types are immutable after construction.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "GridSpec",
    "GridFunction",
    "sample",
    "gradient",
    "cell_stencil",
    "cell_gradient_squared",
    "cell_gradient_adjoint",
    "energy_sums",
    "abs_power",
    "row_blocks",
    "integrate",
    "zero_boundary",
    "save_grid_function",
    "load_grid_function",
    "write_json",
]

_MAX_NODES = 2**27  # keep m**n addressable and memory sane
BLOCK_ELEMENTS = 2**16  # float64 values per row block: 512 KiB, a cache-sized working set


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the box ``[-L, L]^n``.

    Parameters
    ----------
    n : int
        Spatial dimension, 1 <= n <= 3.
    L : float
        Half-width of the box, > 0 and small enough that ``2 L`` is finite.
    m : int
        Nodes per axis, >= 3.  The spacing is ``h = 2 L / (m - 1)``.

    Node coordinates along each axis are ``(i - (m - 1) / 2) * h`` for
    ``i = 0 .. m-1``; this equals ``-L + i h`` in exact arithmetic and is
    exactly symmetric about the origin in floating point, which keeps
    odd-symmetry and radius masks deterministic.
    """

    n: int
    L: float
    m: int

    def __post_init__(self):
        if any(isinstance(v, bool) for v in (self.n, self.L, self.m)):
            raise ValueError(f"n, L and m must be numbers, not booleans: {self!r}")
        if not isinstance(self.n, int) or not 1 <= self.n <= 3:
            raise ValueError(f"dimension n must be an integer in [1, 3], got {self.n!r}")
        if not 0 < self.L <= np.finfo(np.float64).max / 2:
            raise ValueError(f"half-width L must be positive with a finite spacing, got {self.L!r}")
        if not isinstance(self.m, int) or self.m < 3:
            raise ValueError(f"points-per-axis m must be an integer >= 3, got {self.m!r}")
        if self.m**self.n > _MAX_NODES:
            raise ValueError(f"grid with {self.m}^{self.n} nodes exceeds the supported size")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.m - 1)

    @property
    def num_nodes(self) -> int:
        return self.m**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    # cached per grid: equal specs hash alike and share one read-only array
    @lru_cache(maxsize=64)
    def axis_coords(self) -> np.ndarray:
        i = np.arange(self.m, dtype=np.float64)
        x = (i - (self.m - 1) / 2.0) * self.h
        x.flags.writeable = False
        return x

    @lru_cache(maxsize=64)
    def node_coords(self) -> np.ndarray:
        """All node coordinates as an array of shape ``(m**n, n)``, row-major."""
        axes = np.meshgrid(*([self.axis_coords()] * self.n), indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=-1)
        pts.flags.writeable = False
        return pts

    @lru_cache(maxsize=64)
    def radii(self) -> np.ndarray:
        """Euclidean distance of every node from the origin, shape ``(m**n,)``."""
        r = np.sqrt(_component_sum(self.node_coords() ** 2))
        r.flags.writeable = False
        return r

    @lru_cache(maxsize=64)
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weight of every node, shape ``(m**n,)``."""
        w1 = np.full(self.m, self.h)
        w1[0] = w1[-1] = self.h / 2.0
        w = w1
        for _ in range(self.n - 1):
            w = np.multiply.outer(w, w1)
        w = np.ascontiguousarray(w.ravel())
        w.flags.writeable = False
        return w

    @lru_cache(maxsize=64)
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of nodes lying on the boundary of the box."""
        edge1 = np.zeros(self.m, dtype=bool)
        edge1[0] = edge1[-1] = True
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.m
            mask |= edge1.reshape(shape)
        mask = np.ascontiguousarray(mask.ravel())
        mask.flags.writeable = False
        return mask

    def describe(self) -> str:
        return f"n={self.n},L={self.L:g},m={self.m}"


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True).ravel()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real nodal samples on a :class:`GridSpec`, row-major, all finite."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.size != self.spec.num_nodes:
            raise ValueError(
                f"expected {self.spec.num_nodes} values for grid {self.spec.describe()}, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            coord = self.spec.node_coords()[bad]
            raise ValueError(f"non-finite value at node {bad} (x = {coord})")
        object.__setattr__(self, "values", vals)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.spec.shape)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_spec(self, other)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_spec(self, other)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.spec, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.spec, -self.values)

    def abs(self) -> "GridFunction":
        return GridFunction(self.spec, np.abs(self.values))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _check_same_spec(u: GridFunction, v: GridFunction) -> None:
    if u.spec != v.spec:
        raise ValueError(f"grid mismatch: {u.spec.describe()} vs {v.spec.describe()}")


def _require_zero_boundary(u: GridFunction, who: str) -> None:
    if np.any(u.values[u.spec.boundary_mask()] != 0.0):
        raise ValueError(f"{who} must vanish on the box boundary (support inside the box)")


def _require_radius(R: float) -> None:
    if not R >= 0:
        raise ValueError(f"radius must be nonnegative, got {R!r}")


def _component_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the short last axis of ``x``: the 1 to 3 components of grid vectors.

    The columns are added one at a time, in index order, to a sum that starts
    at +0.0.  On so short an axis that is the order of ``np.sum(x, axis=-1)``
    in any memory layout, so the bits are the same; ``np.sum`` is several times
    slower here.  A sum started from the first column instead would leave a
    row of -0.0 at -0.0, where ``np.sum`` gives +0.0.
    """
    out = np.add(x[..., 0], 0.0)  # the same as +0.0 + x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def sample(spec: GridSpec, field: Callable) -> GridFunction:
    """Sample a field at every node by one call on the coordinate arrays.

    ``field`` is called once as ``field(x)``, ``field(x, y)`` or
    ``field(x, y, z)`` with the nodes' coordinate arrays, each of shape
    ``(m**n,)``, under ``np.errstate(all="ignore")``.  It returns an array
    of that shape, or a scalar, which is taken for every node; any other
    shape raises ``ValueError``.  An exception the field raises propagates
    as it is, and a non-finite value is rejected naming its node.
    """
    pts = spec.node_coords()
    cols = [np.ascontiguousarray(pts[:, a]) for a in range(spec.n)]
    with np.errstate(all="ignore"):
        out = np.asarray(field(*cols), dtype=np.float64)
    if out.shape == ():
        out = np.full(spec.num_nodes, out)
    elif out.shape != (spec.num_nodes,):
        raise ValueError(f"field returned shape {out.shape}, expected {(spec.num_nodes,)} "
                         f"or a scalar on grid {spec.describe()}")
    return GridFunction(spec, out)


def gradient(u: GridFunction) -> np.ndarray:
    """Nodal gradient: central differences inside, one-sided at the boundary.

    A read-only ``(m**n, n)`` array; column ``a`` is the derivative along
    axis ``a``.  Exact for affine functions, including boundary nodes.
    """
    comps = np.gradient(u.reshaped(), u.spec.h, edge_order=1)
    if u.spec.n == 1:
        comps = [comps]
    g = np.stack([c.ravel() for c in comps], axis=-1)
    g.flags.writeable = False
    return g


@lru_cache(maxsize=32)
def cell_stencil(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The cell gradient as one table: ``(steps, coeffs)``.

    Corner ``k`` of a cell, in increasing node order, lies ``steps[a, k]`` (0 or
    1) nodes from the cell's lowest corner along axis ``a``; its coefficient in
    component ``a`` is ``coeffs[a, k] = (2 steps[a, k] - 1) 0.5**(n-1) / h``, the
    forward difference along ``a`` averaged over the cell's ``2**(n-1)`` edges
    parallel to it.  This gradient of the multilinear interpolant at the cell
    centre is the same for every cell and the one definition of the cell
    gradient.  Cached per grid and shared: do not mutate.
    """
    n = spec.n
    steps = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    coeffs = (2 * steps - 1) * 0.5 ** (n - 1) / spec.h
    for arr in (steps, coeffs):
        arr.flags.writeable = False
    return steps, coeffs


def _cell_layout(spec: GridSpec) -> tuple[np.ndarray, int, tuple]:
    """Each cell kept at the flat index of its lowest corner: corner ``k`` of every
    cell is ``x[offsets[k]:][:size]`` of a nodal ``x``; ``cells`` picks the cells."""
    offsets = spec.m ** np.arange(spec.n - 1, -1, -1) @ cell_stencil(spec)[0]
    cells = (Ellipsis,) + (slice(0, spec.m - 1),) * spec.n
    return offsets, spec.num_nodes - int(offsets[-1]), cells


def _cell_gradient_nodal(v: np.ndarray, spec: GridSpec) -> np.ndarray:
    """``G v`` shaped ``(n, nodes)``, each cell at its lowest corner (:func:`_cell_layout`).

    Each component, from zero, adds or subtracts the corner slices of ``P = c v``
    (every coefficient is ``+-c``) in increasing corner order: the order and the
    bits of a row-wise CSR product, signed zeros included.  Entries off the
    cells hold no cell's gradient.
    """
    steps, coeffs = cell_stencil(spec)
    offsets, size, _ = _cell_layout(spec)
    P = abs(coeffs[0, 0]) * v
    full = np.zeros((spec.n, spec.num_nodes))
    for k, o in enumerate(offsets):
        for a, acc in enumerate(full[:, :size]):
            (np.add if steps[a, k] else np.subtract)(acc, P[o:o + size], out=acc)
    return full


def cell_gradient_squared(v: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Components of ``G v``, shaped ``(n, cells)``, and ``|G v|^2`` per cell.

    The components are :func:`_cell_gradient_nodal` at the cells.  ``|G v|^2``
    adds the squared components in place in axis order, the bits of their ``np.sum``.
    """
    cells = _cell_layout(spec)[2]
    full = _cell_gradient_nodal(v, spec)
    comps = full.reshape((spec.n,) + spec.shape)[cells].reshape(spec.n, -1)
    s = comps[0] * comps[0]
    for c in comps[1:]:
        s += c * c
    return comps, s


def cell_gradient_adjoint(w: np.ndarray, spec: GridSpec) -> np.ndarray:
    """``G^T w`` for cell data ``w`` of ``n * cells`` values, component-major.

    Per component in axis order, ``Q = c w`` goes into the corner slices of a
    zeroed nodal array in decreasing corner order, so each node sums its cells
    in increasing order: the bits of a CSR ``G^T`` product.  ``Q`` is +0.0 off
    the cells, and a +-0.0 term leaves a sum begun at +0.0 as it is.
    """
    steps, coeffs = cell_stencil(spec)
    offsets, size, cells = _cell_layout(spec)
    Q = np.zeros((spec.n,) + spec.shape)
    np.multiply(abs(coeffs[0, 0]), w.reshape(Q[cells].shape), out=Q[cells])
    out = np.zeros(spec.num_nodes)
    for a, q in enumerate(Q.reshape(spec.n, -1)[:, :size]):
        for k in reversed(range(offsets.size)):
            acc = out[offsets[k]:offsets[k] + size]
            (np.add if steps[a, k] else np.subtract)(acc, q, out=acc)
    return out


def energy_sums(v: np.ndarray, V: np.ndarray, spec: GridSpec, p: float,
                cells: np.ndarray | None = None) -> tuple[float, float]:
    """``(sum_cells |G v|^p, sum_nodes w V |v|^p)`` for nodal arrays v and V.

    ``||v||_X^p`` is ``h^n`` times the first sum plus the second.  ``cells``,
    a boolean mask over cells (row-major), restricts the first sum.
    """
    _, s = cell_gradient_squared(v, spec)
    if cells is not None:
        s = s[cells]
    kinetic = float(np.sum(abs_power(s, p / 2.0, out=s)))
    zero_order = float(np.dot(spec.weights(), V * abs_power(v, p)))
    return kinetic, zero_order


def abs_power(x: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """``np.abs(x) ** e`` for ``e >= 0``, bit for bit, into ``out`` if given.

    Entries with ``|x| < 2**(-1076 / e)`` have a true power below
    ``2**-1076``, which rounds to 0, so they are zeroed and ``pow`` is not
    called on them: a vectorized ``pow`` takes a slow path on a result
    that underflows and on a zero argument, and decaying solutions have
    many of both.  The exponents 0, 0.5, 1 and 2, which ``**`` computes
    without ``pow``, take ``**`` on every entry.  ``out`` may be ``x`` itself.
    """
    if not e >= 0:
        raise ValueError(f"exponent must be nonnegative, got {e!r}")
    out = np.abs(x, out=out)
    if e > 0:
        np.copyto(out, 0.0, where=out < 2.0 ** (-1076.0 / e))
    if e in (0.0, 0.5, 1.0, 2.0):
        out **= e
        return out
    return np.power(out, e, out=out, where=out > 0.0)


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(rows)``, for work on rows of ``width`` values.

    A block holds about :data:`BLOCK_ELEMENTS` values, so work that streams
    over the blocks needs memory independent of ``rows``.  The rows per block
    are a multiple of 16, at least 16: BLAS matrix-vector kernels take rows in
    groups (of 4 in OpenBLAS 0.3 on x86-64), and a block that ends inside a group
    sends its last rows down a tail path that rounds differently.  So when
    ``rows`` is a multiple of 16, a product taken block by block has the bits
    of one product over all rows.
    """
    step = max(16, BLOCK_ELEMENTS // width // 16 * 16)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def integrate(u: GridFunction) -> float:
    """Tensor-product trapezoid quadrature over the box; exact for affine."""
    return float(np.dot(u.spec.weights(), u.values))


def zero_boundary(u: GridFunction) -> GridFunction:
    """Copy of ``u`` with boundary nodes set exactly to zero."""
    vals = u.values.copy()
    vals[u.spec.boundary_mask()] = 0.0
    return GridFunction(u.spec, vals)


_HEADER_ORDER = "row-major"
_HEADER_DTYPE = "f64-little-endian"


def save_grid_function(u: GridFunction, path_base: str | Path) -> tuple[Path, Path]:
    """Write ``<path_base>.json`` (header) and ``<path_base>.bin`` (samples).

    The binary file holds ``m**n`` 8-byte little-endian floats in row-major
    node order; the round trip through :func:`load_grid_function` is
    bit-exact.
    """
    base = Path(path_base)
    header = {
        "n": u.spec.n,
        "L": u.spec.L,
        "m": u.spec.m,
        "order": _HEADER_ORDER,
        "dtype": _HEADER_DTYPE,
    }
    json_path = base.with_suffix(".json")
    bin_path = base.with_suffix(".bin")
    json_path.write_text(json.dumps(header, sort_keys=True) + "\n")
    bin_path.write_bytes(u.values.astype("<f8").tobytes())
    return json_path, bin_path


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON plus a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_grid_function(path_base: str | Path) -> GridFunction:
    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(header, dict):
        raise ValueError("grid file header must be a JSON object")
    for key, expected in (("order", _HEADER_ORDER), ("dtype", _HEADER_DTYPE)):
        if header.get(key) != expected:
            raise ValueError(f"unsupported grid file: {key}={header.get(key)!r}")
    n, L, m = (header.get(key) for key in ("n", "L", "m"))
    # exact types: JSON gives int or float, and a bool is neither
    if not (all(type(v) is int or type(v) is float and v.is_integer() for v in (n, m))
            and type(L) in (int, float) and abs(L) <= sys.float_info.max):
        raise ValueError(f"grid file header needs integral n and m and a finite L, "
                         f"got n={n!r}, L={L!r}, m={m!r}")
    spec = GridSpec(n=int(n), L=float(L), m=int(m))
    raw = base.with_suffix(".bin").read_bytes()
    vals = np.frombuffer(raw, dtype="<f8")
    if vals.size != spec.num_nodes:
        raise ValueError(
            f"binary payload has {vals.size} samples, header implies {spec.num_nodes}"
        )
    return GridFunction(spec, vals.astype(np.float64))
