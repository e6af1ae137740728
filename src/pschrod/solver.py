"""Discrete weak energy solutions on the box with zero Dirichlet data.

The discrete energy of a nodal function v (zero on the boundary) is

    J(v) = (1/p) sum_cells h^n |G_c(v)|^p
         + (1/p) sum_nodes w_i V_i |v_i|^p
         - sum_nodes w_i f_i v_i,

where ``G_c`` is the gradient of the multilinear interpolant at the
center of cell c, defined once by the stencil table
:func:`~pschrod.grid.cell_stencil`, and ``w_i`` are the trapezoid node
weights.  Each summand is convex and the zero-order term is strictly
convex for p >= 2 and V >= 1, so J has a unique minimizer; the
Euler-Lagrange residual returned by :func:`residual` is the exact gradient
of J with respect to interior nodal values divided by the node weight.

The minimizer is found by damped Newton with backtracking line search.
Each Newton system is solved by conjugate gradients preconditioned with
exact solves on the grid lines along the last axis (see
:func:`_newton_solve`).  The Newton system uses a Hessian regularized at
gradient level eps (the p-Laplacian Hessian degenerates where the
gradient vanishes for p > 2), but the step direction is computed against
the exact gradient of J and the line search enforces monotone decrease of
the exact J, so the iteration converges to the minimizer of the
unregularized energy and all reported residuals are residuals of the
unregularized operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import (GridFunction, GridSpec, _require_zero_boundary, abs_power,
                   cell_gradient_squared, cell_gradient_transpose, cell_stencil,
                   energy_sums)

__all__ = [
    "Problem",
    "SolveResult",
    "energy",
    "residual",
    "solve",
    "pflux",
    "monotonicity_lower_constant",
    "monotonicity_margin",
]


def pflux(xi: np.ndarray, p: float) -> np.ndarray:
    """The p-Laplace flux map ``xi -> |xi|^(p-2) xi``.

    ``xi`` may be scalars (any shape) or stacked vectors of shape
    ``(N, d)``; the norm is taken over the last axis in the vector case.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim >= 2:
        norm = np.sqrt(np.sum(xi**2, axis=-1, keepdims=True))
        return abs_power(norm, p - 2.0, out=norm) * xi
    return abs_power(xi, p - 2.0) * xi


def monotonicity_lower_constant(p: float) -> float:
    """Sharp-order lower constant ``2^(2-p)`` for the flux monotonicity."""
    if p < 2:
        raise ValueError("the monotonicity constant applies to p >= 2 only")
    return 2.0 ** (2.0 - p)


def monotonicity_margin(xi, eta, p: float) -> np.ndarray:
    """``(A(xi) - A(eta)) . (xi - eta) - 2^(2-p) |xi - eta|^p`` per pair.

    Nonnegative (up to round-off) for p >= 2; works for scalar arrays and
    for vector arrays of shape ``(N, d)``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    diff = xi - eta
    prod = (pflux(xi, p) - pflux(eta, p)) * diff
    if xi.ndim >= 2:
        inner = np.sum(prod, axis=-1)
        dist = np.sqrt(np.sum(diff**2, axis=-1))
    else:
        inner = prod
        dist = np.abs(diff)
    return inner - monotonicity_lower_constant(p) * dist**p


MAX_ITERS = 100  # default cap on Newton iterations per solve


@dataclass(frozen=True, eq=False)
class Problem:
    """Datum, potential and exponent for one discrete energy minimization.

    Requires a finite p >= 2 (the stability theory behind every downstream
    check is restricted to the degenerate range) and V >= 1 at all nodes.
    ``p`` is stored as a float; anything ``float()`` accepts may be passed.
    """

    spec: GridSpec
    p: float
    V: GridFunction
    f: GridFunction
    tol_residual: float | None = None
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        p = float(self.p)
        if not 2.0 <= p < np.inf:
            raise ValueError(
                f"p must be finite and p >= 2 (existence and stability hold in the "
                f"degenerate range p >= 2 only), got p = {p}"
            )
        object.__setattr__(self, "p", p)
        if self.V.spec != self.spec or self.f.spec != self.spec:
            raise ValueError("V and f must live on the problem grid")
        if float(np.min(self.V.values)) < 1.0:
            raise ValueError("potential must satisfy V >= 1 at every node")
        fmax = self.f.max_abs()
        if self.tol_residual is None:
            object.__setattr__(self, "tol_residual", 1e-8 * fmax if fmax > 0 else 1e-15)
        elif not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @property
    def eps_reg(self) -> float:
        """Gradient level of the Newton Hessian's regularization; shapes the step only."""
        return 1e-8 * max(1.0, self.f.max_abs())


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Minimizer with convergence diagnostics; boundary nodes are exactly 0.

    ``linear_iterations`` holds the conjugate-gradient iteration count of
    each Newton system solved, in order: one per accepted step, plus one
    for a final step the line search rejected.  The linear warm start is
    not included.
    """

    u: GridFunction
    iterations: int
    residual_sup: float
    energy: float
    energy_trace: tuple[float, ...]
    converged: bool
    linear_iterations: tuple[int, ...]

    def diagnostics(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "energy": self.energy,
            "energy_trace": list(self.energy_trace),
            "converged": self.converged,
            "linear_iterations": list(self.linear_iterations),
        }


# ---------------------------------------------------------------------------
# energy, gradient and Hessian on the cell-gradient operator G


def _energy_arrays(v: np.ndarray, prob: Problem) -> float:
    """J(v) = ``(h^n/p) S + Z/p - <f, v>`` with ``(S, Z)`` from :func:`energy_sums`."""
    spec = prob.spec
    p = prob.p
    kinetic, zero_order = energy_sums(v, prob.V.values, spec, p)
    source = float(np.dot(spec.weights(), prob.f.values * v))
    return spec.h**spec.n / p * kinetic + zero_order / p - source


def _gradient_arrays(v: np.ndarray, prob: Problem) -> np.ndarray:
    """Exact gradient of J with respect to all nodal values (full array)."""
    spec = prob.spec
    p = prob.p
    comps, s = cell_gradient_squared(v, spec)
    weight = abs_power(s, (p - 2.0) / 2.0, out=s)
    g = spec.h**spec.n * (cell_gradient_transpose(spec) @ (weight * comps).ravel())
    w = spec.weights()
    g += w * prob.V.values * abs_power(v, p - 2.0) * v
    g -= w * prob.f.values
    return g


@dataclass(frozen=True, eq=False)
class _HessianPattern:
    """The fixed sparsity of the interior Hessian on one grid, and how to fill it.

    ``M[(a, b), (i, j)] = h^n G_a[i] G_b[j]`` is the cell block of
    ``h^n G^T K G`` per unit entry ``K[a, b]`` of the cell weight, ``G_a[i]``
    the coefficient of cell corner ``i`` in gradient component ``a`` (the
    table :func:`~pschrod.grid.cell_stencil`, the same for every cell).
    ``S`` is 0/1 and sums the entries of all cell blocks, laid out cell by
    cell, into the CSR data of H (``indices``, ``indptr``); entries on a
    boundary node are dropped.  ``diagonal`` holds the data position of
    each diagonal entry.  Shared: do not mutate.
    """

    M: np.ndarray
    S: sp.csr_matrix
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=32)
def _hessian_pattern(spec: GridSpec) -> _HessianPattern:
    """The :class:`_HessianPattern` of ``spec``, built once per grid and cached.

    The CSR structure comes from one stable argsort of the (row, col) keys
    of all kept cell-block entries.  Temporaries are released as soon as
    they are spent, so the peak stays at a few index arrays of that length.
    """
    base, offsets, coeffs = cell_stencil(spec)
    corners = offsets.size
    M = spec.h**spec.n * (coeffs[:, None, :, None] * coeffs[None, :, None, :])
    M = M.reshape(spec.n**2, corners**2)

    interior = ~spec.boundary_mask()
    size = int(np.count_nonzero(interior))
    # the keys row * size + col in int32 while they fit: half the transient memory
    key_type = np.int32 if size * size <= np.iinfo(np.int32).max else np.int64
    local = np.full(spec.num_nodes, -1, dtype=key_type)
    local[interior] = np.arange(size)
    corner = local[base[:, None] + offsets]  # interior index of each cell corner, or -1
    blocks = corner.size * corners  # entry (i, j) of cell c is c * corners^2 + i * corners + j
    del base, local
    kept = np.flatnonzero(((corner[:, :, None] >= 0) & (corner[:, None, :] >= 0)).ravel())
    kept = kept.astype(np.int32)
    keys = (corner[:, :, None] * size + corner[:, None, :]).ravel()[kept]
    del corner
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    kept = kept[order]
    del order
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    rows, cols = np.divmod(keys[starts], size)
    del keys, first
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    S = sp.csr_matrix(
        (np.ones(kept.size), kept, np.append(starts, kept.size).astype(np.int32)),
        shape=(starts.size, blocks),
    )
    pattern = _HessianPattern(M, S, cols.astype(np.int32), indptr, np.flatnonzero(rows == cols))
    for arr in (M, S.data, S.indices, S.indptr, pattern.indices, indptr, pattern.diagonal):
        arr.flags.writeable = False
    return pattern


def _hessian_interior(v: np.ndarray, prob: Problem, eps: float) -> sp.csr_matrix:
    """``h^n G_int^T K G_int + diag`` on interior nodes, K the per-cell n x n weights.

    Filled into the cached pattern of the grid (:class:`_HessianPattern`):
    every stored entry is kept, also one that sums to exactly zero.
    """
    spec = prob.spec
    p = prob.p
    pattern = _hessian_pattern(spec)
    comps, s = cell_gradient_squared(v, spec)
    s += eps * eps
    w1 = s ** ((p - 2.0) / 2.0)
    # p = 2 has no second term; skipping it avoids 0 * inf where s = 0
    w2 = (p - 2.0) * s ** ((p - 4.0) / 2.0) if p != 2.0 else np.zeros_like(s)
    cells = comps.T
    K = (w2[:, None] * cells)[:, :, None] * cells[:, None, :]
    K[:, range(spec.n), range(spec.n)] += w1[:, None]
    data = pattern.S @ (K.reshape(s.size, -1) @ pattern.M).ravel()
    nodal_diag = (
        spec.weights()
        * prob.V.values
        * (p - 1.0)
        * (v * v + eps * eps) ** ((p - 2.0) / 2.0)
    )
    data[pattern.diagonal] += nodal_diag[~spec.boundary_mask()]
    size = pattern.indptr.size - 1
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size))


# ---------------------------------------------------------------------------
# the Newton system

_CG_RTOL = 1e-10


def _line_band(H: sp.csr_matrix, m: int) -> np.ndarray:
    """H restricted to the grid lines along the last axis, in upper banded form.

    Interior nodes are numbered with the last axis fastest, so each line is
    a run of ``m - 2`` consecutive unknowns.  The stencil couples only nodes
    that share a cell, so H on one line is tridiagonal; the superdiagonal
    entry that would couple the last node of a line to the first of the
    next is zeroed, which leaves exactly the line blocks.
    """
    band = np.zeros((2, H.shape[0]))
    band[1] = H.diagonal()
    band[0, 1:] = H.diagonal(1)
    band[0, ::m - 2] = 0.0
    return band


def _line_preconditioner(H: sp.csr_matrix, m: int):
    """Exact solve with the line blocks of H (:func:`_line_band`), as ``r -> x``.

    The blocks are tridiagonal principal submatrices of H, hence SPD; they
    are factored once as ``L D L^T`` by LAPACK ``dpttrf``.
    """
    band = _line_band(H, m)
    # the last max(size - 1, 1) entries: the superdiagonal, or for one unknown
    # the zero band[0, 0], since LAPACK wants an (unread) entry there too
    e = band[0, 1 - band.shape[1]:]
    d, e, info = dpttrf(band[1], e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"line block of the Newton matrix is not positive definite (dpttrf info {info})"
        )
    return lambda r: dpttrs(d, e, r)[0]


def _newton_solve(H: sp.csr_matrix, rhs: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """Solve the SPD system ``H x = rhs`` on interior nodes; return x and the CG count.

    Conjugate gradients from x = 0 to relative residual ``_CG_RTOL``,
    preconditioned with exact solves on the line blocks of H
    (:func:`_line_preconditioner`).  In 1D the one line is all of H and a
    single step is exact.  Every CG iterate started from 0 is a descent
    direction for a Newton system with rhs = -gradient.
    """
    precondition = spla.LinearOperator(
        H.shape, matvec=_line_preconditioner(H, m), dtype=np.float64
    )
    count = 0

    def counted(_):
        nonlocal count
        count += 1

    x, _ = spla.cg(H, rhs, x0=np.zeros_like(rhs), rtol=_CG_RTOL, atol=0.0,
                   M=precondition, callback=counted)
    return x, count


# ---------------------------------------------------------------------------
# public operations


def energy(v: GridFunction, prob: Problem) -> float:
    """Discrete energy J(v); v must vanish on the boundary."""
    if v.spec != prob.spec:
        raise ValueError("candidate lives on a different grid")
    _require_zero_boundary(v, "candidate")
    return _energy_arrays(v.values, prob)


def residual(v: GridFunction, prob: Problem) -> GridFunction:
    """Euler-Lagrange residual of the unregularized energy.

    Exact gradient of J with respect to interior nodal values divided by
    the node quadrature weight (the discrete weak form tested against each
    interior nodal basis function); boundary entries are zero.
    """
    if v.spec != prob.spec:
        raise ValueError("candidate lives on a different grid")
    _require_zero_boundary(v, "candidate")
    g = _gradient_arrays(v.values, prob)
    r = g / prob.spec.weights()
    r[prob.spec.boundary_mask()] = 0.0
    return GridFunction(prob.spec, r)


def _linear_warm_start(prob: Problem) -> np.ndarray:
    """Solve the p = 2 companion problem as a starting iterate for p > 2."""
    spec = prob.spec
    interior = ~spec.boundary_mask()
    v0 = np.zeros(spec.num_nodes)
    H = _hessian_interior(v0, replace(prob, p=2.0), 0.0)
    rhs = (spec.weights() * prob.f.values)[interior]
    v0[interior], _ = _newton_solve(H, rhs, spec.m)
    return v0


_ARMIJO = 1e-4
_MAX_BACKTRACK = 60
_POLISH_STEPS = 6


def solve(prob: Problem, u0: GridFunction | None = None) -> SolveResult:
    """Minimize the discrete energy by damped Newton with line search.

    Deterministic for fixed inputs.  Stops once the sup-norm of the
    unregularized residual drops below ``prob.tol_residual``, then keeps
    taking Newton steps while each one still improves the residual by a
    factor of ten (at most a handful), so the returned iterate sits
    essentially on the minimizer.  When the iteration cap is hit first, the
    best iterate is returned with ``converged=False``; it is never a
    silent success.  The start is ``u0`` (zeroed on the boundary; the
    scheme passes the previous level's solution), else 0 for p = 2 and the
    p = 2 companion solution for p > 2.
    """
    spec = prob.spec
    boundary = spec.boundary_mask()
    interior = ~boundary

    if u0 is not None:
        if u0.spec != spec:
            raise ValueError("initial iterate lives on a different grid")
        v = u0.values.copy()
        v[boundary] = 0.0
    elif prob.p == 2.0:
        v = np.zeros(spec.num_nodes)
    else:
        v = _linear_warm_start(prob)

    trace = [_energy_arrays(v, prob)]
    iterations = 0
    linear_iterations = []
    polish_left = _POLISH_STEPS
    polish_prev = np.inf
    converged = False

    while True:
        g = _gradient_arrays(v, prob)
        g[boundary] = 0.0
        rsup = float(np.max(np.abs(g / spec.weights())))
        if rsup <= prob.tol_residual:
            converged = True
            # polish: keep stepping while Newton still gains a decade, so the
            # returned iterate sits on the minimizer, not just inside tol
            if rsup == 0.0 or polish_left == 0 or rsup > polish_prev / 10.0:
                break
            polish_prev = rsup
            polish_left -= 1
        if iterations >= prob.max_iters:
            break

        H = _hessian_interior(v, prob, prob.eps_reg)
        g_int = g[interior]
        d_int, cg_steps = _newton_solve(H, -g_int, spec.m)
        linear_iterations.append(cg_steps)
        step = np.zeros_like(v)
        step[interior] = d_int
        slope = float(np.dot(g_int, d_int))
        if not np.isfinite(slope) or slope >= 0.0:
            step[interior] = -g_int
            slope = -float(np.dot(g_int, g_int))

        J0 = trace[-1]
        # J is evaluated to roughly eps*|J|; steps deep in the quadratic
        # basin decrease it by less than that, so allow the noise floor
        noise = 4.0 * np.finfo(np.float64).eps * (abs(J0) + 1.0e-300)
        s = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACK):
            J_new = _energy_arrays(v + s * step, prob)
            if J_new <= J0 + _ARMIJO * s * slope + noise:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            # convex J and a descent direction: only round-off can land here
            break
        v = v + s * step
        trace.append(min(J_new, J0))
        iterations += 1

    # every exit follows the residual of v, and steps vanish on the boundary
    return SolveResult(
        u=GridFunction(spec, v),
        iterations=iterations,
        residual_sup=rsup,
        energy=trace[-1],
        energy_trace=tuple(trace),
        converged=converged,
        linear_iterations=tuple(linear_iterations),
    )
