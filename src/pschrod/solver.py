"""Discrete weak energy solutions on the box with zero Dirichlet data.

The discrete energy of a nodal function v (zero on the boundary) is

    J(v) = (1/p) sum_cells h^n |G_c(v)|^p
         + (1/p) sum_nodes w_i V_i |v_i|^p
         - sum_nodes w_i f_i v_i,

where ``G_c`` is the gradient of the multilinear interpolant at the
center of cell c, defined once by the stencil table ``(steps, coeffs)``
of :func:`~pschrod.grid.cell_stencil` and applied from it with no stored
matrix, and ``w_i`` are the trapezoid node weights.  Each summand is
convex and the zero-order term is strictly convex for p >= 2 and V >= 1,
so J has a unique minimizer; :func:`residual` returns the exact gradient
of J with respect to interior nodal values divided by the node weight.

The minimizer is found by damped Newton with backtracking line search.
Each Newton system is solved by conjugate gradients preconditioned with
exact solves on the grid lines along the last axis (see
:func:`_newton_solve`), only as accurately as the outer iteration needs:
the CG tolerance is the Eisenstat-Walker forcing term of the step (see
:func:`solve`).  The Newton system uses a Hessian regularized at
gradient level eps (the p-Laplacian Hessian degenerates where the
gradient vanishes for p > 2), but the step direction is computed against
the exact gradient of J and the line search enforces monotone decrease of
the exact J, so the iteration converges to the minimizer of the
unregularized energy and all reported residuals are residuals of the
unregularized operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import (GridFunction, GridSpec, _component_sum, _require_zero_boundary, abs_power,
                   cell_gradient_adjoint, cell_gradient_squared, cell_stencil,
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
        norm = _component_sum(xi * xi)
        norm = np.sqrt(norm, out=norm)[..., None]
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
    prod = pflux(xi, p) - pflux(eta, p)
    prod *= diff
    if xi.ndim >= 2:
        inner = _component_sum(prod)
        dist = _component_sum(np.multiply(diff, diff, out=prod))
        dist = np.sqrt(dist, out=dist)
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
    g = spec.h**spec.n * cell_gradient_adjoint(weight * comps, spec)
    w = spec.weights()
    g += w * prob.V.values * abs_power(v, p - 2.0) * v
    g -= w * prob.f.values
    return g


@dataclass(frozen=True, eq=False)
class _HessianPattern:
    """The fixed sparsity of the interior Hessian on one grid, and how to fill it.

    In the table ``(steps, coeffs)`` of :func:`~pschrod.grid.cell_stencil`
    corner ``k`` has the column ``c sigma_k``, ``sigma_k = 2 steps_k - 1``,
    and its antipode ``2**n - 1 - k`` the column ``-c sigma_k``.  So group
    ``g < 2**(n-1)`` holds corner ``g``, of signs ``signs[g]``, and its
    antipode.  With ``y_g = signs[g] . G_c v`` the cell block of
    ``h^n G^T K G``, for ``K = w1 I + w2 xi xi^T``, is
    ``+-scale (w1 overlap + w2 y_a y_b)`` on a pair of groups
    ``pairs[k] = (a, b)``, ``a <= b``, where ``overlap[k] = signs[a] . signs[b]``
    and ``scale = h^n c^2``, so ``scale * overlap[k]`` is ``h^n g_a . g_b``.

    H is filled by stencil offset ``d`` from the centre on: array ``o`` of
    ``coef``, ``o`` the row-major index of ``d`` in ``{-1, 0, 1}^n`` less
    the centre's, holds entry ``(r, r + d)`` at interior node ``r``.  Each
    of ``adds``, ``(o, cells, k, op)`` for a corner pair ``i <= j`` with
    ``d = step_j - step_i``, applies ``op`` (``np.add`` or ``np.subtract``,
    the sign of the pair) with the values of pair ``k`` on the cells whose
    corner ``i`` is interior to array ``o``.  ``positions`` reads the CSR
    data of H (``indices``, ``indptr``) out of ``coef``: H is symmetric, so
    an entry at ``-d`` is read from array ``d`` at its column.
    ``diagonal`` holds the data position of each diagonal entry.  Shared:
    do not mutate.
    """

    signs: np.ndarray
    pairs: np.ndarray
    overlap: np.ndarray
    scale: float
    adds: tuple[tuple[int, tuple[slice, ...], int, np.ufunc], ...]
    positions: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray


@lru_cache(maxsize=32)
def _hessian_pattern(spec: GridSpec) -> _HessianPattern:
    """The :class:`_HessianPattern` of ``spec``, built once per grid and cached.

    The adds run in decreasing order of corner ``i``; the cell with node
    ``r`` at corner ``i`` is ``r - step_i``, so each entry sums its cells
    in increasing order.  The CSR structure takes two passes over the
    offsets, each on the box of interior nodes with an interior neighbour.
    """
    n, m = spec.n, spec.m
    steps, coeffs = cell_stencil(spec)
    corners = coeffs.shape[1]
    half = corners // 2
    group = np.minimum(np.arange(corners), corners - 1 - np.arange(corners))
    signs = np.sign(coeffs[:, :half]).T
    a, b = np.triu_indices(half)
    pair_index = np.empty((half, half), dtype=int)
    pair_index[a, b] = pair_index[b, a] = np.arange(a.size)
    # corners are in increasing node order: d = step_j - step_i is from the centre on iff i <= j
    power = 3 ** np.arange(n - 1, -1, -1)
    adds = []
    for i in reversed(range(corners)):
        cells = tuple(slice(1 - e, m - 1 - e) for e in steps[:, i])
        for j in range(i, corners):
            op = np.add if (i < half) == (j < half) else np.subtract
            adds.append((int((steps[:, j] - steps[:, i]) @ power), cells,
                         int(pair_index[group[i], group[j]]), op))

    size = (m - 2) ** n
    node = np.arange(size).reshape((m - 2,) * n)
    stride = (m - 2) ** np.arange(n - 1, -1, -1)
    # per offset d in row-major order, the interior nodes whose neighbour r + d is interior
    boxes = [(np.array(d), tuple(slice(max(0, -e), m - 2 - max(0, e)) for e in d))
             for d in itertools.product((-1, 0, 1), repeat=n)]
    slot = np.zeros(node.shape, dtype=np.int32)
    for _, box in boxes:
        slot[box] += 1
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(slot, out=indptr[1:])
    slot = indptr[:-1].reshape(node.shape).copy()  # the next data position of each row
    indices = np.empty(indptr[-1], dtype=np.int32)
    positions = np.empty(indptr[-1], dtype=np.intp)  # the index type a gather reads uncast
    for d, box in boxes:
        at = slot[box].copy()
        row, o = node[box], int(d @ power)
        col = row + int(d @ stride)
        indices[at] = col
        positions[at] = abs(o) * size + (row if o >= 0 else col)
        if o == 0:
            diagonal = at.ravel()
        slot[box] += 1
    pattern = _HessianPattern(
        signs=signs, pairs=np.stack([a, b], axis=1), overlap=np.sum(signs[a] * signs[b], axis=1),
        scale=spec.h**n * (coeffs[0, 0] * coeffs[0, 0]), adds=tuple(adds), positions=positions,
        indices=indices, indptr=indptr, diagonal=diagonal,
    )
    for arr in (signs, pattern.pairs, pattern.overlap, positions, indices, indptr, diagonal):
        arr.flags.writeable = False
    return pattern


def _hessian_interior(v: np.ndarray, prob: Problem) -> sp.csr_matrix:
    """``h^n G_int^T K G_int + diag`` on interior nodes, K the per-cell n x n weights.

    Regularized at gradient level ``prob.eps_reg``; at p = 2 every
    eps-dependent factor is raised to the power 0, so eps has no effect.

    Filled into the cached pattern of the grid (:class:`_HessianPattern`)
    from one value per cell and pair of corner groups, by elementwise
    products, one strided slab add per corner pair and stencil offset, and
    one gather: no dense BLAS call.  Every stored entry is kept, also one
    that sums to exactly zero.
    """
    spec, p, eps = prob.spec, prob.p, prob.eps_reg
    pattern = _hessian_pattern(spec)
    comps, s = cell_gradient_squared(v, spec)
    s += eps * eps
    w1 = s ** ((p - 2.0) / 2.0)
    # p = 2 has no second term; skipping it avoids 0 * inf where s = 0
    w2 = (p - 2.0) * s ** ((p - 4.0) / 2.0) if p != 2.0 else np.zeros_like(s)
    # y[g] = signs[g] . xi per cell, by adds and subtracts of the components
    y = np.empty((pattern.signs.shape[0], s.size))
    for g, sign in enumerate(pattern.signs):
        np.multiply(comps[0], sign[0], out=y[g])
        for axis in range(1, spec.n):
            if sign[axis] > 0:
                y[g] += comps[axis]
            else:
                y[g] -= comps[axis]
    w2y = w2 * y
    del comps, s, w2
    values = np.empty((pattern.pairs.shape[0], y.shape[1]))
    for k, (a, b) in enumerate(pattern.pairs):
        np.multiply(w2y[a], y[b], out=values[k])
        if pattern.overlap[k] != 0.0:
            values[k] += pattern.overlap[k] * w1
    del w1, w2y, y
    values *= pattern.scale
    values = values.reshape((-1,) + (spec.m - 1,) * spec.n)
    size = pattern.indptr.size - 1
    coef = np.zeros(((3**spec.n + 1) // 2, size))
    slabs = coef.reshape((-1,) + (spec.m - 2,) * spec.n)
    for o, cells, k, op in pattern.adds:
        op(slabs[o], values[k][cells], out=slabs[o])
    del values
    nodal = spec.weights() * prob.V.values * (p - 1.0) * (v * v + eps * eps) ** ((p - 2.0) / 2.0)
    coef[0] += nodal[~spec.boundary_mask()]
    data = coef.ravel()[pattern.positions]
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size))


# ---------------------------------------------------------------------------
# the Newton system

# CG tolerance where the Newton step must be exact: every p = 2 solve (one
# exact step minimizes a quadratic energy), the p = 2 warm start and the
# polish steps; also the floor of the forcing terms
_CG_RTOL = 1e-10
_ETA_MAX = 1e-4  # forcing term of the first Newton step and cap of every later one
_TINY = np.finfo(np.float64).tiny  # the smallest normal double, 2^-1022


def _flush_subnormals(x: np.ndarray) -> None:
    """Set every entry of x below the smallest normal double (2^-1022) in magnitude to 0.

    On x86 each arithmetic operation that reads or writes a subnormal takes
    a microcode assist, many times slower than on normal numbers, and
    solutions over sparse wells decay into that range.  Values this small
    enter no energy, residual or report above rounding.
    """
    np.copyto(x, 0.0, where=np.abs(x) < _TINY)


def _line_band(H: sp.csr_matrix, spec: GridSpec) -> np.ndarray:
    """H restricted to the grid lines along the last axis, in upper banded form.

    Interior nodes are numbered with the last axis fastest, so each line is
    a run of ``m - 2`` consecutive unknowns.  The stencil couples only nodes
    that share a cell, so H on one line is tridiagonal; the superdiagonal
    entry that would couple the last node of a line to the first of the
    next is zero, which leaves exactly the line blocks.

    H must be filled into the pattern of ``spec`` (:func:`_hessian_interior`):
    the band is read from ``H.data`` at the pattern's diagonal positions.
    The columns of a CSR row are sorted and neighbours on a line share a
    cell, so where node ``i + 1`` is on the line of node ``i`` the entry
    right after ``(i, i)`` in the data is ``(i, i + 1)``.
    """
    diagonal = _hessian_pattern(spec).diagonal.reshape(-1, spec.m - 2)
    band = np.zeros((2, H.shape[0]))
    band[1] = H.data[diagonal.ravel()]
    band[0].reshape(diagonal.shape)[:, 1:] = H.data[1:][diagonal[:, :-1]]
    return band


def _line_preconditioner(H: sp.csr_matrix, spec: GridSpec):
    """Exact solve with the line blocks of H (:func:`_line_band`), as ``r -> x``.

    The blocks are tridiagonal principal submatrices of H, hence SPD; they
    are factored once as ``L D L^T`` by LAPACK ``dpttrf``.  Subnormal
    entries of each solution are flushed to 0 (:func:`_flush_subnormals`)
    before CG multiplies with it.
    """
    band = _line_band(H, spec)
    # the last max(size - 1, 1) entries: the superdiagonal, or for one unknown
    # the zero band[0, 0], since LAPACK wants an (unread) entry there too
    e = band[0, 1 - band.shape[1]:]
    d, e, info = dpttrf(band[1], e, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"line block of the Newton matrix is not positive definite (dpttrf info {info})"
        )

    def precondition(r):
        x = dpttrs(d, e, r)[0]
        _flush_subnormals(x)
        return x

    return precondition


def _newton_solve(
    H: sp.csr_matrix, rhs: np.ndarray, spec: GridSpec, rtol: float
) -> tuple[np.ndarray, int]:
    """Solve the SPD system ``H x = rhs`` on interior nodes; return x and the CG count.

    Conjugate gradients from x = 0 to relative residual ``rtol``,
    preconditioned with exact solves on the line blocks of H
    (:func:`_line_preconditioner`).  In 1D the one line is all of H and a
    single step is exact, whatever ``rtol``.  Every CG iterate started from
    0 is a descent direction for a Newton system with rhs = -gradient, so a
    loose ``rtol`` still gives a step the line search accepts.
    """
    precondition = spla.LinearOperator(
        H.shape, matvec=_line_preconditioner(H, spec), dtype=np.float64
    )
    count = 0

    def counted(_):
        nonlocal count
        count += 1

    x, _ = spla.cg(H, rhs, x0=np.zeros_like(rhs), rtol=rtol, atol=0.0,
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
    H = _hessian_interior(v0, replace(prob, p=2.0))
    rhs = (spec.weights() * prob.f.values)[interior]
    v0[interior], _ = _newton_solve(H, rhs, spec, _CG_RTOL)
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
    silent success.  A Newton matrix with a line block that is not
    positive definite ends the iteration like an exhausted line search:
    the current iterate is returned, converged only if its residual is
    within tolerance.  The start is ``u0`` (zeroed on the boundary; the
    scheme passes the previous level's solution), else 0 for p = 2 and the
    p = 2 companion solution for p > 2.  The iterate holds no subnormal
    number: entries below 2^-1022 in magnitude are set to 0 in the start
    and after every step (:func:`_flush_subnormals`).

    For p > 2 each Newton system is solved inexactly, to the relative
    residual of an Eisenstat-Walker forcing term (choice 2, gamma = 0.9,
    alpha = 2): ``1e-4`` on the first step, then ``0.9 (|g_k| / |g_k-1|)^2``
    clipped to ``[1e-10, 1e-4]``, with ``g_k`` the interior gradient of
    step k.  The polish steps and every p = 2 solve take ``1e-10``.
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
    _flush_subnormals(v)

    trace = [_energy_arrays(v, prob)]
    iterations = 0
    linear_iterations = []
    polish_left = _POLISH_STEPS
    polish_prev = np.inf
    converged = False
    g_norm_prev = None

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

        H = _hessian_interior(v, prob)
        g_int = g[interior]
        g_norm = float(np.linalg.norm(g_int))
        if converged or prob.p == 2.0:
            rtol = _CG_RTOL
        elif g_norm_prev is None:
            rtol = _ETA_MAX
        else:
            rtol = min(max(0.9 * (g_norm / g_norm_prev) ** 2, _CG_RTOL), _ETA_MAX)
        g_norm_prev = g_norm
        try:
            d_int, cg_steps = _newton_solve(H, -g_int, spec, rtol)
        except np.linalg.LinAlgError:
            # a line block of H that is not positive definite (its diagonal
            # underflowed) leaves no step: stop as if the line search ran out
            break
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
        _flush_subnormals(v)
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
