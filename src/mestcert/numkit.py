"""Input validation, dense linear algebra and the damped Newton driver.

Everything downstream (certificates, fitters, resampling sweeps) funnels its
caller arrays through the validators and its matrix work through the solve
and norm functions here, so their behaviour pins down the numerical
contract of the whole package:

* all inputs are validated to be finite, and both dataset types own
  read-only copies of their arrays through one core, ``_DatasetCore``;
* every factorization in the package comes from the one checked LU core
  behind ``lu_factorization`` (and ``solve_linear``/``solve_linear_many``):
  partial pivoting, and :class:`~mestcert.errors.SingularMatrixError`
  (carrying the offending pivot) instead of silently returning garbage;
* every vector solve, through any of the three, meets the residual contract
  ``||a x - b|| <= 1e-9 (1 + ||b||)`` on systems not close to singular, by
  one refinement step where needed; matrix right-hand sides are not refined;
* results are deterministic: the same arrays in give bitwise the same arrays
  out on a given platform.

``damped_newton`` is the one iterative loop of the package: ``glm.fit``,
``cox.fit_cox``, ``nls.fit_nls`` and ``constrained.kkt_solve`` each hand it
a Newton step and one callback giving the residual and objective at a point,
which it calls once per point. Certificates never iterate.

Matrices are plain 2-d ``numpy`` arrays in row-major order, vectors are 1-d
arrays. Sparse and complex inputs are out of scope.
"""

import dataclasses

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, InvalidInputError, SingularMatrixError

#: relative pivot threshold below which a factorization is declared singular
SINGULAR_PIVOT_RTOL = 1e-12

#: residual contract of solve_linear: ||Ax - b|| <= RTOL * (1 + ||b||)
SOLVE_RESIDUAL_RTOL = 1e-9

#: step halvings the line search of damped_newton tries before it gives up
MAX_HALVINGS = 50


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-d float array."""
    return _as_array(a, 2, name)


def as_vector(v, name="vector"):
    """Validate and return ``v`` as a finite 1-d float array."""
    return _as_array(v, 1, name)


def _as_array(a, ndim, name, finite=True):
    x = np.asarray(a, dtype=float)
    if x.ndim != ndim:
        raise InvalidInputError(
            f"{name} must be {ndim}-dimensional, got ndim={x.ndim}")
    if x.size == 0:
        raise InvalidInputError(f"{name} must be non-empty")
    if finite and not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def as_parameter(v, size, name="theta"):
    """Validate ``v`` as a finite parameter vector of length ``size``.

    Returns a copy, so a later change to ``v`` reaches nothing built from
    it (a certificate's target, a fitter's iterate, a report's root)."""
    return _sized_vector(v, size, name).copy()


def _sized_vector(v, size, name, finite=True):
    """``v`` as a float vector of length ``size``; with ``finite=False``
    its entries may be non-finite (a callback's value at a line-search
    candidate, which :func:`damped_newton` rejects instead of raising)."""
    x = _as_array(v, 1, name, finite)
    if x.shape[0] != size:
        raise InvalidInputError(
            f"{name} has length {x.shape[0]}, expected {size}")
    return x


class _DatasetCore:
    """The one ownership rule of the package's datasets, the frozen
    dataclasses ``glm.Dataset`` and ``cox.SurvivalDataset`` (each with its
    design matrix in the field ``X``).

    A dataset stores a read-only copy of every array the caller passed,
    in the caller's memory layout, so a later write to those arrays moves
    nothing the dataset reports or computes; arrays it derives at
    construction are stored read-only as they are. Copies, pickles and
    ``dataclasses.replace`` rebuild from the fields, so caches start empty.
    """

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in dataclasses.fields(self))

    def _own(self, **arrays):
        """Store a read-only copy of each validated caller array.
        ``order="K"`` keeps the layout, and with it the BLAS rounding: the
        CLI's design matrix is a column slice of its table, Fortran-ordered."""
        self._keep(**{name: a.copy(order="K") for name, a in arrays.items()})

    def _keep(self, **values):
        """Set plain attributes on the frozen instance, arrays read-only."""
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)


def row_weights(fn, x):
    """A per-row callback (a weight, a link constant) at each row of ``x``;
    ``None`` means ones. Negative or non-finite values are rejected."""
    if fn is None:
        return np.ones(x.shape[0])
    w = np.asarray([float(fn(row)) for row in x])
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InvalidInputError("per-row function produced negative or "
                                "non-finite values")
    return w


def op_norm(m):
    """Largest singular value of a dense matrix.

    Parameters
    ----------
    m : (r, c) array_like
        Matrix with finite entries; need not be square.

    Returns
    -------
    float
        The spectral norm, nonnegative.
    """
    a = as_matrix(m, "op_norm input")
    # LAPACK SVD: deterministic and accurate to a few ulps relative.
    return float(np.linalg.svd(a, compute_uv=False)[0])


def solve_linear(a, b):
    """Solve ``a x = b`` by LU with partial pivoting.

    Parameters
    ----------
    a : (n, n) array_like
        Square matrix with finite entries.
    b : (n,) array_like
        Right-hand side.

    Returns
    -------
    (n,) ndarray
        Solution with ``||a x - b||_2 <= 1e-9 * (1 + ||b||_2)`` for systems
        that are not close to singular. When the first solve misses that
        target, one step of iterative refinement is tried, and whichever of
        the two solutions has the smaller residual is returned.

    Raises
    ------
    SingularMatrixError
        If the smallest pivot of the factorization falls below
        ``1e-12 * max|a_ij|``. The error carries that pivot magnitude.
    """
    return _factor(a)(as_vector(b, "right-hand side"))


def solve_linear_many(a, b):
    """Solve ``a X = B`` for a matrix right-hand side (shared factorization)."""
    return _factor(a)(as_matrix(b, "right-hand side"))


def lu_factorization(a):
    """Factor a square matrix once for repeated solves.

    Returns a callable mapping right-hand sides (1-d or 2-d) to solutions.
    A vector gets the bits :func:`solve_linear` gives, residual contract
    included; a matrix is solved once, unrefined. Raises
    :class:`SingularMatrixError` like :func:`solve_linear`.
    """
    return _factor(a)


def _factor(a):
    """The one LU decision of the package: validate ``a`` as a square finite
    matrix, factor it with partial pivoting, reject it as singular when its
    smallest pivot falls below ``SINGULAR_PIVOT_RTOL * max|a_ij|``, and
    return the solve. A vector right-hand side gets one refinement step when
    the residual misses ``SOLVE_RESIDUAL_RTOL * (1 + ||b||)``; the refined
    solution is kept only if its residual is no larger."""
    a = as_matrix(a, "coefficient matrix")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"coefficient matrix must be square, got {a.shape}")
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        raise SingularMatrixError("matrix is identically zero", 0.0)
    # LAPACK getrf and getrs, called directly: the bits of
    # scipy.linalg.lu_factor and lu_solve without their per-call wrapper
    # cost, which dominates the small factorizations and solves made once per
    # Newton iteration (5x5 on a 2-core host: this whole function about 14 us
    # against 37 through lu_factor, a solve about 0.6 us against 8-10). An
    # exactly zero pivot (info > 0) is caught by the pivot test below.
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (a,))
    lu, piv, info = getrf(a)
    if info < 0:
        raise InvalidInputError(f"illegal value in argument {-info} of getrf")
    smallest = float(np.abs(np.diag(lu)).min())
    if smallest < SINGULAR_PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix is singular to working tolerance "
            f"(smallest pivot {smallest:.3e} < {SINGULAR_PIVOT_RTOL:.0e} * "
            f"max entry {scale:.3e})",
            smallest,
        )

    def solve(rhs):
        r = np.asarray(rhs, dtype=float)
        if r.ndim not in (1, 2) or r.shape[0] != a.shape[0]:
            raise InvalidInputError(f"dimension mismatch: matrix is "
                                    f"{a.shape}, rhs has shape {r.shape}")
        if not np.isfinite(r).all():
            raise InvalidInputError("right-hand side must be finite")
        if r.size == 0:
            return np.empty_like(r)
        x, info = getrs(lu, piv, r)
        if info != 0:
            raise InvalidInputError(f"illegal value in argument {-info} of getrs")
        if r.ndim == 1:  # one refinement step where the contract is missed
            resid = r - a @ x
            size = np.linalg.norm(resid)
            if size > SOLVE_RESIDUAL_RTOL * (1.0 + np.linalg.norm(r)):
                refined = x + getrs(lu, piv, resid)[0]
                # near singularity the step can make things worse
                if np.linalg.norm(r - a @ refined) <= size:
                    x = refined
        return x

    return solve


def damped_newton(x, evaluate, newton_step, tol, max_iter,
                  norm=np.linalg.norm, step_tol=None):
    """Find a root of a residual by Newton steps with step halving.

    ``evaluate(x)`` gives the residual ``r`` and objective ``f`` (None if
    there is none) at ``x``, once per point: an accepted candidate's pair
    serves the next iteration. Each iteration halves ``step = newton_step(x,
    r)`` up to 50 times until the line-search rule accepts ``x + t * step``:

    * with an objective, it must not increase; a candidate whose objective
      rose but stayed finite is still accepted when its residual is smaller
      (near the root the decrease of the objective drops below float
      resolution);
    * without one, the residual must shrink strictly.

    ``norm(r)`` is the size of the residual, or a sequence with the sizes
    of its blocks: the iteration stops once every block is at most ``tol``,
    and the line search compares the Euclidean combination of the blocks.
    With ``step_tol``, a root also needs a Newton step of at most
    ``step_tol * (1 + ||x||)``; that tells a genuine root from a residual
    that only fades as ``x`` runs off to infinity.

    Returns ``(root, residual at the root)``. Raises
    :class:`~mestcert.errors.ConvergenceError` with ``residual`` set when
    the line search stalls, and with ``iterations`` set too when
    ``max_iter`` iterations end without a root.
    """
    tol = float(tol)
    r, f = evaluate(x)
    for _ in range(int(max_iter)):
        done, size = _sizes(norm(r), tol)
        if done and step_tol is None:
            return x, r
        step = newton_step(x, r)
        if done and float(np.linalg.norm(step)) <= \
                step_tol * (1.0 + float(np.linalg.norm(x))):
            return x, r
        for k in range(MAX_HALVINGS):
            cand = x + 0.5 ** k * step  # t = 2^-k, exact in floating point
            with np.errstate(over="ignore", invalid="ignore"):
                r1, f1 = evaluate(cand)
                accept = f1 is not None and np.isfinite(f1) and f1 <= f
                if not accept and (f1 is None or np.isfinite(f1)):
                    new = _sizes(norm(r1), tol)[1]
                    accept = np.isfinite(new) and new < size
            if accept:
                x, r, f = cand, r1, f1
                break
        else:
            raise ConvergenceError(
                f"line search stalled: {MAX_HALVINGS} step halvings found no "
                f"acceptable point (residual norm {size:.3g})", residual=size)
    done, size = _sizes(norm(r), tol)
    if done and step_tol is None:  # with step_tol the step test is missing
        return x, r
    raise ConvergenceError(
        f"no root with residual norm <= {tol:.3g} within {max_iter} "
        f"iterations (last {size:.3g}); the root may lie at infinity, e.g. "
        f"for separable classification data",
        iterations=int(max_iter), residual=size)


def _sizes(sizes, tol):
    """``(every block within tol, Euclidean size)`` of a residual."""
    sizes = np.atleast_1d(np.asarray(sizes, dtype=float))
    return bool(np.all(sizes <= tol)), float(np.hypot.reduce(sizes))
