"""Sparse recovery solvers for underdetermined measurement systems.

Basis pursuit denoising (FISTA with adaptive restart), orthogonal matching
pursuit on an incremental Cholesky factor, CoSaMP refitting through a
Cholesky factor of the merged columns' Gram matrix, relevance-vector
Bayesian recovery, and one-bit recovery via binary iterative hard
thresholding, plus the sign quantizer. All five solvers reach A only
through `SensingMatrix` (`matvec` and `rmatvec`, on a vector or a row
block, `columns`, `column_norms`) and never build the dense matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .matrices import SensingMatrix
from .signals import _samples

__all__ = [
    "SolverOpts",
    "BayesOpts",
    "RecoveryResult",
    "BayesianResult",
    "SignVector",
    "basis_pursuit",
    "omp",
    "cosamp",
    "bayesian_recover",
    "one_bit_quantize",
    "biht_recover",
]


@dataclass(frozen=True)
class SolverOpts:
    """Generic solver options; None picks the per-solver default."""

    tol: float | None = None
    max_iter: int | None = None
    # only BIHT draws from it (sign dithers and refinement starts)
    seed: int = 0


@dataclass(frozen=True)
class BayesOpts:
    # an action loop stops when the best action's gain is at most tol; gains
    # are 2 * (change in log evidence), so 1e-3 is a likelihood ratio of
    # about 1.0005
    tol: float = 1e-3
    max_iter: int = 500
    # known measurement-noise variance; None means estimate it jointly
    noise_variance: float | None = None


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray
    iterations: int
    converged: bool
    objective_trace: np.ndarray


@dataclass(frozen=True)
class BayesianResult:
    base: RecoveryResult
    noise_variance_hat: float
    signal_variance_hat: np.ndarray
    hyper_a: np.ndarray
    hyper_b: float

    @property
    def x_hat(self) -> np.ndarray:
        return self.base.x_hat


@dataclass(frozen=True)
class SignVector:
    signs: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.signs) != 1 or np.size(self.signs) == 0:
            raise ValueError("a sign vector must be nonempty and 1-d, "
                             f"got shape {np.shape(self.signs)}")
        if not np.all(np.isin(self.signs, (-1.0, 1.0))):
            raise ValueError("sign vector entries must be +-1")

    def __len__(self) -> int:
        return self.signs.size


# basis pursuit's backtracking: L shrinks by _BP_SHRINK before each step and
# grows by _BP_GROW on each failed bound test
_BP_SHRINK = 0.9
_BP_GROW = 2.0


def _soft(u: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)


def basis_pursuit(
    y, A: SensingMatrix, z: float = 0.0, opts: SolverOpts = SolverOpts()
) -> RecoveryResult:
    """Minimize ||y - Ax||_2^2 + z ||x||_1 by FISTA with adaptive restart.

    Accelerated proximal gradient (Beck & Teboulle 2009) with the
    function-value restart of O'Donoghue & Candes (2015): a momentum step
    that raises the objective is rejected and the momentum reset, so the
    next step is a plain proximal step from the current iterate. A v for the
    momentum point v is the same affine mix of A x_k and A x_(k-1) as v
    itself, so a step costs one rmatvec and one matvec.

    The step is 1/L, with L found by backtracking (Beck & Teboulle 2009,
    section 4) and allowed to fall between steps (Scheinberg, Goldfarb &
    Bai 2014), so it follows the curvature of A along the iterates rather
    than its largest squared singular value. L starts at
    ||A^T y||^2 / ||y||^2, which never exceeds ||A||_2^2 (1 if A^T y = 0).
    Each step first multiplies L by 0.9, then takes the proximal step x+
    from v and keeps it if the quadratic upper bound of 0.5||y - Ax||^2
    holds at x+, which for this quadratic is ||A(x+ - v)||^2 <= L ||x+ - v||^2,
    with a slack of 1e-12 ||y - Av||^2 for rounding (a step whose
    L ||x+ - v||^2 is within the slack is taken untested). Otherwise L
    doubles and the step is redone from the same gradient, for one more
    matvec; a redone step is not an iteration.

    Stops when an accepted step changes the objective by at most opts.tol
    (default 1e-8) of its value, or after opts.max_iter steps (default
    5000), rejected ones included. The objective trace holds the accepted
    steps and is nonincreasing. `converged` means the relative-change rule
    fired. A plain step that raises the objective ends the loop with the
    previous iterate, converged only if the rise is within opts.tol of the
    objective: the backtracking step's bound allows a rise only by rounding.
    """
    # a NaN z would make every backtracking test fail, and L double forever
    if not 0.0 <= z < math.inf:
        raise ValueError(f"z must be finite and >= 0, got {z}")
    yv = _samples(y, block=False, length=A.m, real="measurements")
    tol = 1e-8 if opts.tol is None else opts.tol
    max_iter = 5000 if opts.max_iter is None else opts.max_iter
    # minimizing ||y-Ax||^2 + z|x|_1 is the half-scaled problem
    # 0.5||y-Ax||^2 + (z/2)|x|_1 for gradient purposes
    grad = A.rmatvec(yv)
    # ||A^T y||^2 / ||y||^2 <= ||A||_2^2; a zero A^T y (y = 0 included)
    # leaves x = 0 optimal, and any L serves
    g2 = float(grad @ grad)
    lips = g2 / float(yv @ yv) if g2 > 0.0 else 1.0
    x = np.zeros(A.n)
    resid = yv.copy()
    obj = float(resid @ resid)
    trace = [obj]
    # the previous iterate and its residual; equal to the current ones after
    # a restart, so the next momentum point is x itself
    x_prev, resid_prev, t = x, resid, 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        v = x + beta * (x - x_prev)
        resid_v = resid + beta * (resid - resid_prev)
        # the gradient of 0.5||y-Av||^2 is -A^T (y - Av); at x = 0 it is A^T y,
        # already formed for the starting L
        if it > 1:
            grad = A.rmatvec(resid_v)
        lips *= _BP_SHRINK
        slack = 1e-12 * float(resid_v @ resid_v)
        while True:
            step = 1.0 / lips
            x_new = _soft(v + step * grad, step * z / 2.0)
            resid_new = yv - A.matvec(x_new)
            d = x_new - v
            dr = resid_v - resid_new
            # a step whose curvature term is within the slack cannot be
            # tested apart from rounding, and is taken
            curv = lips * float(d @ d)
            if curv <= slack or float(dr @ dr) <= curv + slack:
                break
            lips *= _BP_GROW
        obj_new = float(resid_new @ resid_new) + z * float(np.abs(x_new).sum())
        if obj_new > obj:
            if beta == 0.0:
                # a plain step that raises the objective: keep the previous
                # iterate. The backtracking bound allows a rise only by
                # rounding, which the stop rule's tolerance covers
                converged = obj_new - obj <= tol * obj
                break
            x_prev, resid_prev, t = x, resid, 1.0
            continue
        x_prev, resid_prev, x, resid, t = x, resid, x_new, resid_new, t_next
        trace.append(obj_new)
        if obj - obj_new <= tol * obj:
            converged = True
            break
        obj = obj_new
    return RecoveryResult(
        x_hat=x,
        iterations=it,
        converged=converged,
        objective_trace=np.asarray(trace),
    )


def omp(y, A: SensingMatrix, k_or_tol) -> RecoveryResult:
    """Orthogonal matching pursuit on an incremental Cholesky factor.

    Each step picks the column most correlated with the residual (scaled by
    its norm), gathers it with `A.columns`, and extends the Cholesky factor
    L of the chosen columns' Gram matrix by one row in O(m |S|). The
    least-squares fit on the support is then two triangular solves; the
    inverse factor is kept, so each is one matrix-vector product.

    k_or_tol: an int caps the support size; a float stops when the residual
    norm falls below tol * ||y||. The residual norm never increases.
    `converged` means the stop rule fired, which an int k always does (k
    columns or an exact fit); a float tol needs a residual norm at or below
    max(tol * ||y||, 1e-8 * max(||y||, 1)). A picked column whose pivot is
    at most 1e-6 of its norm already lies in the span of the support: OMP
    warns that the columns are linearly dependent, keeps the fit it has and
    stops with `converged` False, since neither k columns nor the tolerance
    was reached.
    """
    yv = _samples(y, block=False, length=A.m, real="measurements")
    by_count = isinstance(k_or_tol, (int, np.integer)) and not isinstance(k_or_tol, bool)
    if by_count:
        k_max = int(k_or_tol)
        tol = 0.0
        if not 1 <= k_max <= A.m:
            raise ValueError("target sparsity must satisfy 1 <= k <= m")
    else:
        k_max = A.m
        tol = float(k_or_tol)
        if tol <= 0:
            raise ValueError("residual tolerance must be positive")
    col_norms = A.column_norms()
    col_norms[col_norms == 0.0] = 1.0
    support: list[int] = []
    # the chosen columns, the inverse of the Cholesky factor L of their Gram
    # matrix, and z = L^-1 A_S^T y; grown by doubling, up to k_max columns
    cols = np.zeros((A.m, 0))
    l_inv = np.zeros((0, 0))
    z = np.zeros(0)
    coef = np.zeros(0)
    resid = yv.copy()
    norm_y = float(np.linalg.norm(yv))
    trace = [float(np.linalg.norm(resid))]
    dependent = False
    it = 0
    while len(support) < k_max:
        if trace[-1] <= max(tol * norm_y, 1e-14 * max(norm_y, 1.0)):
            break
        it += 1
        corr = np.abs(A.rmatvec(resid)) / col_norms
        corr[support] = -1.0
        j = int(np.argmax(corr))
        s = len(support)
        a = A.columns([j])[:, 0]
        w = l_inv[:s, :s] @ (cols[:, :s].T @ a)  # L w = A_S^T a
        col_sq = float(a @ a)
        pivot_sq = col_sq - float(w @ w)
        if pivot_sq <= 1e-12 * col_sq:
            warnings.warn("omp: selected columns are linearly dependent; "
                          "stopping with the fit on the support so far",
                          RuntimeWarning)
            dependent = True
            break
        if s == cols.shape[1]:
            grow = min(max(2 * s, 16), k_max) - s
            cols = np.pad(cols, ((0, 0), (0, grow)))
            l_inv = np.pad(l_inv, ((0, grow), (0, grow)))
            z = np.pad(z, (0, grow))
        pivot = math.sqrt(pivot_sq)
        cols[:, s] = a
        l_inv[s, :s] = -(w @ l_inv[:s, :s]) / pivot
        l_inv[s, s] = 1.0 / pivot
        z[s] = (float(a @ yv) - float(w @ z[:s])) / pivot
        support.append(j)
        coef = l_inv[:s + 1, :s + 1].T @ z[:s + 1]  # L^T coef = z
        resid = yv - cols[:, :s + 1] @ coef
        trace.append(float(np.linalg.norm(resid)))
    x = np.zeros(A.n)
    x[support] = coef
    return RecoveryResult(
        x_hat=x,
        iterations=it,
        converged=not dependent and (
            by_count or trace[-1] <= max(tol * norm_y, 1e-8 * max(norm_y, 1.0))),
        objective_trace=np.asarray(trace),
    )


def _cholesky_fit(sub: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The least-squares fit of y on the columns of sub, from the normal equations.

    Two solves with the Cholesky factor L of the Gram matrix sub^T sub. None
    if the factor does not exist or a squared pivot is at most 1e-12 of its
    Gram diagonal entry (OMP's test): such a column lies, to working
    precision, in the span of the ones before it. None also when sub has
    more columns than rows: they are dependent, but the rounding of their
    Gram matrix can leave every pivot above the test.
    """
    if sub.shape[0] < sub.shape[1]:
        return None
    gram = sub.T @ sub
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.diag(chol) ** 2 <= 1e-12 * np.diag(gram)):
        return None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, sub.T @ y))


def cosamp(
    y, A: SensingMatrix, k: int, opts: SolverOpts = SolverOpts()
) -> RecoveryResult:
    """CoSaMP: merge the 2k strongest proxy indices, least-squares, prune to k.

    Each refit solves the normal equations of the merged columns through a
    Cholesky factor of their Gram matrix. A merged set that `_cholesky_fit`
    turns down (more columns than rows, or a failed pivot test) goes to the
    SVD solve `np.linalg.lstsq`, which warns that the merged columns are
    linearly dependent when it finds them rank deficient and continues with
    its pseudo-inverse fit.

    The residual norm never increases: a pruned fit worse than the last one
    is dropped and ends the loop. `converged` is False only if opts.max_iter
    (default 100) ran out before the residual norm stalled or met
    opts.tol * max(||y||, 1) (default 1e-8).
    """
    yv = _samples(y, block=False, length=A.m, real="measurements")
    if not 1 <= k <= A.n:
        raise ValueError("need 1 <= k <= n")
    if k > A.m // 2:
        warnings.warn(f"cosamp: k={k} above the m/2 working regime (m={A.m})",
                      RuntimeWarning)
    tol = 1e-8 if opts.tol is None else opts.tol
    max_iter = 100 if opts.max_iter is None else opts.max_iter
    x = np.zeros(A.n)
    resid = yv.copy()
    norm_y = float(np.linalg.norm(yv))
    trace = [float(np.linalg.norm(resid))]
    converged = trace[-1] <= tol * max(norm_y, 1.0)
    it = 0
    while not converged and it < max_iter:
        it += 1
        proxy = np.abs(A.rmatvec(resid))
        candidates = np.argpartition(proxy, -min(2 * k, A.n))[-min(2 * k, A.n):]
        merged = np.union1d(candidates, np.flatnonzero(x))
        sub = A.columns(merged)
        coef = _cholesky_fit(sub, yv)
        if coef is None:
            coef, _, rank, _ = np.linalg.lstsq(sub, yv, rcond=None)
            if rank < merged.size:
                warnings.warn("cosamp: merged columns are linearly dependent; "
                              "continuing with the pseudo-inverse fit", RuntimeWarning)
        keep = np.argsort(np.abs(coef))[-k:]
        x_new = np.zeros(A.n)
        x_new[merged[keep]] = coef[keep]
        resid_new = yv - A.matvec(x_new)
        rnorm = float(np.linalg.norm(resid_new))
        if rnorm > trace[-1]:
            # the pruned fit is worse than the last one: keep that one
            converged = True
            break
        x, resid = x_new, resid_new
        # stop on the tolerance, or once a step makes no further progress
        converged = rnorm <= tol * max(norm_y, 1.0) or (
            it > 1 and rnorm >= trace[-1] * (1.0 - 1e-12))
        trace.append(rnorm)
    return RecoveryResult(
        x_hat=x,
        iterations=it,
        converged=converged,
        objective_trace=np.asarray(trace),
    )


# an update whose pivot ratio is at or below this is redone by a refresh; it
# bounds how much the update can amplify rounding error in Sigma, S and Q
_PIVOT_FLOOR = 1e-8
# the largest precision an add or a re-estimate gives a column
_PRUNE_THRESHOLD = 1e12
# the first ridge, relative to the mean diagonal entry, that `_stable_inverse`
# adds to a posterior precision whose Cholesky factor fails
_RIDGE = 1e-10


class _RvmPosterior:
    """The posterior of a relevance-vector model and every column's factors.

    Holds the active columns in model order with their precisions `a`,
    A^T Phi for them in a preallocated (n, capacity) buffer, and, at the
    noise precision `b`, Sigma = (b Phi^T Phi + diag(a))^-1, mu = b Sigma
    Phi^T y, log|H| for the posterior precision H = Sigma^-1, and every
    column's sparsity and quality factors
    S_i = b a_i^T a_i - b^2 a_i^T Phi Sigma Phi^T a_i and
    Q_i = b a_i^T y - b^2 a_i^T Phi Sigma Phi^T y.

    `refresh` rebuilds all of it, O(n |S|^2). `add`, `reestimate` and
    `delete` keep it current through the closed-form updates of Tipping &
    Faul (AISTATS 2003), O(n |S|) each: by the determinant lemma an add
    multiplies |H| by a_i + S_i, a re-estimate by 1 + (a'_j - a_j) Sigma_jj
    and a delete by Sigma_jj. An update whose pivot is not safely positive
    refreshes instead, and a caller that changes b must refresh. A^T a_j is
    computed from the operator once, when column j first enters the model.
    """

    def __init__(self, A: SensingMatrix, phi_y: np.ndarray, colsq: np.ndarray,
                 b: float, first: int, alpha: float) -> None:
        """A one-column model, with its posterior and factors at b."""
        self.A, self.phi_y, self.colsq, self.b = A, phi_y, colsq, b
        self.active: list = []
        self.a = np.empty(0)
        self._buf = np.empty((A.n, min(A.n, 64)))
        self._gram: dict = {}
        self._append(first, alpha, self._gram_column(first))
        self.refresh()

    @property
    def cross(self) -> np.ndarray:
        """A^T Phi, one column per active column in model order."""
        return self._buf[:, : len(self.active)]

    def refresh(self) -> None:
        """Rebuild Sigma, mu, log|H| and every (S_i, Q_i) at the current b."""
        b, cross = self.b, self.cross
        self.sigma, self.logdet_h = _stable_inverse(
            b * cross[self.active] + np.diag(self.a))
        phi_y = self.phi_y[self.active]
        self.mu = b * (self.sigma @ phi_y)
        proj = cross @ self.sigma
        self.big_s = b * self.colsq - b * b * np.sum(proj * cross, axis=1)
        self.big_q = b * self.phi_y - b * b * (proj @ phi_y)

    def scatter(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """A length-n vector with `values` at the active columns."""
        out = np.full(self.A.n, fill)
        out[self.active] = values
        return out

    def _gram_column(self, col: int) -> np.ndarray:
        """A^T a_col, from the operator the first time col enters the model."""
        if col not in self._gram:
            self._gram[col] = self.A.rmatvec(self.A.columns([col])[:, 0])
        return self._gram[col]

    def _append(self, col: int, alpha: float, gram: np.ndarray) -> None:
        k = len(self.active)
        if k == self._buf.shape[1]:
            grown = np.empty((self.A.n, min(self.A.n, 2 * k)))
            grown[:, :k] = self._buf[:, :k]
            self._buf = grown
        self._buf[:, k] = gram
        self.active.append(col)
        self.a = np.append(self.a, alpha)

    def add(self, col: int, alpha: float) -> None:
        gram = self._gram_column(col)
        updated = self._add_update(col, alpha, gram)
        self._append(col, alpha, gram)
        if not updated:
            self.refresh()

    def reestimate(self, j: int, alpha: float) -> None:
        updated = self._reestimate_update(j, alpha)
        self.a[j] = alpha
        if not updated:
            self.refresh()

    def delete(self, j: int) -> None:
        k = len(self.active)
        updated = self._delete_update(j)
        self._buf[:, j : k - 1] = self._buf[:, j + 1 : k]
        self.active.pop(j)
        self.a = np.delete(self.a, j)
        if not updated:
            self.refresh()

    # The updates below bring Sigma, mu, log|H|, S and Q to the model after
    # the action, and return False, changing nothing, when the pivot ratio is
    # not safely positive. With e_i = b a_i^T (a_new - Phi s) for an add, or
    # b a_i^T Phi Sigma_j for the others, S_i and Q_i move by multiples of
    # e_i^2 and e_i.

    def _add_update(self, col: int, alpha: float, gram: np.ndarray) -> bool:
        b, k = self.b, len(self.active)
        pivot = alpha + self.big_s[col]
        if not pivot > _PIVOT_FLOOR * (alpha + b * self.colsq[col]):
            return False
        s = b * (self.sigma @ self.cross[col])
        sii = 1.0 / pivot
        mui = sii * self.big_q[col]
        e = b * gram - b * (self.cross @ s)
        sigma = np.empty((k + 1, k + 1))
        sigma[:k, :k] = self.sigma + sii * np.outer(s, s)
        sigma[:k, k] = sigma[k, :k] = -sii * s
        sigma[k, k] = sii
        self.sigma = sigma
        self.mu = np.append(self.mu - mui * s, mui)
        self.big_s = self.big_s - sii * e * e
        self.big_q = self.big_q - mui * e
        self.logdet_h += math.log(pivot)
        return True

    def _reestimate_update(self, j: int, alpha: float) -> bool:
        delta = alpha - self.a[j]
        ratio = 1.0 + delta * self.sigma[j, j]
        if not (ratio > _PIVOT_FLOOR and math.isfinite(ratio)):
            return False
        kappa = delta / ratio
        sig_j, mu_j = self.sigma[:, j].copy(), self.mu[j]
        e = self.b * (self.cross @ sig_j)
        self.sigma = self.sigma - kappa * np.outer(sig_j, sig_j)
        self.mu = self.mu - (kappa * mu_j) * sig_j
        self.big_s = self.big_s + kappa * e * e
        self.big_q = self.big_q + (kappa * mu_j) * e
        self.logdet_h += math.log(ratio)
        return True

    def _delete_update(self, j: int) -> bool:
        sjj = self.sigma[j, j]
        # Sigma_jj (a_j + b |a_j|^2) >= 1 in exact arithmetic
        ratio = sjj * (self.a[j] + self.b * self.colsq[self.active[j]])
        if not (ratio > _PIVOT_FLOOR and math.isfinite(ratio)):
            return False
        sig_j, mu_j = self.sigma[:, j], self.mu[j]
        e = self.b * (self.cross @ sig_j)
        keep = np.arange(len(self.active)) != j
        self.sigma = (self.sigma - np.outer(sig_j, sig_j / sjj))[np.ix_(keep, keep)]
        self.mu = (self.mu - (mu_j / sjj) * sig_j)[keep]
        self.big_s = self.big_s + e * e / sjj
        self.big_q = self.big_q + (mu_j / sjj) * e
        self.logdet_h += math.log(sjj)
        return True


def bayesian_recover(
    y, A: SensingMatrix, opts: BayesOpts = BayesOpts()
) -> BayesianResult:
    """Sparse Bayesian recovery by grow-then-prune evidence maximization.

    Phase 1 grows an active set greedily: each iteration scores every
    column by its sparsity and quality factors (s_i, q_i) under the current
    posterior and applies whichever single action raises the marginal
    likelihood most (add, re-estimate a precision, or delete). Phase 2
    prunes: any active column whose exclusive evidence falls short of ln n
    (the complexity charge for picking the best of n candidate regressors)
    is removed, re-estimating the noise after each removal so an overfit
    low-SNR model unwinds. Phase 3 polishes with the same action loop, with
    additions now required to clear the same ln n.

    Stop rule: an action loop (phase 1 or 3) stops when the best action's
    gain is at most opts.tol (default 1e-3). Gains are in units of
    2 * (change in log evidence), so 1e-3 stops once no single action
    raises the marginal likelihood by a factor above about 1.0005. When b
    is re-estimated, such a stall first re-estimates b, and the loop stops
    only on a stall right after a re-estimate. `converged` is True when
    both loops stopped on this rule rather than on opts.max_iter, and for
    the empty model. A column is added only while S_i exceeds 1e-8 of
    b ||a_i||^2, so a column in the span of the model, up to rounding, is
    never added.

    Posterior: Sigma = (b Phi^T Phi + diag(a))^-1 over the active set,
    mu = b Sigma Phi^T y. Each action (add, re-estimate or delete) updates
    Sigma, mu, log|H| and every column's (S_i, Q_i) in closed form
    (Tipping & Faul, AISTATS 2003), which costs O(n |S|). When
    opts.noise_variance is given, b is held fixed at its reciprocal.
    Otherwise b is re-estimated as (m - |S| + sum_j a_j Sigma_jj) /
    ||y - Phi mu||^2 from the current posterior at the start of each action
    loop, when an action loop stalls, and before each deletion of phase 2,
    floored during selection so the modeled SNR never exceeds 20 dB; after
    selection one unfloored re-estimate sets the b of the returned
    posterior. The posterior and factors are rebuilt in full, O(n |S|^2),
    at the start of each phase, after each re-estimate of b, for the
    returned posterior, and whenever an update's pivot is not safely
    positive. Inactive coefficients are exact zeros. A is reached only
    through `SensingMatrix`: the column norms, A^T y, A^T a_j once per
    column j that enters the model, and one apply of A per re-estimate of
    b. The objective trace records, for every model scored during
    selection, -log p(y) plus ln(n) / 2 per active column, as the
    best value seen so far; it is nonincreasing.
    """
    yv = _samples(y, block=False, length=A.m, real="measurements")
    n, m = A.n, A.m
    norm_y2 = float(yv @ yv)
    trace: list = []

    def empty_result(iters: int) -> BayesianResult:
        if norm_y2 > 0.0:
            push_trace(0.0, 0.0, 0.0, 0)
        base = RecoveryResult(np.zeros(n), iters, True,
                              np.asarray(trace if trace else [0.0]))
        nv = float(norm_y2 / m) if norm_y2 > 0 else 1e-12
        return BayesianResult(base, noise_variance_hat=nv,
                              signal_variance_hat=np.zeros(n),
                              hyper_a=np.full(n, np.inf),
                              hyper_b=float(1.0 / nv))

    if norm_y2 == 0.0:
        return empty_result(0)
    colsq = A.column_norms() ** 2
    usable = colsq > 0.0
    phi_y = A.rmatvec(yv)
    b_known = None
    if opts.noise_variance is not None:
        b_known = float(np.clip(1.0 / max(opts.noise_variance, 1e-300),
                                1e-12, 1e12))
    b = m / norm_y2 if b_known is None else b_known
    add_bar = math.log(n)

    def push_trace(logdet_h: float, log_a_sum: float, fit: float, size: int) -> None:
        """Append -log p(y) of a model of `size` columns at the current b,
        plus the admission charge. With C = I/b + Phi diag(a)^-1 Phi^T and H
        the posterior precision, log|C| = log|H| - sum log a - m log b and
        y^T C^-1 y = b ||y||^2 - b (Phi^T y)^T mu; `fit` is (Phi^T y)^T mu."""
        log_c = logdet_h - log_a_sum - m * math.log(b)
        j = 0.5 * (m * math.log(2.0 * math.pi) + log_c + b * (norm_y2 - fit)
                   + add_bar * size)
        trace.append(min(trace[-1], j) if trace else j)

    # seed with the single column that explains the data best; if none beats
    # the all-noise model the empty solution is already optimal
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.where(usable, phi_y**2 / np.maximum(colsq, 1e-300),
                           -np.inf)
    first = int(np.argmax(quality))
    excess = quality[first] - 1.0 / b
    if excess <= 0.0:
        return empty_result(0)
    post = _RvmPosterior(A, phi_y, colsq, b, first, colsq[first] / excess)
    iters = 0

    # noise floor: the modeled SNR is capped at 20 dB during selection;
    # without it the evidence update absorbs noise into spurious columns
    # once the residual gets small, and the noise estimate runs away
    b_cap = min(100.0 * m / norm_y2, 1e12)

    def refit_noise(floor: bool) -> None:
        """Re-estimate b from the current posterior when it is not known,
        then rebuild the posterior and factors at it."""
        nonlocal b
        if b_known is None:
            resid = yv - A.matvec(post.scatter(post.mu))
            rss = float(resid @ resid)
            gamma_sum = float(np.sum(post.a * np.diag(post.sigma)))
            b = post.b = float(np.clip(
                (m - len(post.active) + gamma_sum) / max(rss, 1e-300),
                1e-12, b_cap if floor else 1e12))
        post.refresh()

    def score():
        """Push the current model's trace entry and return every column's
        (S_i, Q_i) and, in model order, the exclusive factors (s_j, q_j) of
        the columns in the model."""
        push_trace(post.logdet_h, float(np.sum(np.log(post.a))),
                   float(phi_y[post.active] @ post.mu), len(post.active))
        big_s, big_q, a_act = post.big_s, post.big_q, post.a
        s_in, q_in = big_s[post.active], big_q[post.active]
        denom = a_act - s_in
        safe = np.abs(denom) > 1e-12
        return (big_s, big_q, np.where(safe, a_act * s_in / denom, np.inf),
                np.where(safe, a_act * q_in / denom, 0.0))

    def action_step(barred: bool) -> bool:
        """Apply the best greedy action; False once its gain is at most tol.

        Adds are scored over the columns outside the model, whose exclusive
        factors are (S_i, Q_i); re-estimates and deletes over the model's
        columns. Ties go to the first action in the order add, re-estimate,
        delete, then to the lowest column index."""
        big_s, big_q, s_fac, q_fac = score()
        active, a_act = post.active, post.a
        outside = usable.copy()
        outside[active] = False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q2 = big_q**2
            pos_s = np.maximum(big_s, 1e-300)
            gain_add = np.where(
                outside & (q2 - big_s > 0) & (big_s > _PIVOT_FLOOR * b * colsq),
                (q2 - big_s) / pos_s + np.log(pos_s / np.maximum(q2, 1e-300)),
                -np.inf)
            if barred:
                gain_add = np.where(gain_add > add_bar, gain_add, -np.inf)
            s_in, q2_in = big_s[active], q2[active]
            theta = q_fac**2 - s_fac
            new_a = np.where(theta > 0,
                             s_fac**2 / np.maximum(theta, 1e-300), np.inf)
            delta_inv = 1.0 / new_a - 1.0 / a_act
            log_arg = np.maximum(1.0 + s_in * delta_inv, 1e-12)
            gain_re = np.where(
                (theta > 0) & np.isfinite(delta_inv) & (np.abs(delta_inv) > 1e-300),
                q2_in * delta_inv / log_arg - np.log(log_arg),
                -np.inf)
            gain_del = np.where(
                (theta <= 0) & (a_act > s_in),
                q2_in / np.where(a_act > s_in, s_in - a_act, -1.0)
                - np.log1p(-np.clip(s_in / a_act, -np.inf, 1 - 1e-12)),
                -np.inf)
        if len(active) <= 1:
            gain_del[:] = -np.inf
        tops = []
        for gain in (gain_add, gain_re, gain_del):
            gain[~np.isfinite(gain)] = -np.inf
            tops.append(gain.max())
        action = int(np.argmax(tops))
        best = float(tops[action])
        if not np.isfinite(best) or best <= opts.tol:
            return False
        if action == 0:
            col = int(np.argmax(gain_add))
            theta_add = q2[col] - big_s[col]
            post.add(col, min(big_s[col] * big_s[col] / max(theta_add, 1e-300),
                              _PRUNE_THRESHOLD))
            return True
        gain = gain_re if action == 1 else gain_del
        j = active.index(int(np.asarray(active)[gain == best].min()))
        if action == 1:
            post.reestimate(j, min(new_a[j], _PRUNE_THRESHOLD))
        else:
            post.delete(j)
        return True

    def action_loop(barred: bool) -> bool:
        """Run actions until the stop rule fires (True) or max_iter runs out.

        It refits (rebuilds the posterior, re-estimating b first when b is
        not known) at its start. Then, when b is re-estimated, a stall after
        an action refits and goes on, and a stall right after a refit stops
        the loop."""
        nonlocal iters
        refit = True
        for _ in range(opts.max_iter):
            if refit:
                refit_noise(floor=True)
            iters += 1
            moved = action_step(barred)
            if not moved and (refit or b_known is not None):
                return True
            refit = not moved
        return False

    converged = action_loop(barred=False)

    # backward elimination: drop the weakest column while its exclusive
    # evidence cannot pay the admission bar; the noise estimate recovers
    # as each deletion returns its share of the residual
    refit_noise(floor=True)
    while post.active:
        iters += 1
        _, _, s_fac, q_fac = score()
        z2 = np.full(len(post.active), np.inf)
        for j, (s_j, q_j) in enumerate(zip(s_fac, q_fac)):
            if np.isfinite(s_j) and s_j > 0:
                r = q_j * q_j / s_j
                z2[j] = r - 1.0 - math.log(r) if r > 1.0 else 0.0
        worst = int(np.argmin(z2))
        if z2[worst] >= add_bar:
            break
        post.delete(worst)
        if b_known is None:
            refit_noise(floor=True)
    if not post.active:
        return empty_result(iters)

    converged = action_loop(barred=True) and converged

    # one unfloored noise re-estimate, then the returned posterior at it:
    # debiases the kept coefficients without feeding the uncapped estimate
    # back into model selection
    refit_noise(floor=False)
    base = RecoveryResult(
        x_hat=post.scatter(post.mu),
        iterations=iters,
        converged=converged,
        objective_trace=np.asarray(trace),
    )
    return BayesianResult(
        base=base,
        noise_variance_hat=float(max(1.0 / b, 1e-300)),
        signal_variance_hat=np.maximum(post.scatter(np.diag(post.sigma)), 0.0),
        hyper_a=post.scatter(post.a, np.inf),
        hyper_b=float(b),
    )


def _stable_inverse(hess: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert an SPD matrix, retrying with growing ridge regularization.

    Returns the inverse and the log-determinant of the matrix it inverted.
    """
    bump = 0.0
    scale = float(np.trace(hess)) / max(hess.shape[0], 1)
    for attempt in range(4):
        try:
            low = np.linalg.cholesky(hess + bump * np.eye(hess.shape[0]))
            inv_low = np.linalg.solve(low, np.eye(hess.shape[0]))
            return inv_low.T @ inv_low, 2.0 * float(np.sum(np.log(np.diag(low))))
        except np.linalg.LinAlgError:
            bump = _RIDGE * scale * (10.0 ** attempt) if bump == 0.0 else bump * 100.0
    raise IllConditionedError("posterior covariance inversion failed after "
                              "ridge-stabilized retries")


def one_bit_quantize(y) -> SignVector:
    """Keep only measurement signs; the zero sample quantizes to +1.

    y must be a nonempty real vector of finite values; anything else raises
    ValueError.
    """
    return SignVector(signs=_signs(_samples(y, block=False, real="measurements")))


def _signs(v: np.ndarray) -> np.ndarray:
    """The one-bit quantizer of a vector or of every row of a block: a zero reads +1."""
    return np.where(v >= 0.0, 1.0, -1.0)


def _hard_threshold(x: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest magnitudes of a vector, or of every row of a block."""
    n = x.shape[-1]
    if k >= n:
        return x.copy()
    keep = np.argpartition(np.abs(x), -k, axis=-1)[..., -k:]
    # flat positions: row r's entries start at r * n
    keep = keep + n * np.arange(x.size // n).reshape(x.shape[:-1] + (1,))
    out = np.zeros(x.shape)
    out.ravel()[keep] = x.ravel()[keep]
    return out


def _biht_block(A: SensingMatrix, s: np.ndarray, k: int, starts: np.ndarray,
                gain: float, iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one BIHT descent from every row of `starts`, all as one block.

    Each row steps x <- H_k(x + gain * A^T (s - q)), with q the quantized
    signs of A x (zero reads +1, as in `one_bit_quantize`), and stops once
    q = s or after `iters` steps; one block apply of A per step serves both
    the sign count and the residual of the live rows.
    Returns each row's best (first least-inconsistent) iterate, its count of
    inconsistent signs, and the per-iterate counts of every row laid end to
    end in row order.
    """
    rows = starts.shape[0]
    best = starts.copy()
    best_bad = np.full(rows, s.size + 1)
    history = np.full((rows, iters + 1), -1)  # -1: the row had stopped
    live, x = np.arange(rows), starts
    for step in range(iters + 1):
        q = _signs(A.matvec(x))
        bad = np.count_nonzero(q != s, axis=1)
        history[live, step] = bad
        better = bad < best_bad[live]
        if better.any():
            best[live[better]] = x[better]
            best_bad[live[better]] = bad[better]
        go = best_bad[live] > 0
        if step == iters or not go.any():
            break
        if not go.all():
            live, x, q = live[go], x[go], q[go]
        x = _hard_threshold(x + gain * A.rmatvec(s - q), k)
    return best, best_bad, history[history >= 0]


# multi-start schedule for biht_recover; restart diversity comes from sign
# dithering and the refinement stage perturbs around the first-stage average
BIHT_RESTARTS = 12
BIHT_REFINE_RESTARTS = 8
BIHT_DITHER_FLIP = 0.08
BIHT_REFINE_SPREAD = 0.5


def biht_recover(
    signs, A: SensingMatrix, k: int, opts: SolverOpts = SolverOpts()
) -> RecoveryResult:
    """Binary iterative hard thresholding from measurement signs only.

    Each inner run takes gradient steps on the one-sided sign-consistency
    loss (base step 1/m, folded with the matrix column scale so behaviour is
    invariant to the matrix normalization), hard-thresholds to the k largest
    magnitudes, and keeps the most consistent iterate. With only sign
    information the set of consistent k-sparse directions is wide, and a
    single descent lands on one of its edges. So: several sign-dithered
    restarts are run and their consistent endpoints averaged, the average is
    refined by a second round of perturbed restarts, and a final low-gain
    descent pulls the averaged point back onto a fully consistent
    neighbour. Output is scaled to unit l2 norm; the measurement magnitude
    is unrecoverable from signs alone. Deterministic given (signs, A, k,
    opts.seed).

    Each phase (the BIHT_RESTARTS dithered restarts, the
    BIHT_REFINE_RESTARTS refinement restarts, the final descent) runs as one
    block descent, one row per restart, with one block apply of A and of
    A^T per step and a per-row stop. Every start point of a phase is drawn
    before it runs, in restart order; a start whose top-k part vanishes is
    skipped, and a phase left with no starts runs nothing. The objective
    trace is the running minimum of the per-iterate sign-mismatch counts
    taken in restart order, `iterations` sums the steps of every descent,
    and the earliest least-inconsistent iterate is the fallback estimate, so
    the result is the same as running the restarts one after another.

    Signs are counted with the quantizer of `one_bit_quantize` (a zero
    product reads +1). `converged` means that the returned unit-norm
    estimate itself quantizes to s: one_bit_quantize(A x_hat) equals s.

    Raises IllConditionedError when every column of A vanishes or A^T s
    does.
    """
    s = _samples(signs, block=False, length=A.m, real="measurements")
    if not np.all(np.isin(s, (-1.0, 1.0))):
        raise ValueError("signs must be +-1")
    if not 1 <= k <= A.n:
        raise ValueError("need 1 <= k <= n")
    max_iter = 300 if opts.max_iter is None else opts.max_iter
    col_scale = float(np.mean(A.column_norms()))
    if col_scale <= 0.0:
        raise IllConditionedError("sensing matrix has vanishing columns")
    base = (1.0 / A.m) * math.sqrt(A.m) / col_scale

    def unit_topk(v: np.ndarray) -> np.ndarray | None:
        v = _hard_threshold(v, k)
        nrm = float(np.linalg.norm(v))
        return None if nrm == 0.0 else v / nrm

    def unit_consistent(best: np.ndarray, best_bad: np.ndarray) -> list[np.ndarray]:
        return [b / float(np.linalg.norm(b)) for b, bad in zip(best, best_bad) if bad == 0]

    trace: list[np.ndarray] = []
    running_best = [None, math.inf]  # earliest least-inconsistent iterate so far
    total_iters = 0

    def phase(starts: list, gain_mult: float, iters: int) -> tuple[np.ndarray, np.ndarray]:
        """One block descent; the trace, running best and count go on in start order."""
        nonlocal total_iters
        starts = [xi for xi in starts if xi is not None]
        if not starts:
            return np.empty((0, A.n)), np.empty(0, dtype=np.intp)
        best, best_bad, bads = _biht_block(A, s, k, np.array(starts),
                                           0.5 * base * gain_mult, iters)
        trace.append(np.minimum(np.minimum.accumulate(bads), running_best[1], dtype=float))
        first = int(np.argmin(best_bad))
        if best_bad[first] < running_best[1]:
            running_best[0], running_best[1] = best[first], int(best_bad[first])
        total_iters += bads.size - len(starts)
        return best, best_bad

    # every start point is drawn before its phase runs, in restart order
    rng = np.random.default_rng(opts.seed)
    dithered = np.tile(s, (BIHT_RESTARTS, 1))
    for row in dithered[1:]:
        row[rng.random(A.m) < BIHT_DITHER_FLIP] *= -1.0
    starts = [unit_topk(u) for u in A.rmatvec(dithered)]
    if starts[0] is None:
        raise IllConditionedError("degenerate initialization: A^T s vanished")

    consistent = unit_consistent(*phase(starts, 2.0, max_iter))
    pool = consistent if consistent else [running_best[0]]
    center = unit_topk(np.mean(pool, axis=0))
    if center is None:
        center = pool[0] / float(np.linalg.norm(pool[0]))

    spread = BIHT_REFINE_SPREAD / math.sqrt(A.n)
    starts = [unit_topk(center + spread * rng.standard_normal(A.n))
              for _ in range(BIHT_REFINE_RESTARTS)]
    refined = [center] + unit_consistent(*phase(starts, 2.0, max_iter))
    if len(refined) > 1:
        merged = unit_topk(np.mean(refined, axis=0))
        center = center if merged is None else merged

    best, best_bad = phase([center], 0.5, max_iter // 2)
    final, final_bad = best[0], int(best_bad[0])
    if final_bad > running_best[1]:
        final, final_bad = running_best[0], int(running_best[1])
    x_hat = final / float(np.linalg.norm(final))
    # rescaling can flip the rounding of a product that is zero in exact
    # arithmetic (the FFT apply returns those as +-1e-17), so the returned
    # estimate itself must quantize to s
    converged = final_bad == 0 and bool(
        np.array_equal(_signs(A.matvec(x_hat)), s))
    return RecoveryResult(
        x_hat=x_hat,
        iterations=total_iters,
        converged=converged,
        objective_trace=np.concatenate(trace),
    )
