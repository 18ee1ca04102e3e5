"""BFGS as a generator, and a driver that advances several runs in lockstep.

A port of SciPy 1.17.1's ``_minimize_bfgs`` (``jac=True``, ``c1=1e-4``,
``c2=0.9``, ``xrtol=0``), of its ``line_search_wolfe1`` with MINPACK-2's
``dcsrch`` and ``dcstep`` (J. J. More & D. J. Thuente, ACM TOMS 20, 286,
1994), and of the fallback ``line_search_wolfe2``. A run does SciPy's float
and numpy operations in SciPy's order, so it ends on SciPy's bits, but it
yields each point it wants scored and takes ``(f, g)`` back: ``Lockstep``
scores the pending points of many runs in one call of a stacked objective.
Checks of arguments that are constants here, and the warnings that SciPy's
BFGS suppresses, are left out. SciPy is Copyright (c) 2001-2002 Enthought,
Inc. and 2003-2025 SciPy Developers, under the BSD 3-Clause license.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# the Armijo and curvature constants, and the relative x tolerance
_C1 = 1e-4
_C2 = 0.9
_XRTOL = 0
# dcsrch's step bounds and relative interval tolerance, as BFGS sets them
_AMIN = 1e-100
_AMAX = 1e100
_XTOL = 1e-14


class Result(NamedTuple):
    """The end of a run, named as SciPy's ``OptimizeResult``: status 0 is
    success, 1 the iteration cap, 2 a failed line search or a non-finite
    value, 3 a NaN."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    status: int
    nit: int
    success: bool


class _LastPoint:
    """The last point scored, with its value and gradient, as SciPy's
    ``ScalarFunction`` over ``MemoizeJac`` keeps it: f and then g at one
    point cost one evaluation."""

    x = None

    def __call__(self, x):
        if self.x is None or not (x == self.x).all():
            self.f, self.g = yield x
            self.x = x
        return self.f, self.g


class _Line:
    """The objective along xk + s pk; ``g`` is the gradient last scored."""

    def __init__(self, score, xk, pk, g):
        self.score, self.xk, self.pk, self.g = score, xk, pk, g

    def phi(self, s):
        return (yield from self.score(self.xk + s * self.pk))[0]

    def derphi(self, s):
        self.g = (yield from self.score(self.xk + s * self.pk))[1]
        return np.dot(self.g, self.pk)


def _norm2(x):
    """SciPy's ``vecnorm(x)``, whose bits ``np.linalg.norm`` need not share."""
    return np.sum(np.abs(x)**2, axis=0)**(1.0 / 2)


def bfgs(x0: np.ndarray, gtol: float, maxiter: int):
    """Minimize from ``x0`` until the largest gradient component is at most
    ``gtol`` or ``maxiter`` iterations have run. A generator: it yields each
    point to score, takes ``(f, g)`` back through ``send`` and returns a
    ``Result``."""
    score = _LastPoint()
    x0 = np.asarray(x0).flatten()
    old_fval, gfk = yield from score(x0)
    k = 0
    I = np.eye(len(x0), dtype=int)
    Hk = I
    # sets the initial step guess to dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2
    xk = x0
    warnflag = 0
    gnorm = np.amax(np.abs(gfk))
    while (gnorm > gtol) and (k < maxiter):
        pk = -np.dot(Hk, gfk)
        ret = yield from _line_search_wolfe1(score, xk, pk, gfk, old_fval, old_old_fval)
        if ret[0] is None:
            ret = yield from _line_search_wolfe2(score, xk, pk, gfk, old_fval, old_old_fval)
        if ret[0] is None:
            warnflag = 2
            break
        alpha_k, old_fval, old_old_fval, gfkp1 = ret
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = (yield from score(xk))[1]
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        if (gnorm <= gtol):
            break
        if (alpha_k*_norm2(pk) <= _XRTOL*(_XRTOL + _norm2(xk))):
            break
        if not np.isfinite(old_fval):
            warnflag = 2
            break
        rhok_inv = np.dot(yk, sk)
        rhok = 1000.0 if rhok_inv == 0. else 1. / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    if warnflag != 2:
        if k >= maxiter:
            warnflag = 1
        elif np.isnan(gnorm) or np.isnan(old_fval) or np.isnan(xk).any():
            warnflag = 3
    return Result(x=xk, fun=old_fval, jac=gfk, status=warnflag, nit=k, success=warnflag == 0)


def _initial_step(phi0, old_phi0, derphi0):
    """The first trial step of either line search."""
    alpha1 = 1.0
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01*2*(phi0 - old_phi0)/derphi0)
    return 1.0 if alpha1 < 0 else alpha1


# --- MINPACK-2's line search ------------------------------------------------------

def _line_search_wolfe1(score, xk, pk, gfk, old_fval, old_old_fval):
    """The step (None on failure), the value there and at 0, and the
    gradient there."""
    line = _Line(score, xk, pk, gfk)
    derphi0 = np.dot(gfk, pk)
    stp, fval = yield from _dcsrch(line, _initial_step(old_fval, old_old_fval, derphi0),
                                   old_fval, derphi0)
    return stp, fval, old_fval, line.g


def _dcsrch(line, stp, finit, ginit, maxiter=100):
    """MINPACK-2's ``dcsrch`` from the trial step ``stp``, with ftol = c1 and
    gtol = c2: a step satisfying the sufficient decrease and curvature
    conditions and the value there, or None once it cannot find one."""
    if stp < _AMIN or stp > _AMAX or ginit >= 0:
        return None, None
    xtrapl, xtrapu = 1.1, 4.0
    brackt = False
    stage = 1
    gtest = _C1 * ginit
    width = _AMAX - _AMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + xtrapu * stp
    for i in range(maxiter):
        if i > 0:
            ftest = finit + stp * gtest
            if stage == 1 and f <= ftest and g >= 0:
                stage = 2
            if f <= ftest and abs(g) <= _C2 * -ginit:
                return stp, f
            if (brackt and (stp <= stmin or stp >= stmax)
                    or brackt and stmax - stmin <= _XTOL * stmax
                    or stp == _AMAX and f <= ftest and g <= gtest
                    or stp == _AMIN and (f > ftest or g >= gtest)):
                return None, None
            if stage == 1 and f <= fx and f > ftest:
                # step on the modified function f(s) - f(0) - ftol s f'(0)
                fm, fxm, fym = f - stp * gtest, fx - stx * gtest, fy - sty * gtest
                gm, gxm, gym = g - gtest, gx - gtest, gy - gtest
                with np.errstate(invalid="ignore", over="ignore"):
                    stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                        stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax)
                fx, fy = fxm + stx * gtest, fym + sty * gtest
                gx, gy = gxm + gtest, gym + gtest
            else:
                with np.errstate(invalid="ignore", over="ignore"):
                    stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                        stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
            # force a sufficient decrease in the size of the interval
            if brackt:
                if abs(sty - stx) >= 0.66 * width1:
                    stp = stx + 0.5 * (sty - stx)
                width1, width = width, abs(sty - stx)
                stmin, stmax = min(stx, sty), max(stx, sty)
            else:
                stmin, stmax = stp + xtrapl * (stp - stx), stp + xtrapu * (stp - stx)
            stp = np.clip(stp, _AMIN, _AMAX)
            # without further progress, take the best step found
            if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
                stp = stx
        if not np.isfinite(stp):
            return None, None
        f = yield from line.phi(stp)
        g = yield from line.derphi(stp)
    return None, None


def _cubic_root(num, dist, d1, d2, clamp=False):
    """theta and the unsigned gamma of ``dcstep``'s cubic step."""
    theta = 3.0 * num / dist + d1 + d2
    s = max(abs(theta), abs(d1), abs(d2))
    radicand = (theta / s) ** 2 - (d1 / s) * (d2 / s)
    return theta, s * np.sqrt(max(0, radicand) if clamp else radicand)


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's ``dcstep``: a safeguarded step, and the update of the
    interval [stx, sty] that brackets a step satisfying both conditions."""
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:
        # a higher function value: the minimum is bracketed
        theta, gamma = _cubic_root(fx - fp, stp - stx, dx, dp)
        if stp < stx:
            gamma *= -1
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # derivatives of opposite sign: the minimum is bracketed
        theta, gamma = _cubic_root(fx - fp, stp - stx, dx, dp)
        if stp > stx:
            gamma *= -1
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, and the derivative's magnitude decreases
        theta, gamma = _cubic_root(fx - fp, stp - stx, dx, dp, clamp=True)
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            stpf = (min if stp > stx else max)(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    elif brackt:
        # same sign, the derivative's magnitude does not decrease, bracketed
        theta, gamma = _cubic_root(fp - fy, sty - stp, dy, dp)
        if stp > sty:
            gamma = -gamma
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin
    # update the interval that contains a minimizer
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


# --- the fallback: a strong-Wolfe search with zoom --------------------------------

def _line_search_wolfe2(score, xk, pk, gfk, old_fval, old_old_fval, maxiter=10):
    """``line_search_wolfe2`` with amax = 1e100 and no extra condition,
    returning as ``_line_search_wolfe1`` does; the gradient is None when
    the step is not known to satisfy both conditions."""
    line = _Line(score, xk, pk, None)
    derphi0 = np.dot(gfk, pk)
    phi0 = old_fval
    alpha0 = 0
    alpha1 = min(_initial_step(phi0, old_old_fval, derphi0), _AMAX)
    phi_a1 = yield from line.phi(alpha1)
    phi_a0 = phi0
    derphi_a0 = derphi0
    for i in range(maxiter):
        if alpha1 == 0 or alpha0 > _AMAX:
            return None, phi0, old_old_fval, None
        if (phi_a1 > phi0 + _C1 * alpha1 * derphi0) or ((phi_a1 >= phi_a0) and i > 0):
            alpha_star, phi_star, derphi_star = yield from _zoom(
                alpha0, alpha1, phi_a0, phi_a1, derphi_a0, line, phi0, derphi0)
            break
        derphi_a1 = yield from line.derphi(alpha1)
        if (abs(derphi_a1) <= -_C2*derphi0):
            alpha_star, phi_star, derphi_star = alpha1, phi_a1, derphi_a1
            break
        if (derphi_a1 >= 0):
            alpha_star, phi_star, derphi_star = yield from _zoom(
                alpha1, alpha0, phi_a1, phi_a0, derphi_a1, line, phi0, derphi0)
            break
        alpha0, alpha1 = alpha1, min(2 * alpha1, _AMAX)
        phi_a0, derphi_a0 = phi_a1, derphi_a1
        phi_a1 = yield from line.phi(alpha1)
    else:
        alpha_star, phi_star, derphi_star = alpha1, phi_a1, None
    return alpha_star, phi_star, phi0, None if derphi_star is None else line.g


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb) and (c, fc) with
    derivative fpa at a, or None."""
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc ** 2, -db ** 2], [-dc ** 3, db ** 3]])
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db,
                                            fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa) and (b, fb) with
    derivative fpa at a, or None."""
    with np.errstate(divide='raise', over='raise', invalid='raise'):
        try:
            db = b - a * 1.0
            B = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * B)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, line, phi0, derphi0, maxiter=10):
    """Nocedal & Wright's Algorithm 3.6: shrink [a_lo, a_hi] by cubic, then
    quadratic interpolation, then bisection."""
    delta1 = 0.2  # cubic interpolant check
    delta2 = 0.1  # quadratic interpolant check
    phi_rec = phi0
    a_rec = 0
    for i in range(maxiter + 1):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if (i > 0):
            cchk = delta1 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = delta2 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b-qchk) or (a_j < a+qchk):
                a_j = a_lo + 0.5*dalpha
        phi_aj = yield from line.phi(a_j)
        if (phi_aj > phi0 + _C1*a_j*derphi0) or (phi_aj >= phi_lo):
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_j, phi_aj
            continue
        derphi_aj = yield from line.derphi(a_j)
        if abs(derphi_aj) <= -_C2*derphi0:
            return a_j, phi_aj, derphi_aj
        if derphi_aj*(a_hi - a_lo) >= 0:
            phi_rec, a_rec, a_hi, phi_hi = phi_hi, a_hi, a_lo, phi_lo
        else:
            phi_rec, a_rec = phi_lo, a_lo
        a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
    return None, None, None


class Lockstep:
    """BFGS runs from several starting points, advanced together: each step
    scores the pending point of every unfinished run in one call of
    ``fun``, which maps a (k, n) stack of points to k values and k
    gradients. ``starts`` maps a key to each run's x0."""

    def __init__(self, fun, starts: dict, gtol: float, maxiter: int):
        self._fun = fun
        self._runs = {key: bfgs(x0, gtol, maxiter) for key, x0 in starts.items()}
        self._pending = {key: next(run) for key, run in self._runs.items()}
        self._done: dict = {}

    def result(self, key) -> Result:
        """The result of run ``key``, stepping every unfinished run until
        that one has ended."""
        while key not in self._done:
            keys = list(self._pending)
            values, grads = self._fun(np.stack([self._pending[k] for k in keys]))
            for k, f, g in zip(keys, values.tolist(), grads):
                try:
                    self._pending[k] = self._runs[k].send((f, g))
                except StopIteration as stop:
                    del self._pending[k]
                    self._done[k] = stop.value
        return self._done[key]
