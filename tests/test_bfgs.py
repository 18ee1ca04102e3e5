"""The BFGS port in ``skewunc.bfgs`` against SciPy 1.17.1's
``scipy.optimize.minimize(method="BFGS")``, the version it was ported from.

Each seeded problem minimizes the basis deficit of one state from one
starting point, once through SciPy and once through the port, and the two
must end on the same bits: ``x``, ``jac``, ``fun``, ``status``, ``nit`` and
``success``, compared with ``np.array_equal`` and ``==``. The set is chosen to
reach both line searches: MINPACK-2's ``dcsrch``, and the fallback that runs
when it fails, which must succeed at least once; and at least one run must
end on status 2 (a failed line search). Both line searches and ``dcstep``
are also compared with SciPy's on random smooth functions and random
inputs, which reach branches that the deficit problems reach rarely.
"""

import warnings
from functools import partial

import numpy as np
import pytest
import scipy

from skewunc import bfgs
from skewunc.correlation import _GRAD_TOL, _MAX_ITERS, DeficitEvaluator, _deficit_and_param_gradient
from skewunc.states import EnsembleSpec, random_density

KINDS = (("full_rank", None), ("fixed_rank", 2), ("pure", None))


def _problems(count: int):
    """(evaluator, x0) for ``count`` seeded problems: d_A cycles through 2, 3
    and 4 (d_B = 2), the kind through full rank, rank 2 and pure, and x0
    alternates between zero and a random draw."""
    rng = np.random.default_rng(123)
    for i in range(count):
        d = (2, 3, 4)[i % 3]
        kind, rank = KINDS[(i // 3) % 3]
        rho = random_density(EnsembleSpec(kind, (d, 2), 9000 + i, rank=rank))
        ev = DeficitEvaluator(rho, (0.7, 0.3, 0.5)[i % 3])
        x0 = np.zeros(d * d) if i % 2 == 0 else rng.standard_normal(d * d) * (np.pi / 2)
        yield ev, x0


def _drive(run, fun):
    """Run a generator from ``bfgs`` to its end, scoring each point it yields
    with ``fun``."""
    try:
        x = next(run)
        while True:
            x = run.send(fun(x))
    except StopIteration as stop:
        return stop.value


def _run_alone(x0, ev) -> bfgs.Result:
    return _drive(bfgs.bfgs(x0, _GRAD_TOL, _MAX_ITERS), partial(_deficit_and_param_gradient, ev=ev))


def _same(got, want) -> bool:
    return (np.array_equal(got.x, want.x) and np.array_equal(got.jac, want.jac)
            and (got.fun, got.status, got.nit, got.success)
            == (want.fun, want.status, want.nit, want.success))


@pytest.mark.skipif(scipy.__version__ != "1.17.1",
                    reason="the port reproduces SciPy 1.17.1's BFGS")
def test_port_has_the_bits_of_scipy_bfgs(monkeypatch):
    from scipy.optimize import minimize

    fallbacks = []
    wolfe2 = bfgs._line_search_wolfe2

    def counted(*args):
        ret = yield from wolfe2(*args)
        fallbacks.append(ret[0] is not None)
        return ret

    monkeypatch.setattr(bfgs, "_line_search_wolfe2", counted)
    statuses = []
    for i, (ev, x0) in enumerate(_problems(60)):
        want = minimize(_deficit_and_param_gradient, x0, args=(ev,), jac=True, method="BFGS",
                        options={"gtol": _GRAD_TOL, "maxiter": _MAX_ITERS})
        got = _run_alone(x0, ev)
        assert _same(got, want), i
        statuses.append(got.status)
    assert any(fallbacks) and 2 in statuses


@pytest.mark.skipif(scipy.__version__ != "1.17.1",
                    reason="the port reproduces SciPy 1.17.1's line searches")
def test_line_searches_have_the_bits_of_scipys():
    # smooth random functions of 1-3 variables reach branches that the
    # deficit problems reach rarely: a step that is not a descent direction,
    # a first trial step of 0 (f equal to the previous value), failed and
    # successful fallbacks
    from scipy.optimize._linesearch import (LineSearchWarning, line_search_wolfe1,
                                            line_search_wolfe2)

    rng = np.random.default_rng(0)
    failed = [0, 0]
    for case in range(400):
        n = 1 + case % 3
        a, b, c = rng.standard_normal((3, n)) * [[1.0], [3.0], [1.0]]
        q = rng.uniform(-0.05, 0.3)

        def f(x):
            return float(np.sum(a * np.cos(b * x + c)) + q * np.dot(x, x))

        def g(x):
            return -a * b * np.sin(b * x + c) + 2 * q * x

        xk = rng.standard_normal(n)
        gfk, fk = g(xk), f(xk)
        pk = -gfk * 10.0 ** rng.uniform(-3, 2) * (-1 if case % 7 == 0 else 1)
        old_old = fk if case % 4 == 0 else fk + rng.standard_normal() * 10.0 ** rng.uniform(-12, 1)
        want = line_search_wolfe1(f, g, xk, pk, gfk, fk, old_old,
                                  c1=1e-4, c2=0.9, amax=1e100, amin=1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LineSearchWarning)
            want2 = line_search_wolfe2(f, g, xk, pk, gfk, fk, old_old, c1=1e-4, c2=0.9, amax=1e100)
        for i, (port, ref) in enumerate(((bfgs._line_search_wolfe1, want),
                                         (bfgs._line_search_wolfe2, want2))):
            got = _drive(port(bfgs._LastPoint(), xk, pk, gfk, fk, old_old), lambda x: (f(x), g(x)))
            assert got[0] == ref[0], (case, i)
            if ref[0] is None:
                failed[i] += 1
                continue
            assert got[1:3] == ref[3:5], (case, i)
            assert (got[3] is None and ref[5] is None) or np.array_equal(got[3], ref[5]), (case, i)
    assert 0 < failed[0] < 400 and 0 < failed[1] < 400


@pytest.mark.skipif(scipy.__version__ != "1.17.1",
                    reason="the port reproduces SciPy 1.17.1's dcstep")
def test_dcstep_has_the_bits_of_minpack2s():
    from scipy.optimize._dcsrch import dcstep

    rng = np.random.default_rng(1)
    for i in range(4000):
        stx, sty, stp = rng.uniform(0, 2, 3).tolist()
        fx, fy, fp, dx, dy, dp = rng.standard_normal(6).tolist()
        args = (stx, fx, dx, sty, fy, dy, stp, fp, dp, bool(i % 2), 0.0,
                stp + 4.0 * abs(stp - stx))
        with np.errstate(invalid="ignore", over="ignore"):
            want, got = dcstep(*args), bfgs._dcstep(*args)
        assert np.array(got, float).tobytes() == np.array(want, float).tobytes(), i


def test_lockstep_runs_have_the_bits_of_lone_runs():
    ev, _ = next(_problems(1))
    rng = np.random.default_rng(5)
    starts = {r: rng.standard_normal(4) for r in range(5)}
    round_ = bfgs.Lockstep(partial(_deficit_and_param_gradient, ev=ev), starts,
                           _GRAD_TOL, _MAX_ITERS)
    for r in (3, 0, 4, 1, 2):   # reading order does not matter
        assert _same(round_.result(r), _run_alone(starts[r], ev)), r
