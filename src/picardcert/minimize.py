"""Bounded scalar minimisation without derivatives.

One routine serves the radius search of the `K-conditions` certificate and
the frequency refinement of the split diagnostic: Brent's golden-section
search with parabolic steps on a closed interval (R. P. Brent, *Algorithms
for Minimization without Derivatives*, 1973, ch. 5), step for step as
scipy.optimize.minimize_scalar(method="bounded", options={"xatol": 1e-12})
takes it, so that both return the same x and f(x) bit for bit.
"""

from __future__ import annotations

import math

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-12   # absolute tolerance in x
_MAXFUN = 500    # most evaluations of f


def bounded_minimum(f, lo: float, hi: float):
    """(x, f(x)) at the least value of f found on [lo, hi]: a local minimum
    to within _XATOL plus a relative 1.5e-8 in x, or the best of _MAXFUN
    evaluations of f, which takes a float and returns a float."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bounds must be finite with lo <= hi, got [{lo}, {hi}]")
    a, b = lo, hi
    # x: least value so far, w: second least, v: the previous w
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    num = 1
    step = e = 0.0  # this step, and the one before the last
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through (x, fx), (w, fw), (v, fv)
            golden = False
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, step
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                step = (p + 0.0) / q
                u = x + step
                if u - a < tol2 or b - u < tol2:
                    step = tol1 if xm >= x else -tol1
            else:
                golden = True
        if golden:
            e = (a if x >= xm else b) - x
            step = _GOLDEN * e
        u = x + math.copysign(max(abs(step), tol1), step)
        fu = f(u)
        num += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return x, fx
