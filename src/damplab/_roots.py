"""Scalar root finding shared by the sweep refinement and the step loop.

A leaf module (numpy and ``errors`` only), so that ``hopf`` and
``simulate`` each load it without loading the other.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence


def _brent(f, a, b, xtol, rtol):
    """Root of ``f`` in the bracket ``[a, b]`` by Brent's method (inverse
    quadratic interpolation, secant and bisection), to ``xtol + rtol |x|``;
    the steps of scipy's ``brentq``, at most 100 of them."""
    x_pre, x_cur = a, b
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0:
        return x_pre
    if f_cur == 0:
        return x_cur
    if np.signbit(f_pre) == np.signbit(f_cur):
        raise ValueError("f(a) and f(b) must have different signs")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(100):
        if f_pre != 0 and f_cur != 0 and np.signbit(f_pre) != np.signbit(f_cur):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = f(x_cur)
    raise NoConvergence("Brent's method did not converge in 100 steps",
                        best=x_cur, residual=f_cur)
