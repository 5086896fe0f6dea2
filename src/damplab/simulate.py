"""Time-domain integration, Poincare return maps and orbit classification.

Every integration uses per-step local error control ``rtol * |state| +
atol``, so trajectories are deterministic for fixed inputs.  Trajectories
(:func:`integrate`, whose step points the CLI writes out, and the amplitude
orbit of a located cycle) use damplab's own loop over the Dormand-Prince
5(4) pair, which takes the steps of scipy's RK45 bit for bit without
importing ``scipy.integrate`` (whose import costs a fresh ``simulate`` run
more than its integration does).  Section returns use ``SHOOTING_METHOD``,
the Dormand-Prince 8(5,3) pair (scipy's DOP853; Hairer, Norsett & Wanner,
*Solving ODEs I*, II.5 and II.10): the return map runs at rtol 1e-8 and
tighter, where an eighth-order pair takes far fewer steps, and on a small
system scipy's per-step overhead costs as much as the right-hand side.  The
Poincare machinery locates periodic orbits, stable or unstable, as fixed
points of the section return map: a scalar root of a two-return defect
along a section ray brackets the cycle, and Newton's method on the return
map refines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CycleNotFound, NoConvergence, NonTransversal, StepSizeUnderflow

__all__ = [
    "CONTRACTING",
    "EXPANDING",
    "NEAR_PERIODIC",
    "SPIRAL_IN",
    "SPIRAL_OUT",
    "UNDETERMINED",
    "LimitCycleEstimate",
    "PoincareSection",
    "SectionCrossing",
    "TrajectoryRecord",
    "classify_orbit",
    "hopf_section",
    "integrate",
    "poincare_cycle_search",
]

SPIRAL_IN = "spiral_in"
SPIRAL_OUT = "spiral_out"
NEAR_PERIODIC = "near_periodic"
UNDETERMINED = "undetermined"

CONTRACTING = "contracting_section"
EXPANDING = "expanding_section"

#: Integrator defaults.
RTOL = 1e-8
ATOL = 1e-10

#: scipy ``solve_ivp`` method of the shooting layers: the section returns
#: here and the unstable-manifold orbits of ``swing.locate_homoclinic``.
SHOOTING_METHOD = "DOP853"

#: Cycle search: the Newton polish's fixed-point tolerance on ``|P(x) - x|``
#: (relative to ``1 + |x|``), the time horizon of one return, the ratio of
#: successive launch amplitudes while bracketing the two-return defect's
#: root, and the distance from the section anchor, in launch amplitudes,
#: beyond which a probe has escaped.
RETURN_TOL = 1e-8
T_MAX_PER_RETURN = 200.0
BRACKET_FACTOR = 1.6
ESCAPE_FACTOR = 10.0

#: Orbit classification: per-period envelope drift below which an orbit is
#: near periodic, and the oscillation peaks that drift needs.
DRIFT_TOL = 0.01
MIN_PEAKS = 3


@dataclass(frozen=True)
class SectionCrossing:
    time: float
    state: np.ndarray
    direction: int


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time-stamped state samples with optional section-crossing events."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    event_log: tuple = ()

    def __post_init__(self):
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final_state(self):
        return self.states[-1]


@dataclass(frozen=True)
class PoincareSection:
    """Hyperplane ``normal . (x - anchor) = 0`` with unit normal."""

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float)
        norm = np.linalg.norm(normal)
        if norm == 0:
            raise ValueError("section normal must be nonzero")
        object.__setattr__(self, "normal", normal / norm)
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))

    def value(self, x):
        return float(self.normal @ (np.asarray(x) - self.anchor))

    def basis(self):
        """Orthonormal basis of the section (the normal's complement)."""
        n = self.normal.size
        q, _ = np.linalg.qr(
            np.column_stack([self.normal, np.eye(n)[:, : n - 1]])
        )
        return q[:, 1:]


def hopf_section(equilibrium, right_eigenvector):
    """Default cycle-hunting section: through the equilibrium, normal along
    the imaginary part of the Hopf right eigenvector (transversal to the
    emerging cycle near the bifurcation)."""
    normal = np.imag(np.asarray(right_eigenvector, dtype=complex))
    if np.linalg.norm(normal) == 0:
        normal = np.real(np.asarray(right_eigenvector, dtype=complex))
    return PoincareSection(normal=normal, anchor=np.asarray(equilibrium, float))


#: The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
#: 1980; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5): nodes, stage
#: weights, fifth-order weights, the error weights (fifth minus fourth order,
#: the seventh stage being the FSAL derivative at the new point) and the
#: quartic dense output with Shampine's choice of c_6, all as in scipy's
#: RK45, so the two take the same steps bit for bit.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_DP_STAGES = [(s, _DP_A[s, :s], float(_DP_C[s])) for s in range(1, 6)]

#: Step-size control (Hairer, Norsett & Wanner, II.4): the new step is
#: ``SAFETY * err**(-1/5)`` times the last, within [MIN_FACTOR, MAX_FACTOR],
#: and does not grow right after a rejected step.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5

_EPS = np.finfo(float).eps


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t1, rtol, atol):
    """Hairer's starting step (*Solving ODEs I*, II.4): one Euler probe
    estimates the second derivative; error order 4."""
    span = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dense(t_old, h, y_old, K):
    """The step's quartic interpolant ``y(t_old + x h)``, for scalar or
    1-d ``t``; states in the last axis."""
    Q = K.T.dot(_DP_P)

    def sol(t):
        x = (np.asarray(t) - t_old) / h
        p = np.cumprod(np.tile(x, (4,) + (1,) * x.ndim), axis=0)
        return (h * np.dot(Q, p)).T + y_old

    return sol


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


def integrate(rhs, x_init, t_span, rtol=RTOL, atol=ATOL, t_eval=None,
              section=None):
    """Adaptive Dormand-Prince 5(4) trajectory of ``x' = rhs(t, x)``.

    The step points are the trajectory unless ``t_eval`` lists the sample
    times; those are read off the step's quartic dense output.  A
    ``section`` logs its positive crossings into the trajectory's event log:
    a step whose end points bracket one (``value <= 0`` then ``>= 0``) has
    it located on the dense output by Brent's method to 4 eps.  Steps,
    samples and crossings equal scipy's ``solve_ivp(method="RK45")`` with
    ``events`` of direction +1.  Raises StepSizeUnderflow, with the last
    accepted time and state, when the step falls below 10 ulp of ``t``.
    """
    x_init = np.asarray(x_init, dtype=float)
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    if not np.all(np.isfinite(x_init)):
        raise ValueError("initial state must be finite")
    t0, t1 = map(float, t_span)
    if t1 == t0:
        return TrajectoryRecord(times=np.array([t0]), states=x_init[None, :])
    if t1 < t0:
        raise ValueError("t_span must be increasing")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or not t_eval.size or np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be 1-d, nonempty and strictly increasing")
        if t_eval[0] < t0 or t_eval[-1] > t1:
            raise ValueError("t_eval must lie within t_span")

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    t, y = t0, x_init
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t1, rtol, atol)
    K = np.empty((7, y.size))
    stages = [(s, K[:s].T, a, c) for s, a, c in _DP_STAGES]
    K_b, K_e = K[:-1].T, K.T
    times, states = ([t], [y]) if t_eval is None else ([], [])
    n_eval = 0
    log = []
    g = None if section is None else section.value(y)
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    "integration failed: Required step size is less than "
                    "spacing between numbers.", last_time=t, last_state=y,
                )
            t_new = min(t + h_abs, t1)
            h_abs = h = t_new - t
            K[0] = f
            for s, K_s, a, c in stages:
                K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K_b, _DP_B)
            f_new = fun(t_new, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K_e, _DP_E) * h / scale)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** _ERROR_EXPONENT)
            rejected = True

        sol = None
        if section is not None:
            g_new = section.value(y_new)
            if g <= 0 <= g_new:
                sol = _dense(t, h, y, K)
                te = _brent(lambda u: section.value(sol(u)), t, t_new,
                            4 * _EPS, 4 * _EPS)
                log.append(SectionCrossing(time=float(te), state=sol(te),
                                           direction=1))
            g = g_new
        if t_eval is None:
            times.append(t_new)
            states.append(y_new)
        else:
            n_next = np.searchsorted(t_eval, t_new, side="right")
            if n_next > n_eval:
                sol = sol or _dense(t, h, y, K)
                times.append(t_eval[n_eval:n_next])
                states.append(sol(t_eval[n_eval:n_next]))
                n_eval = n_next
        t, y, f = t_new, y_new, f_new

    join = np.array if t_eval is None else np.concatenate
    return TrajectoryRecord(times=join(times), states=join(states),
                            event_log=tuple(log))


@dataclass(frozen=True)
class LimitCycleEstimate:
    """A located cycle: return time, section point, ``|P(x) - x|`` there,
    ``EXPANDING`` iff the return-map Jacobian's spectral radius exceeds 1,
    and the largest distance from the equilibrium over one period."""

    period: float
    anchor_state: np.ndarray
    return_error: float
    stability_hint: str
    amplitude: Optional[float] = None


def _next_crossing(rhs, section, x_start, rtol, atol, t_max, escape_radius=None):
    """First positive-direction section crossing after leaving x_start.

    Both legs, the step off the section and the run to the crossing,
    integrate with ``SHOOTING_METHOD``; the crossing is the root of the
    section function on that method's dense output.  ``escape_radius``
    installs a terminal guard on the distance from the section anchor, so
    runaway orbits report "no crossing" quickly instead of integrating out
    the whole horizon.
    """

    def event(t, y):
        return section.value(y)

    event.terminal = True
    event.direction = 1
    events = [event]

    if escape_radius is not None:
        def escape(t, y):
            return np.linalg.norm(y - section.anchor) - escape_radius

        escape.terminal = True
        escape.direction = 1
        events.append(escape)

    from scipy.integrate import solve_ivp

    # If the start point sits on the section, step off it first.
    f0 = np.asarray(rhs(0.0, x_start))
    speed = np.linalg.norm(f0)
    if speed == 0:
        return None
    x = x_start
    t_accum = 0.0
    if abs(section.value(x_start)) < 1e-12 * (1 + np.linalg.norm(x_start)):
        dt = 1e-3 / max(speed, 1e-6)
        warm = solve_ivp(rhs, (0, dt), x, method=SHOOTING_METHOD, rtol=rtol,
                         atol=atol)
        if not warm.success:
            return None
        x = warm.y[:, -1]
        t_accum = dt
    sol = solve_ivp(
        rhs, (0, t_max), x, method=SHOOTING_METHOD, rtol=rtol, atol=atol,
        events=events,
    )
    if not sol.success or not sol.t_events[0].size:
        return None
    if escape_radius is not None and sol.t_events[1].size:
        return None
    return t_accum + float(sol.t_events[0][0]), sol.y_events[0][0]


def poincare_cycle_search(
    rhs, section, seed_state, rtol=RTOL, atol=ATOL, equilibrium=None
):
    """Locate a periodic orbit of ``x' = rhs(t, x)`` as a fixed point of the
    section return map.

    Step one is a root of the two-return defect along the section ray
    through the seed's first return, ``x_s = anchor + s d``:
    ``g(s) = |P(P(x_s))| - |P(x_s)|``, distances from the section anchor.
    It assumes that the section map contracts transversally within one
    return (case2's transverse multipliers are 2e-5 to 0.24 on gamma =
    0.25..0.34), so both points lie on the map's attracting curve and ``g``
    changes sign at the cycle, stable or unstable.  The root is bracketed by
    steps of ``BRACKET_FACTOR`` outward from ``s = |P(seed)|``, then inward,
    and found by Brent's method.  A probe that leaves ``ESCAPE_FACTOR * s``
    counts as ``g = +inf``; an escaping end of the bracket is bisected until
    it comes back finite, and when it has not within ``RETURN_TOL`` its edge
    is an escape boundary (a saddle's stable manifold, as on case2 at
    gamma = 0.35), not a cycle.  Step two is Newton on ``P(u) - u`` in
    section coordinates with a finite-difference Jacobian until ``|P(x) -
    x| <= RETURN_TOL`` (relative to ``1 + |x|``).  An unstable cycle's
    spectral radius ``rho > 1`` of that Jacobian amplifies the integration
    error over one period, so the fixed point is re-polished at ``rtol /
    rho`` and ``atol / rho`` by a chord iteration, which keeps the Newton's
    last Jacobian (the tighter tolerance moves it little) and so costs one
    return per step; it takes at least one step.  ``rho`` also gives the
    stability hint.  Section returns integrate with ``SHOOTING_METHOD``
    (DOP853), whose steps stay long at these tolerances.  The amplitude is
    the largest distance from ``equilibrium`` over the step points of one
    period integrated by :func:`integrate`; it stays on that fifth-order
    pair, because DOP853's fewer, longer steps would sample the orbit more
    coarsely.

    Raises NonTransversal when the flow is tangent to the section at the
    seed, and CycleNotFound when the defect keeps its sign, at an escape
    boundary and when Newton fails.  CycleNotFound is no proof that no
    cycle exists: at gamma = 0.3425, below the homoclinic end gamma_h =
    0.34258 of the case2 branch, the launch amplitudes that neither spiral
    in nor escape are too few for the bracket, and it is raised.
    """
    seed = np.asarray(seed_state, dtype=float)
    f_seed = np.asarray(rhs(0.0, seed))
    f_norm = np.linalg.norm(f_seed)
    if f_norm <= 1e-12 * (1 + np.linalg.norm(seed)):
        raise CycleNotFound("flow vanishes at the seed state")
    if abs(section.value(seed)) < 1e-9 and abs(
        section.normal @ f_seed
    ) <= 1e-9 * f_norm:
        raise NonTransversal("flow is tangent to the section at the seed")

    # A fixed point closer to the section anchor than the capture floor is
    # the equilibrium itself, not a cycle.
    capture_floor = 1e-3 * (1.0 + np.linalg.norm(section.anchor))
    first = _next_crossing(rhs, section, seed, rtol, atol, T_MAX_PER_RETURN)
    if first is None:
        raise CycleNotFound("the seed's orbit does not return to the section")
    s_first = np.linalg.norm(first[1] - section.anchor)
    if s_first < capture_floor:
        raise CycleNotFound("the seed's first return lies on the equilibrium")
    ray = (first[1] - section.anchor) / s_first
    first_returns = {}

    def defect(s):
        """|P(P(x_s))| - |P(x_s)|, or +inf when the orbit escapes."""
        x = section.anchor + s * ray
        radii = []
        for _ in range(2):
            nxt = _next_crossing(rhs, section, x, rtol, atol, T_MAX_PER_RETURN,
                                 escape_radius=ESCAPE_FACTOR * s)
            if nxt is None:
                return np.inf
            x = nxt[1]
            first_returns.setdefault(s, x)
            radii.append(np.linalg.norm(x - section.anchor))
        return radii[1] - radii[0]

    def bracket():
        """Two launch amplitudes at which the defect has opposite signs.  The
        outward walk spans 1.6**20, about 1e4; the inward one ends at the
        capture floor."""
        g_first = defect(s_first)
        for factor in (BRACKET_FACTOR, 1.0 / BRACKET_FACTOR):
            s, g = s_first, g_first
            for _ in range(20):
                s_next = s * factor
                if s_next < capture_floor:
                    break
                g_next = defect(s_next)
                if (g > 0) != (g_next > 0):
                    return (s, g), (s_next, g_next)
                if factor > 1.0 and g_next == np.inf:
                    break
                s, g = s_next, g_next
        raise CycleNotFound("the two-return defect does not change sign")

    (s_a, _), (s_b, g_b) = sorted(bracket(), key=lambda p: p[1] == np.inf)
    # Move an escaping end toward the other until it comes back finite.
    while g_b == np.inf:
        if abs(s_b - s_a) <= RETURN_TOL * s_b:
            raise CycleNotFound(
                f"escape boundary at launch amplitude {s_b:.9g}: orbits beyond "
                "it escape, orbits inside it spiral in"
            )
        s_mid = 0.5 * (s_a + s_b)
        g_mid = defect(s_mid)
        if g_mid > 0:
            s_b, g_b = s_mid, g_mid
        else:
            s_a = s_mid
    # Brent's method returns a point at which it evaluated the defect.
    root = _brent(defect, s_a, s_b, 2e-12, RETURN_TOL)

    basis = section.basis()
    m = basis.shape[1]

    def return_map(u, tol):
        x = section.anchor + basis @ u
        nxt = _next_crossing(rhs, section, x, *tol, T_MAX_PER_RETURN)
        if nxt is None:
            raise CycleNotFound("trajectory left the section during refinement")
        t_ret, x_ret = nxt
        return basis.T @ (x_ret - section.anchor), t_ret, x_ret

    def newton(u, tol, chord=None):
        """Newton on P(u) - u = 0 in section coordinates from ``u`` until
        ``|P(x) - x| <= RETURN_TOL``, after at least one step (so a re-run at
        a tighter tolerance moves ``u``); returns the last Jacobian too.
        Given a ``chord`` Jacobian, every step reuses it instead of a new
        finite difference: one return per step instead of ``1 + m``."""
        jac = chord
        err = np.inf
        for k in range(30):
            pu, period, x_ret = return_map(u, tol)
            err = np.linalg.norm(pu - u)
            if k and err <= RETURN_TOL * (1 + np.linalg.norm(x_ret)):
                if np.linalg.norm(x_ret - section.anchor) < capture_floor:
                    raise CycleNotFound("refinement collapsed onto the equilibrium")
                return u, period, float(err), jac
            if chord is None:
                h = 1e-6 * (1.0 + np.linalg.norm(u))
                jac = np.column_stack(
                    [(return_map(u + h * e, tol)[0] - pu) / h for e in np.eye(m)]
                )
            try:
                u = u + np.linalg.solve(jac - np.eye(m), u - pu)
            except np.linalg.LinAlgError:
                raise CycleNotFound("singular return-map Newton system")
        raise CycleNotFound(f"Newton refinement stalled at |P(x)-x| = {err:.2e}")

    u, period, err, jac = newton(
        basis.T @ (first_returns[root] - section.anchor), (rtol, atol)
    )
    rho = float(np.abs(np.linalg.eigvals(jac)).max())
    if rho > 1.0:
        u, period, err, _ = newton(u, (rtol / rho, atol / rho), chord=jac)
    x_star = section.anchor + basis @ u

    amplitude = None
    if equilibrium is not None:
        orbit = integrate(rhs, x_star, (0.0, period), rtol=rtol, atol=atol)
        dist = np.linalg.norm(
            orbit.states - np.asarray(equilibrium, dtype=float)[None, :], axis=1
        )
        amplitude = float(dist.max())

    return LimitCycleEstimate(
        period=float(period),
        anchor_state=x_star,
        return_error=err,
        stability_hint=EXPANDING if rho > 1.0 else CONTRACTING,
        amplitude=amplitude,
    )


def classify_orbit(traj, equilibrium):
    """Spiral-in / spiral-out / near-periodic verdict from the radius envelope.

    The distance-to-equilibrium envelope is sampled once per oscillation, at
    the peak times of the most active state component (the radius itself can
    be exactly monotone or constant for energy-like norms, so its own local
    maxima are unreliable).  The median per-period drift of that envelope
    decides: within ``DRIFT_TOL`` (1 percent) of 1 the orbit is near
    periodic.  Without enough oscillations a monotone radius trend is used,
    and anything still ambiguous is undetermined.
    """
    eq = np.asarray(equilibrium, dtype=float)
    offsets = traj.states - eq[None, :]
    r = np.linalg.norm(offsets, axis=1)
    t = traj.times
    if t.size < 8:
        return UNDETERMINED
    tu = np.linspace(t[0], t[-1], max(512, 8 * t.size))
    ru = np.interp(tu, t, r)

    comp = int(np.argmax(offsets.std(axis=0)))
    su = np.interp(tu, t, offsets[:, comp])
    floor = 1e-3 * max(np.abs(su).max(), 1e-300)
    peaks = [
        i
        for i in range(1, tu.size - 1)
        if su[i] > floor and su[i] >= su[i - 1] and su[i] > su[i + 1]
    ]
    if len(peaks) >= MIN_PEAKS:
        heights = ru[peaks]
        ratios = heights[1:] / np.maximum(heights[:-1], 1e-300)
        drift = float(np.median(ratios)) - 1.0
        if abs(drift) < DRIFT_TOL:
            return NEAR_PERIODIC
        return SPIRAL_IN if drift < 0 else SPIRAL_OUT

    # No usable oscillation: fall back to the gross radius trend.
    head = ru[: tu.size // 4].mean()
    tail = ru[-tu.size // 4 :].mean()
    if head > 1e-300 and tail < 0.5 * head:
        return SPIRAL_IN
    if head > 1e-300 and tail > 2.0 * head:
        return SPIRAL_OUT
    return UNDETERMINED
