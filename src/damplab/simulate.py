"""Time-domain integration, Poincare return maps and orbit classification.

Every integration uses per-step local error control ``rtol * |state| +
atol``, so trajectories are deterministic for fixed inputs.  Trajectories
(:func:`integrate`, whose step points the CLI writes out, and the amplitude
orbit of a located cycle) use the Dormand-Prince 4(5) pair, scipy's RK45.
Section returns use ``SHOOTING_METHOD``, the Dormand-Prince 8(5,3) pair
(scipy's DOP853; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5 and
II.10): the return map runs at rtol 1e-8 and tighter, where an eighth-order
pair takes far fewer steps, and on a small system scipy's per-step overhead
costs as much as the right-hand side.  The Poincare machinery locates
periodic orbits, stable or unstable, as fixed points of the section return
map: a scalar root of a two-return defect along a section ray brackets the
cycle, and Newton's method on the return map refines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CycleNotFound, NonTransversal, StepSizeUnderflow

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


def integrate(rhs, x_init, t_span, rtol=RTOL, atol=ATOL, t_eval=None,
              section=None):
    """Adaptive Dormand-Prince 4(5) trajectory of ``x' = rhs(t, x)``.

    Raises StepSizeUnderflow (with the last good state attached) when the
    integrator stalls; a ``section`` may be supplied to log its positive
    crossings into the trajectory's event log.
    """
    x_init = np.asarray(x_init, dtype=float)
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    if not np.all(np.isfinite(x_init)):
        raise ValueError("initial state must be finite")
    t0, t1 = t_span
    if t1 == t0:
        return TrajectoryRecord(times=np.array([t0]), states=x_init[None, :])

    events = None
    if section is not None:
        def crossing(t, y):
            return section.value(y)

        crossing.terminal = False
        crossing.direction = 1
        events = [crossing]

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs, (t0, t1), x_init, method="RK45", rtol=rtol, atol=atol,
        t_eval=t_eval, events=events, dense_output=False,
    )
    if not sol.success:
        raise StepSizeUnderflow(
            f"integration failed: {sol.message}",
            last_time=sol.t[-1] if sol.t.size else t0,
            last_state=sol.y[:, -1] if sol.t.size else x_init,
        )
    log = ()
    if events is not None and sol.t_events[0].size:
        log = tuple(
            SectionCrossing(time=float(te), state=ye, direction=1)
            for te, ye in zip(sol.t_events[0], sol.y_events[0])
        )
    return TrajectoryRecord(times=sol.t, states=sol.y.T, event_log=log)


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
    and found by ``brentq``.  A probe that leaves ``ESCAPE_FACTOR * s``
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
    period integrated by :func:`integrate`; it stays RK45, because
    DOP853's fewer, longer steps would sample the orbit more coarsely.

    Raises NonTransversal when the flow is tangent to the section at the
    seed, and CycleNotFound when the defect keeps its sign, at an escape
    boundary and when Newton fails.  CycleNotFound is no proof that no
    cycle exists: at gamma = 0.3425, below the homoclinic end gamma_h =
    0.34258 of the case2 branch, the launch amplitudes that neither spiral
    in nor escape are too few for the bracket, and it is raised.
    """
    from scipy.optimize import brentq

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
    # brentq returns a point at which it evaluated the defect.
    root = brentq(defect, s_a, s_b, rtol=RETURN_TOL)

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
