"""Time-domain integration, Poincare return maps and orbit classification.

Integration uses the adaptive Dormand-Prince 4(5) pair (scipy's RK45) with
per-step local error control ``rtol * |state| + atol`` so trajectories are
deterministic for fixed inputs.  The Poincare machinery locates periodic
orbits as fixed points of the section return map; unstable cycles, which
plain iteration cannot reach, are approached by bisecting the launch
amplitude toward the basin boundary before a Newton refinement on the
return map.
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

#: Cycle search: return-map iterations before falling back to amplitude
#: bisection, the Newton polish's fixed-point tolerance on ``|P(x) - x|``
#: (relative to ``1 + |x|``), the time horizon of one return, and the
#: returns per bisection probe.
MAX_RETURNS = 60
RETURN_TOL = 1e-8
T_MAX_PER_RETURN = 200.0
N_PROBE = 7

#: Orbit classification: per-period envelope drift below which an orbit is
#: near periodic, and the oscillation peaks that drift needs.
DRIFT_TOL = 0.01
MIN_PEAKS = 3


def _as_rhs(system):
    if callable(system):
        return system
    if hasattr(system, "rhs"):
        return system.rhs
    raise TypeError("system must be callable(t, x) or expose .rhs")


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


def integrate(system, x_init, t_span, rtol=RTOL, atol=ATOL, t_eval=None,
              section=None):
    """Adaptive Dormand-Prince 4(5) trajectory of ``x' = f(t, x)``.

    Raises StepSizeUnderflow (with the last good state attached) when the
    integrator stalls; a ``section`` may be supplied to log its positive
    crossings into the trajectory's event log.
    """
    rhs = _as_rhs(system)
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
    period: float
    anchor_state: np.ndarray
    return_error: float
    stability_hint: str
    amplitude: Optional[float] = None


def _next_crossing(rhs, section, x_start, rtol, atol, t_max, escape_radius=None):
    """First positive-direction section crossing after leaving x_start.

    ``escape_radius`` installs a terminal guard on the distance from the
    section anchor, so runaway orbits report "no crossing" quickly instead
    of integrating out the whole horizon.
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
        warm = solve_ivp(rhs, (0, dt), x, method="RK45", rtol=rtol, atol=atol)
        if not warm.success:
            return None
        x = warm.y[:, -1]
        t_accum = dt
    sol = solve_ivp(
        rhs, (0, t_max), x, method="RK45", rtol=rtol, atol=atol,
        events=events,
    )
    if not sol.success or not sol.t_events[0].size:
        return None
    if escape_radius is not None and sol.t_events[1].size:
        return None
    return t_accum + float(sol.t_events[0][0]), sol.y_events[0][0]


def _bisect_onto_cycle(rhs, section, basis, seed, capture_floor,
                       rtol, atol, t_max):
    """Seed point near an unstable cycle by amplitude bisection on a section ray.

    Launch points ``anchor + s * ray`` are classified by whether the
    return-map radius sequence contracts toward the equilibrium or escapes;
    the boundary between the regimes is the cycle's stable manifold.  Probe
    quality is measured by the relative return-map step ``|P(x)-x| / radius``
    (small only while shadowing the cycle, not while spiraling into the
    equilibrium); the best crossing seen is returned as the Newton seed.
    """
    probe_rtol, probe_atol = max(rtol, 1e-7), max(atol, 1e-9)
    first = _next_crossing(rhs, section, seed, probe_rtol, probe_atol, t_max)
    if first is None:
        return None
    u0 = basis.T @ (first[1] - section.anchor)
    radius = np.linalg.norm(u0)
    if radius < 1e-12:
        return None
    direction = u0 / radius

    best = {"state": None, "relstep": np.inf}

    def probe(s, escape):
        x = section.anchor + basis @ (s * direction)
        prev = x
        first_radius = None
        last_radius = None
        for _ in range(N_PROBE):
            nxt = _next_crossing(
                rhs, section, prev, probe_rtol, probe_atol, t_max,
                escape_radius=escape,
            )
            if nxt is None:
                return "out"
            _, x_new = nxt
            r_new = np.linalg.norm(basis.T @ (x_new - section.anchor))
            relstep = np.linalg.norm(x_new - prev) / max(r_new, 1e-300)
            if r_new > capture_floor and relstep < best["relstep"]:
                best["relstep"] = relstep
                best["state"] = x_new
            if first_radius is None:
                first_radius = r_new
            last_radius = r_new
            if r_new < capture_floor:
                return "in"
            prev = x_new
        ratio = last_radius / max(first_radius, 1e-300)
        if ratio < 0.98:
            return "in"
        if ratio > 1.02:
            return "out"
        return "near"

    escape = 40.0 * radius
    verdict = probe(radius, escape)
    if verdict == "near":
        return best["state"]
    s_in = radius if verdict == "in" else None
    s_out = radius if verdict == "out" else None
    scale = radius
    for _ in range(40):
        if s_in is not None and s_out is not None:
            break
        scale = scale * (1.6 if s_out is None else 0.6)
        escape = max(escape, 40.0 * scale)
        verdict = probe(scale, escape)
        if verdict == "near":
            return best["state"]
        if verdict == "in":
            s_in = scale if s_in is None else max(s_in, scale)
        elif s_out is None or scale < s_out:
            s_out = scale
    if s_in is None or s_out is None:
        return None

    for _ in range(30):
        mid = 0.5 * (s_in + s_out)
        verdict = probe(mid, escape)
        if verdict == "near" or best["relstep"] < 1e-4:
            return best["state"]
        if verdict == "in":
            s_in = mid
        else:
            s_out = mid
        if abs(s_out - s_in) < 1e-9 * max(1.0, s_out):
            break
    return best["state"]


def poincare_cycle_search(
    system, section, seed_state, rtol=RTOL, atol=ATOL, equilibrium=None
):
    """Locate a periodic orbit as a fixed point of the section return map.

    Iterates the return map from ``seed_state``.  When plain iteration
    cannot settle (an unstable cycle repels it toward the equilibrium or to
    infinity), the launch amplitude along a section ray is bisected between
    the captured and the escaping regimes; the boundary is the cycle's
    stable manifold, so probes there shadow the cycle.  The candidate is
    then polished by Newton iteration on the return map in section
    coordinates until ``|P(x) - x| <= RETURN_TOL`` (relative to
    ``1 + |anchor|``); seeds whose first two crossings are already nearly
    fixed skip straight to the polish.  A neighbouring cycle's anchor is
    not such a seed in general, so continuation is not cheap: on case2 the
    gamma = 0.25 anchor seeded at gamma = 0.27 falls through to the amplitude
    bisection and costs 119,893 RHS evaluations, against about 59,500 from a
    0.01 mode kick.  The stability hint is the sign of the
    radial expansion of the forward map at the fixed point; the amplitude is
    the largest distance from ``equilibrium`` over one period.

    Raises NonTransversal when the flow is tangent to the section at the
    seed, CycleNotFound when iteration and refinement exhaust.
    """
    rhs = _as_rhs(system)
    seed = np.asarray(seed_state, dtype=float)
    f_seed = np.asarray(rhs(0.0, seed))
    f_norm = np.linalg.norm(f_seed)
    if f_norm <= 1e-12 * (1 + np.linalg.norm(seed)):
        raise CycleNotFound("flow vanishes at the seed state")
    if abs(section.value(seed)) < 1e-9 and abs(
        section.normal @ f_seed
    ) <= 1e-9 * f_norm:
        raise NonTransversal("flow is tangent to the section at the seed")

    # Coarse tolerance for the map iteration; the Newton polish below owns
    # the final accuracy.  A fixed point closer to the section anchor than
    # the capture floor is the equilibrium itself, not a cycle.
    coarse_tol = 1e-3
    capture_floor = 1e-3 * (1.0 + np.linalg.norm(section.anchor))

    def iterate_map(rhs_dir, start):
        """Iterate the return map; report (verdict, last iterate).

        Verdicts: "cycle" (converged away from the anchor), "captured"
        (spiraled into the equilibrium on the section), "diverging", or
        "exhausted".
        """
        x = start
        best = None
        prev_step = None
        growing = 0
        for _ in range(MAX_RETURNS):
            nxt = _next_crossing(rhs_dir, section, x, rtol, atol, T_MAX_PER_RETURN)
            if nxt is None:
                return "exhausted", best
            _, x_new = nxt
            step = np.linalg.norm(x_new - x)
            best = x_new
            radius = np.linalg.norm(x_new - section.anchor)
            if radius < capture_floor:
                return "captured", x_new
            # Convergence is judged relative to the orbit radius: a slow
            # spiral into the equilibrium keeps step/radius roughly constant
            # while a true cycle approach drives it to zero.
            if step <= coarse_tol * radius:
                return "cycle", x_new
            if prev_step is not None and step > prev_step:
                growing += 1
                if growing >= 3:
                    return "diverging", x_new
            else:
                growing = 0
            prev_step = step
            x = x_new
        return "exhausted", best

    basis = section.basis()

    def return_map(u):
        x = section.anchor + basis @ u
        nxt = _next_crossing(rhs, section, x, rtol, atol, T_MAX_PER_RETURN)
        if nxt is None:
            raise CycleNotFound("trajectory left the section during refinement")
        t_ret, x_ret = nxt
        return basis.T @ (x_ret - section.anchor), t_ret, x_ret

    def polish(anchor):
        """Newton on P(u) - u = 0 in section coordinates from ``anchor``."""
        u = basis.T @ (anchor - section.anchor)
        err = np.inf
        for _ in range(30):
            pu, period, x_fixed = return_map(u)
            res = pu - u
            err = np.linalg.norm(res)
            if err <= RETURN_TOL * (1 + np.linalg.norm(x_fixed)):
                if np.linalg.norm(x_fixed - section.anchor) < capture_floor:
                    raise CycleNotFound("refinement collapsed onto the equilibrium")
                return u, period, float(err)
            m = u.size
            jac = np.zeros((m, m))
            h = 1e-6 * (1.0 + np.linalg.norm(u))
            for i in range(m):
                e = np.zeros(m)
                e[i] = h
                pu_p, _, _ = return_map(u + e)
                jac[:, i] = (pu_p - pu) / h
            try:
                du = np.linalg.solve(jac - np.eye(m), -res)
            except np.linalg.LinAlgError:
                raise CycleNotFound("singular return-map Newton system")
            u = u + du
        raise CycleNotFound(f"Newton refinement stalled at |P(x)-x| = {err:.2e}")

    solved = None

    # A seed already near the cycle (e.g. continued from a neighbouring
    # parameter value) can go straight to the Newton polish.
    first = _next_crossing(rhs, section, seed, rtol, atol, T_MAX_PER_RETURN)
    if first is not None:
        x1 = first[1]
        r1 = np.linalg.norm(x1 - section.anchor)
        second = _next_crossing(rhs, section, x1, rtol, atol, T_MAX_PER_RETURN)
        if second is not None and r1 > capture_floor:
            relstep = np.linalg.norm(second[1] - x1) / max(r1, 1e-300)
            if relstep < 0.5:
                try:
                    solved = polish(x1)
                except CycleNotFound:
                    solved = None

    if solved is None:
        verdict, anchor = iterate_map(rhs, seed)
        if verdict != "cycle":
            # Unstable cycle: it is a saddle of the return map, so plain
            # iteration leaves it in either time direction.  Its stable
            # manifold is the basin boundary of the equilibrium, so
            # bisecting the launch amplitude along a section ray between a
            # captured and an escaping orbit lands arbitrarily close to it.
            anchor = _bisect_onto_cycle(
                rhs, section, basis, seed, capture_floor,
                rtol, atol, T_MAX_PER_RETURN,
            )
            if anchor is None:
                raise CycleNotFound(
                    f"return map did not converge within {MAX_RETURNS} returns"
                )
        solved = polish(anchor)

    u, period, err = solved
    x_star = section.anchor + basis @ u
    pu, period, x_ret = return_map(u)
    err = float(np.linalg.norm(pu - u))

    # Radial expansion of the forward map decides the stability hint.
    if equilibrium is not None:
        radial = x_star - np.asarray(equilibrium, dtype=float)
        radial = basis.T @ radial
        if np.linalg.norm(radial) < 1e-12:
            radial = None
    else:
        radial = None
    if radial is None:
        radial = np.ones(u.size)
    radial = radial / np.linalg.norm(radial)
    delta = 1e-4 * (1.0 + np.linalg.norm(u))
    pu_pert, _, _ = return_map(u + delta * radial)
    growth = np.linalg.norm(pu_pert - pu) / delta
    hint = EXPANDING if growth > 1.0 else CONTRACTING

    amplitude = None
    if equilibrium is not None and period is not None:
        orbit = integrate(rhs, x_star, (0.0, period), rtol=rtol, atol=atol)
        dist = np.linalg.norm(
            orbit.states - np.asarray(equilibrium, dtype=float)[None, :], axis=1
        )
        amplitude = float(dist.max())

    return LimitCycleEstimate(
        period=float(period),
        anchor_state=x_star,
        return_error=err,
        stability_hint=hint,
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
