"""Time-domain integration, Poincare return maps and orbit classification.

Every integration runs on one adaptive Runge-Kutta step loop, driven by
a tableau record, with per-step local error control ``rtol * |state| +
atol`` (so trajectories are deterministic for fixed inputs) and one event
rule for section crossings and stop conditions.  Trajectories
(:func:`integrate`, whose step points the CLI writes out, and the amplitude
orbit of a located cycle) use the Dormand-Prince 5(4) pair.  Section
returns and the unstable-manifold orbits of ``swing.locate_homoclinic`` use
``SHOOTING_METHOD``, the Dormand-Prince 8(5,3) pair (DOP853; Hairer,
Norsett & Wanner, *Solving ODEs I*, II.5, II.6 and II.10): they run at rtol
1e-8 and tighter, where it takes far fewer steps.  Either pair takes the
steps of scipy's ``solve_ivp`` bit for bit, without ``scipy.integrate``.
The Poincare machinery locates periodic orbits, stable or unstable, as
fixed points of the section return map: a scalar root of a two-return
defect along a section ray (both returns off one orbit) brackets the
cycle, and Newton's method on the return map refines it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._roots import _brent
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


#: An embedded explicit Runge-Kutta pair as the step loop runs it: a step
#: takes ``b.size`` stages of nodes ``c`` and coefficients ``a`` and weights
#: ``b``; stage ``b.size`` is the derivative at the new point, and rows of
#: ``a`` past it feed the dense output.  ``error(K, h, scale)`` is a step's
#: scaled error norm from its stage derivatives (the columns of ``K``), of
#: order ``order``; ``dense(fun, t, h, y, y_new, K)`` is the step's
#: interpolant ``y(u)`` for scalar or 1-d ``u``, states in the last axis.
_Pair = collections.namedtuple("_Pair", "c a b error order dense")


_EPS = np.finfo(float).eps


def _norm(x):
    """``np.linalg.norm`` of a 1-d float array, bit for bit, without its
    dispatch: the step loop's error norms and stops call it every step."""
    return math.sqrt(x.dot(x))


def _rms(x):
    return _norm(x) / x.size ** 0.5


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


def _dp54_dense(fun, t, h, y, y_new, K):
    Q = K.T.dot(_DP_P)

    def sol(u):
        x = (np.asarray(u) - t) / h
        p = np.cumprod(np.tile(x, (4,) + (1,) * x.ndim), axis=0)
        return (h * np.dot(Q, p)).T + y

    return sol


_DP54 = _Pair(_DP_C, _DP_A, _DP_B, lambda K, h, s: _rms(np.dot(K, _DP_E) * h / s),
              4, _dp54_dense)


def _sparse(width, rows):
    """The ``len(rows) x width`` array with each row's nonzero entries."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


#: The Dormand-Prince 8(5,3) pair with the coefficients of Hairer's DOP853
#: code (Hairer, Norsett & Wanner, *Solving ODEs I*, II.5, II.6 and II.10),
#: as in scipy's DOP853: the nodes and stage coefficients of the 12 stages,
#: the eighth-order weights (row 12 of ``A``), three extra stages for the
#: seventh-order dense output (rows 13 to 15), the fifth- and third-order
#: error weights, and the dense output's coefficients of the extra powers.
_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
    0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
])
_DOP_A = _sparse(16, [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138},
])
_DOP_B = _DOP_A[12, :12]
_DOP_E5 = _sparse(13, [{
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}])[0]
_DOP_E3 = np.append(_DOP_B, 0.0) - _sparse(13, [{
    0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}])[0]
_DOP_D = _sparse(16, [
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
])


def _dop853_error(K, h, scale):
    """DOP853's error norm ``|h| e5^2 / sqrt((e5^2 + 0.01 e3^2) n)`` from the
    scaled fifth- and third-order estimates.  The squares are of rounded
    norms, as scipy takes them, so that the steps stay equal bit for bit."""
    e5 = _norm(np.dot(K, _DOP_E5) / scale) ** 2
    e3 = _norm(np.dot(K, _DOP_E3) / scale) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def _dop853_dense(fun, t, h, y, y_new, K):
    for s in range(13, 16):
        K[s] = fun(t + _DOP_C[s] * h, y + np.dot(K[:s].T, _DOP_A[s, :s]) * h)
    dy = y_new - y
    F = [dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]), *(h * np.dot(_DOP_D, K))]

    def sol(u):
        x = (np.asarray(u) - t) / h
        x = x[:, None] if x.ndim else x
        out = 0.0
        for i, f in enumerate(reversed(F)):
            out = (out + f) * (x if i % 2 == 0 else 1 - x)
        return out + y

    return sol


_DOP853 = _Pair(_DOP_C, _DOP_A, _DOP_B, _dop853_error, 7, _dop853_dense)

#: The pair of the shooting layers, the section returns here and the
#: unstable-manifold orbits of ``swing.locate_homoclinic``: they run at rtol
#: 1e-8 and tighter, where the eighth-order pair takes far fewer steps.
SHOOTING_METHOD = _DOP853

#: Step-size control (Hairer, Norsett & Wanner, II.4): the new step is
#: ``SAFETY * err**(-1/(order + 1))`` times the last, within [MIN_FACTOR,
#: MAX_FACTOR], and does not grow right after a rejected step.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


def _initial_step(fun, t0, y0, f0, t1, rtol, atol, order):
    """Hairer's starting step (*Solving ODEs I*, II.4) for an error estimate
    of order ``order``: one Euler probe estimates the second derivative."""
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
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, span)


def _steps(pair, rhs, t, y, t1, rtol, atol, stops=()):
    """The accepted steps of the adaptive ``pair`` on ``y' = rhs(t, y)`` from
    ``(t, y)`` to ``t1`` (``inf``: until the consumer stops), each as
    ``(t_new, y_new, sol, fired)``: ``sol()`` builds the step's dense output
    once, and ``fired`` lists ``(time, index)`` of the ``stops`` that fire in
    the step, earliest first.  The one event rule: a stop ``g(y)`` fires when
    ``g <= 0`` at the start of a step and ``>= 0`` at its end; Brent's
    method (:func:`_roots._brent`) locates it on the dense output to 4 eps.
    Steps and crossings equal scipy's ``solve_ivp`` with the same pair and
    events of direction +1.  Raises ValueError at bad tolerances, time span
    or state, and StepSizeUnderflow, with the last accepted time and state,
    when the step falls below 10 ulp of ``t``."""
    y = np.asarray(y, dtype=float)
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("rtol and atol must be positive and finite")
    if not (math.isfinite(t) and t <= t1 and np.isfinite(y).all()):
        raise ValueError("t_span and the state must be finite, t_span increasing")
    if t == t1:
        return

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t1, rtol, atol, pair.order)
    exponent = -1 / (pair.order + 1)
    n = pair.b.size
    K = np.empty((max(n + 1, pair.c.size), y.size))
    stages = [(K[s], K[:s].T, pair.a[s, :s], float(pair.c[s])) for s in range(1, n)]
    K_b, K_e = K[:n].T, K[:n + 1].T
    g = [stop(y) for stop in stops]
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
            for row, K_s, a, c in stages:  # the float row converts as fun does
                row[...] = rhs(t + c * h, y + K_s.dot(a) * h)
            y_new = y + h * K_b.dot(pair.b)
            f_new = fun(t_new, y_new)
            K[n] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = pair.error(K_e, h, scale)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** exponent))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** exponent)
            rejected = True

        dense = None

        def sol():
            nonlocal dense
            dense = dense or pair.dense(fun, t, h, y, y_new, K)
            return dense

        g_new = [stop(y_new) for stop in stops]
        fired = [i for i in range(len(stops)) if g[i] <= 0 <= g_new[i]]
        if fired:
            fired = sorted((_brent(lambda u: stops[i](sol()(u)), t, t_new,
                                   4 * _EPS, 4 * _EPS), i) for i in fired)
        yield t_new, y_new, sol, fired
        t, y, f, g = t_new, y_new, f_new, g_new


def integrate(rhs, x_init, t_span, rtol=RTOL, atol=ATOL, t_eval=None,
              section=None):
    """Adaptive Dormand-Prince 5(4) trajectory of ``x' = rhs(t, x)``.

    The step points are the trajectory unless ``t_eval`` lists the sample
    times; those are read off the step's quartic dense output.  A
    ``section`` logs its positive crossings, found by the step loop's event
    rule, into the trajectory's event log.  Steps, samples and crossings
    equal scipy's ``solve_ivp(method="RK45")`` with ``events`` of direction
    +1.  Raises ValueError and StepSizeUnderflow as :func:`_steps` does, and
    ValueError for an infinite end or a bad ``t_eval``.
    """
    x_init = np.asarray(x_init, dtype=float)
    t0, t1 = map(float, t_span)
    if t1 == math.inf:
        raise ValueError("t_span must be finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or not t_eval.size or np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be 1-d, nonempty and strictly increasing")
        if t_eval[0] < t0 or t_eval[-1] > t1:
            raise ValueError("t_eval must lie within t_span")

    if t_eval is None:
        times, states = [t0], [x_init]
    else:  # a sample at t0 is the initial state
        n_eval = np.searchsorted(t_eval, t0, side="right")
        times, states = [t_eval[:n_eval]], [x_init[None][:n_eval]]
    log = []
    stops = () if section is None else (section.value,)
    for t_new, y_new, sol, fired in _steps(_DP54, rhs, t0, x_init, t1, rtol,
                                           atol, stops):
        log += [SectionCrossing(time=float(te), state=sol()(te), direction=1)
                for te, _ in fired]
        if t_eval is None:
            times.append(t_new)
            states.append(y_new)
        else:
            n_next = np.searchsorted(t_eval, t_new, side="right")
            if n_next > n_eval:
                times.append(t_eval[n_eval:n_next])
                states.append(sol()(t_eval[n_eval:n_next]))
                n_eval = n_next

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


def _shoot(rhs, x, t_max, stops, rtol, atol):
    """``(index, time, state)`` where the ``SHOOTING_METHOD`` orbit of ``x' =
    rhs(t, x)`` from ``x`` at t = 0 ends: at the earliest of ``stops`` to
    fire, or with index None at ``t_max`` or where the step size underflows."""
    t, y = 0.0, x
    with contextlib.suppress(StepSizeUnderflow):
        for t, y, sol, fired in _steps(SHOOTING_METHOD, rhs, 0.0, x, t_max,
                                       rtol, atol, stops):
            if fired:
                t, index = fired[0]
                return index, t, sol()(t)
    return None, t, y


def _crossings(rhs, section, x, rtol, atol, escape_radius=None):
    """The successive positive section crossings ``(time, state)`` of the
    ``SHOOTING_METHOD`` orbit of ``x' = rhs(t, x)`` from ``x`` at t = 0, a
    start on the section not being one (the first step's event from there
    is dropped: a step is far shorter than a return).  The orbit ends
    outside ``escape_radius`` of the section anchor, where the step size
    underflows, or with no crossing within ``T_MAX_PER_RETURN`` of the last."""
    stops = [section.value]
    if escape_radius is not None:
        stops.append(lambda y: _norm(y - section.anchor) - escape_radius)
    on_section = abs(section.value(x)) < 1e-12 * (1 + np.linalg.norm(x))
    t_last = 0.0
    with contextlib.suppress(StepSizeUnderflow):
        for t, _, sol, fired in _steps(SHOOTING_METHOD, rhs, 0.0, x, math.inf,
                                       rtol, atol, stops):
            for te, index in fired:
                if index or te > t_last + T_MAX_PER_RETURN:
                    return
                if not on_section:
                    t_last = te
                    yield te, sol()(te)
            if t > t_last + T_MAX_PER_RETURN:
                return
            on_section = False


def poincare_cycle_search(
    rhs, section, seed_state, rtol=RTOL, atol=ATOL, equilibrium=None
):
    """Locate a periodic orbit of ``x' = rhs(t, x)`` as a fixed point of the
    section return map.

    Step one is a root of the two-return defect along the section ray
    through the seed's first return, ``x_s = anchor + s d``:
    ``g(s) = |P(P(x_s))| - |P(x_s)|``, distances from the section anchor.
    It assumes that the section map contracts transversally within one
    return, so both points lie on the map's attracting curve and ``g``
    changes sign at the cycle, stable or unstable.  On case2 the transverse
    multiplier ``exp(T div f) / rho`` (Liouville's formula, with the
    constant ``div f = -sum omega_s d_i / m_i``) falls from 1.3e-4 at gamma
    = 0.25 to 1.6e-8 at 0.33 and 5e-12 at 0.34.  The root is bracketed by
    steps of ``BRACKET_FACTOR`` outward from ``s = |P(seed)|``, then inward,
    and found by Brent's method.  Each launch amplitude is integrated once:
    P and P^2 are the first two section crossings of one orbit, memoized by
    ``s``, so Brent's first two evaluations, the bracket ends, cost no
    return.  A probe that leaves ``ESCAPE_FACTOR * s`` counts as ``g =
    +inf``; an escaping end of the bracket is bisected until it comes back
    finite, and when it has not within ``RETURN_TOL`` its edge is an escape
    boundary (a saddle's stable manifold, as on case2 at gamma = 0.35), not
    a cycle.  Step two is Newton on ``P(u) - u`` in section coordinates
    with a finite-difference Jacobian until ``|P(x) - x| <= RETURN_TOL``
    (relative to ``1 + |x|``).  An unstable cycle's
    spectral radius ``rho > 1`` of that Jacobian amplifies the integration
    error over one period, so the fixed point is re-polished at ``rtol /
    rho`` and ``atol / rho`` by a chord iteration, which keeps the Newton's
    last Jacobian (the tighter tolerance moves it little) and so costs one
    return per step; it takes at least one step.  ``rho`` also gives the
    stability hint.  Section returns run with ``SHOOTING_METHOD`` (DOP853),
    whose steps stay long at these tolerances.  The amplitude is the largest
    distance from ``equilibrium`` over the step points of one period by
    :func:`integrate`, whose fifth-order steps sample the orbit more finely.

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
    first = next(_crossings(rhs, section, seed, rtol, atol), None)
    if first is None:
        raise CycleNotFound("the seed's orbit does not return to the section")
    s_first = np.linalg.norm(first[1] - section.anchor)
    if s_first < capture_floor:
        raise CycleNotFound("the seed's first return lies on the equilibrium")
    ray = (first[1] - section.anchor) / s_first

    @functools.cache
    def launch(s):
        """``(P(x_s), |P(P(x_s))| - |P(x_s)|)``, both returns off one orbit;
        the defect is +inf when the orbit escapes first."""
        returns = [x for _, x in itertools.islice(_crossings(
            rhs, section, section.anchor + s * ray, rtol, atol,
            escape_radius=ESCAPE_FACTOR * s), 2)]
        if len(returns) < 2:
            return None, np.inf
        r1, r2 = (np.linalg.norm(x - section.anchor) for x in returns)
        return returns[0], r2 - r1

    def defect(s):
        return launch(s)[1]

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
        for t_ret, x_ret in _crossings(rhs, section, section.anchor + basis @ u, *tol):
            return basis.T @ (x_ret - section.anchor), t_ret, x_ret
        raise CycleNotFound("trajectory left the section during refinement")

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
        basis.T @ (launch(root)[0] - section.anchor), (rtol, atol)
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
