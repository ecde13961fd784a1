"""Explicit ODE integration and scalar root finding.

`dop853` integrates y' = f(t, y) from t = 0 by the explicit Runge-Kutta pair
of order 8(5,3) of Dormand and Prince (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., Sec. II.5 and II.10, and their
code DOP853), with its 7th-order dense output and that polynomial's exact
derivative, which residual checks read.  It takes the steps of
scipy.integrate.solve_ivp(method="DOP853") as of SciPy 1.17, the release the
tests compare with: the same initial step selection (Sec. II.4, with the
first step clamped to the interval), step-size controller, combined
3rd/5th-order error norm and "step too small" failure, so states, step times
and evaluation counts agree to the bit.  A SciPy release that selects its
first step differently takes other steps.  SciPy has no counterpart of
norm_size, which keeps the trailing components out of the error norm: a
variational block there rides on its base flow's steps, and is the exact
derivative of that discrete flow.  The coefficients are those of
Hairer's dop853.f in the layout of SciPy's `dop853_coefficients.py`
(BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy
Developers).

`brentq` is Brent's root finder (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4), ported from SciPy's brentq.c so that it
makes the same evaluations and returns the same x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .metric import COMPLEX_STEP

__all__ = ["dop853", "DenseOutput", "OdeResult", "StepFailure", "brentq"]

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
# SciPy's default
BRENTQ_MAXITER = 100

# stage times; stages 13-15 serve the dense output only
C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
])

# the nonzero entries {column: a_ij} of each row of the extended tableau;
# row 12 is the 8th-order solution weights B
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
A = np.zeros((16, 16))
for _i, _row in enumerate(_A_ROWS):
    for _j, _a in _row.items():
        A[_i, _j] = _a
B = A[12, :12]

# error estimators: E5 of order 5 and E3 = B - (3rd-order weights)
E3 = np.zeros(13)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(13)
for _j, _e in {0: 0.1312004499419488073250102996e-1,
               5: -0.1225156446376204440720569753e+1,
               6: -0.4957589496572501915214079952,
               7: 0.1664377182454986536961530415e+1,
               8: -0.3503288487499736816886487290,
               9: 0.3341791187130174790297318841,
               10: 0.8192320648511571246570742613e-1,
               11: -0.2235530786388629525884427845e-1}.items():
    E5[_j] = _e

# the last four of the seven dense-output coefficient rows, over all 16 stages
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)
D = np.zeros((4, 16))
for _i, _row in enumerate(_D_ROWS):
    for _j, _d in _row.items():
        D[_i, _j] = _d

# (stage, c_s, a_s[:s]) of the 11 stages after the first, and of the 3 extra
# dense-output stages
_STAGES = [(s, float(C[s]), A[s, :s]) for s in range(1, 12)]
_EXTRA = [(s, float(C[s]), A[s, :s]) for s in range(13, 16)]


class StepFailure(NumericalError):
    pass


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _sqnorm(x):
    """np.linalg.norm(x) ** 2, by the same operations."""
    return math.sqrt(x.dot(x)) ** 2


def _initial_step(fun, y0, f0, t_end, rtol, atol, k):
    """Hairer, Norsett & Wanner, Sec. II.4: a first step from the sizes of
    the leading k components of y0, f0 and a difference estimate of f';
    costs one evaluation."""
    scale = atol + np.abs(y0[:k]) * rtol
    d0, d1 = _rms(y0[:k] / scale), _rms(f0[:k] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(h0, y0 + h0 * f0)
    d2 = _rms((f1[:k] - f0[:k]) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, t_end)


def _weights(x):
    """The weights of the 7 dense-output rows F_k at the step fraction x (a
    float or an array): x, x u, x^2 u, x^2 u^2, x^3 u^2, x^3 u^3, x^4 u^3
    with u = 1 - x, the nested form of Hairer's CONTD8 multiplied out."""
    u = 1 - x
    w1 = x
    w2 = w1 * u
    w3 = w2 * x
    w4 = w3 * u
    w5 = w4 * x
    w6 = w5 * u
    return w1, w2, w3, w4, w5, w6, w6 * x


class DenseOutput:
    """The DOP853 7th-order interpolant of every accepted step, stored
    stacked: y(t) = y_old + sum_k w_k(x) F_k on the step that holds t, with
    x = (t - t_old) / h the fraction of that step.  A time on a step boundary
    reads the earlier step, and times outside the steps the first or last
    one.  Each step keeps its own h, so a step cut short at an event root
    still reads its full step's interpolant.  At one time y(t) has shape
    (N,); at an array of times (N, len(t)), each column equal to the
    one-time value.  derivative(t) reads y'(t) in the same shapes."""

    def __init__(self, t_old, h, y_old, F):
        self._t_old, self._h = np.array(t_old), np.array(h)
        self._y_old = y_old  # (steps, N)
        self._F = F  # (steps, 7, N)

    def __call__(self, t):
        """y(t); one time is read as a stack of one."""
        y = self._stacked(np.atleast_1d(t), 0)
        return y.reshape(y.shape[:1] + np.shape(t))

    def derivative(self, t):
        """y'(t) as Im y(t + i c) / c at c = COMPLEX_STEP: the complex step of
        the weights w_k, polynomials in x, so exact to rounding.  One time is
        read as a stack of one, whose complex products round as a stack's."""
        y = self._stacked(np.atleast_1d(t), 1j * COMPLEX_STEP).imag / COMPLEX_STEP
        return y.reshape(y.shape[:1] + np.shape(t))

    def _stacked(self, t, shift):
        """y(t + shift) at an array of real times t."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self._t_old, t) - 1, 0, len(self._h) - 1)
        w = np.stack(_weights((t - self._t_old[i] + shift) / self._h[i]), axis=-1)
        return ((w[:, None, :] @ self._F[i])[:, 0, :] + self._y_old[i]).T


@dataclass
class OdeResult:
    """ts: accepted step times from 0; ys: the states there, one row each;
    nfev: right-hand-side evaluations; sol: the DenseOutput when asked for.
    When an event stopped the integration, event is its index and ts[-1] its
    time; else event is None."""

    ts: np.ndarray
    ys: np.ndarray
    nfev: int
    sol: DenseOutput | None = None
    event: int | None = None


def dop853(fun, y0, t_end, *, rtol, atol, dense=False, events=(), norm_size=None):
    """Integrate y' = fun(t, y) over [0, t_end] from the real y0.

    The error norm and the initial step read the leading norm_size
    components of y (all of them when None); the others ride along.  The
    integration stops at the first root of any event function g(t, y) that
    changes sign (or reaches zero) over a step, found by brentq on the
    step's dense output.  Raises StepFailure when the step size falls below
    ten float spacings of t, and TypeError on a y0 that is not real."""
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    y = np.asarray(y0)
    if not np.can_cast(y.dtype, float):
        raise TypeError(f"y0 must be real, got dtype {y.dtype}")
    y = y.astype(float)
    k = y.size if norm_size is None else norm_size
    rtol = max(rtol, 100 * EPS)
    t = 0.0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_end, rtol, atol, k)
    nfev = 2
    K = np.empty((16, y.size))
    KT = [K[:s].T for s in range(16)]
    KE = KT[13][:k]
    ts, ys = [t], [y]
    steps = t_olds, hs, y_olds, Fs = [], [], [], []
    g = [event(t, y) for event in events]

    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure(
                    f"step size below {min_step:.3g} at t = {t:.6g}: required "
                    "step size is less than spacing between numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, c, a in _STAGES:
                K[s] = fun(t + c * h, y + np.dot(KT[s], a) * h)
            y_new = y + h * np.dot(KT[12], B)
            f_new = K[12] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y[:k]), np.abs(y_new[:k])) * rtol
            n5 = _sqnorm(np.dot(KE, E5) / scale)
            n3 = _sqnorm(np.dot(KE, E3) / scale)
            if n5 == 0 and n3 == 0:
                err = 0.0
            else:
                err = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * k)
            if err < 1:
                factor = (MAX_FACTOR if err == 0 else
                          min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, f_new
        if dense or events:
            g_new = [event(t, y) for event in events]
            active = [k for k, (a, b) in enumerate(zip(g, g_new))
                      if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
            g = g_new
            if dense or active:
                for s, c, a in _EXTRA:
                    K[s] = fun(t_old + c * h, y_old + np.dot(KT[s], a) * h)
                nfev += 3
                F = np.empty((7, y.size))
                F[0] = y - y_old
                F[1] = h * f_old - F[0]
                F[2] = 2 * F[0] - h * (f + f_old)
                F[3:] = h * np.dot(D, K)
                t_olds.append(t_old)
                hs.append(h)
                y_olds.append(y_old)
                Fs.append(F)
            if active:
                seg = DenseOutput([t_old], [h], y_old[None], F[None])
                roots = [brentq(lambda s, ev=events[k]: ev(s, seg(s)), t_old, t,
                                xtol=4 * EPS) for k in active]
                first = min(range(len(active)), key=roots.__getitem__)
                ts.append(roots[first])
                ys.append(seg(roots[first]))
                return _result(ts, ys, nfev, dense, steps, active[first])
        ts.append(t)
        ys.append(y)
        if t >= t_end:
            return _result(ts, ys, nfev, dense, steps, None)


def _result(ts, ys, nfev, dense, steps, event):
    t_old, h, y_old, F = steps
    sol = DenseOutput(t_old, h, np.array(y_old), np.array(F)) if dense else None
    return OdeResult(np.array(ts), np.array(ys), nfev, sol, event)


def brentq(f, a, b, *, xtol=2e-12):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4 eps |x| (Brent 1973, ch. 4; SciPy's brentq.c with its default
    rtol), in at most BRENTQ_MAXITER iterations."""
    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise ValueError(f"the function value at x={x} is NaN")
        return v

    xpre, xcur = float(a), float(b)
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations, "
                       f"value is {xcur}")
