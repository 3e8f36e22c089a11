"""The two benchmark workloads and the parts they are made of.

Each workload is a closed loop with one caller in one process.  It builds
its inputs from the benchmark seed in `__init__` and warms up in
`warm_up` (together: set-up); `prepare` then builds what only the checks
need, untimed, and `cycle(k, rec)` runs its k-th fixed unit of work
(0 <= k < CYCLES), timing every operation through the Recorder and
checking its output outside the timed call.  Cycle k does the same
operations on the same inputs every time it runs, so an operation's
repeated latencies can be compared.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import checks
from checks import FAILED, OK

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


class Recorder:
    """Start, latency and check status of every operation, in order.

    With a Speedometer, it takes a reading of the sandbox's speed before
    an operation when the last one is old enough (see speed.py).
    """

    def __init__(self, tracer=None, speedometer=None):
        self.starts = []
        self.latencies = []
        self.kinds = []
        self.statuses = []
        self.failures = []
        self.tracer = tracer
        self.speedometer = speedometer

    def tick(self):
        if self.speedometer is not None:
            self.speedometer.tick()

    def call(self, kind, fn):
        """Time fn() as one operation; returns (output, exception)."""
        if self.tracer is not None:
            self.tracer.op_id = len(self.latencies)
        self.tick()
        start = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # noqa: BLE001 - a crashed op is a failure
            out, err = None, exc
        self.latencies.append(time.perf_counter() - start)
        self.starts.append(start)
        self.kinds.append(kind)
        return out, err

    def add(self, kind, start, latency, status, detail=""):
        self.starts.append(start)
        self.latencies.append(latency)
        self.kinds.append(kind)
        self.settle(status, detail)

    def settle(self, status, detail=""):
        """Record the check status of the latest operation."""
        self.statuses.append(status)
        if status == FAILED and len(self.failures) < 5:
            self.failures.append(f"{self.kinds[-1]}: {detail}".strip())

    def scaled(self) -> list:
        """Latencies at the reference speed (see speed.py)."""
        self.speedometer.tick(force=True)
        return [self.speedometer.scale(start, lat)
                for start, lat in zip(self.starts, self.latencies)]

    @contextlib.contextmanager
    def untraced(self):
        """Keep check work that calls okubo out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _derived_seed(seed: int, *tags) -> int:
    return _rng(seed, *tags).randrange(1, 10 ** 6)


def _error_text(err) -> str:
    return f"{type(err).__name__}: {err}" if err is not None else ""


# --------------------------------------------------------------------------
# seeded inputs shared by several workloads
# --------------------------------------------------------------------------

#: exponent magnitudes of the series systems; fixed heights keep the cost
#: of the exact recurrences steady from seed to seed
SERIES_FAMILY = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                 Fraction(1, 11))


def _family_exponents(rng) -> list:
    values = list(SERIES_FAMILY)
    rng.shuffle(values)
    return [v * rng.choice((1, -1)) for v in values]


def special_system(rng):
    """The special accessory system for seeded exponents from the family."""
    from okubo import accessory
    from okubo.errors import OkuboError
    while True:
        try:
            return accessory.solve_accessory(*_family_exponents(rng))[1]
        except OkuboError:
            continue


def product_system(rng):
    """The Okubo form of a hypergeometric product whose exponents
    (a, b, c, d) are seeded from the family."""
    from okubo import accessory, hgsystem
    from okubo.errors import OkuboError
    while True:
        a, b, c, d = _family_exponents(rng)
        p = hgsystem.HGParams.okubo((a - b + c + d) / 2, (a + b + c - d) / 2,
                                    (a - b - c - d) / 2, (a + b - c + d) / 2)
        try:
            system = hgsystem.build_okubo_system(p)[1]
            accessory.require_admissible(system.a, system.b, system.c,
                                         system.d)
            return system
        except OkuboError:
            continue


def _small(rng, num=5, den=7) -> Fraction:
    from okubo import sampling
    return sampling.rand_fraction(rng, max_num=num, max_den=den)


def _gamma_ok(g) -> bool:
    return not (g.denominator == 1 and g <= 0)


def draw_w_params(rng):
    from okubo import hgsystem
    while True:
        p = hgsystem.HGParams.generic(*(_small(rng) for _ in range(6)))
        if _gamma_ok(p.gamma1) and _gamma_ok(p.gamma2):
            return p


def draw_v_params(rng):
    """Okubo parameters from the series family, in seeded order and
    signs: `v_via_transform` rebuilds the system exactly on every call,
    and fixed heights keep that cost steady from seed to seed."""
    from okubo import hgsystem
    from okubo.errors import OkuboError
    while True:
        p = hgsystem.HGParams.okubo(*_family_exponents(rng))
        if not _gamma_ok(p.gamma1):
            continue
        if (hgsystem.det_gauge_formula(p) == 0
                or hgsystem.det_diagonalizer_formula(p) == 0):
            continue
        try:
            hgsystem.build_okubo_system(p)
        except OkuboError:
            continue
        return p


def draw_df_params(rng):
    """(a, b, c, g) with g > 0, a+c+g/2+1 > 0 and the eigenvector matrix
    defined (2a+g and 2a+2b+g nonzero)."""
    from okubo import dotsenko_fateev as df
    while True:
        a, b, c = (_small(rng, 3, 7) for _ in range(3))
        g = abs(_small(rng, 3, 7))
        if a + c + g / 2 + 1 > 0 and 2 * a + g != 0 and 2 * a + 2 * b + g != 0:
            return df.DFParams(a, b, c, g)


def unit_disc_point(rng, rmin=0.0, rmax=1.0) -> complex:
    """A point with |x| uniform in [rmin, rmax), off the cut (-inf, 0]."""
    while True:
        x = rng.uniform(rmin, rmax) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        if x != 0 and not (x.imag == 0 and x.real <= 0):
            return x


def series_point(rng, base: str, finite=(0.1, 0.55), infinite=(1.8, 3.0),
                 max_angle=2.4) -> complex:
    """A sample inside the disc of a local series (verify 2c's ranges)."""
    lo, hi = infinite if base == "inf" else finite
    u = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-max_angle,
                                                         max_angle))
    return u if base == "0" else 1 + u


def series_requests(system) -> list:
    """(base, exponent index) for every local solution family."""
    from okubo import series
    return [(base, index) for base in ("0", "1", "inf")
            for index in range(len(series.exponents_at(system, base)))]


class Workload:
    CYCLES = 1

    def prepare(self):
        """Untimed work after set-up that only the checks need."""


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

class Certify(Workload):
    """verify_all on seed 7 (cycle 0), whose report bytes are checked as
    well, and on a seed derived from the benchmark seed (cycle 1); an
    operation is one criterion."""

    CYCLES = 2

    def __init__(self, seed: int):
        from okubo import verify
        self.verify = verify
        self.seeds = (7, _derived_seed(seed, "certify"))
        digest_file = Path(__file__).resolve().parent / "seed7_report.sha256"
        self.digest7 = digest_file.read_text(encoding="utf-8").split()[0]

    def warm_up(self):
        # run_criterion reports a failed criterion instead of raising
        self.verify.run_criterion("warm-up",
                                  self.verify.check_product_vector_residual,
                                  self.seeds[1])

    def cycle(self, k: int, rec: Recorder):
        seed = self.seeds[k]
        starts = []
        run_criterion = self.verify.run_criterion

        def timed(*args, **kwargs):
            rec.tick()
            starts.append(time.perf_counter())
            return run_criterion(*args, **kwargs)

        # verify_all looks run_criterion up in its module on every call
        self.verify.run_criterion = timed
        try:
            report, times = self.verify.verify_all(seed)
        finally:
            self.verify.run_criterion = run_criterion
        statuses = checks.check_certify(report, seed, self.digest7)
        for crit, start, status in zip(report["criteria"], starts, statuses):
            rec.add(crit["name"], start, times[crit["name"]], status,
                    f"seed {seed}: {crit['detail']}")


# --------------------------------------------------------------------------
# series-numeric, exact part: deep local series
# --------------------------------------------------------------------------

class SeriesDeep(Workload):
    """Exact and float local series at 80 and 400 terms, at 0, 1 and
    infinity, for every exponent index of one special and one product
    system.  An operation is one exponent index at one base: its four
    local_series calls (exact and float, 80 and 400 terms)."""

    TERMS = (80, 400)

    def __init__(self, seed: int):
        from okubo import series
        self.series = series
        self.seed = seed
        rng = _rng(seed, "series-deep")
        self.systems = (special_system(rng), product_system(rng))

    def warm_up(self):
        system = self.systems[0]
        self.series.local_series(system, "1", 1, 8, "exact")
        self.series.local_series(system, "1", 1, 8, "float")

    def _build(self, system, base, index) -> list:
        return [(self.series.local_series(system, base, index, terms,
                                          "exact"),
                 self.series.local_series(system, base, index, terms,
                                          "float"))
                for terms in self.TERMS]

    def _check(self, system, base, index, built, points) -> str:
        shorter = None
        for exact, floats in built:
            status = checks.check_exact_series(system, exact, base, index,
                                               shorter)
            if status != OK:
                return status
            residuals = [self.series.residual_report(
                system, sol, [series_point(points, base) for _ in range(5)]
            ).max_residual for sol in floats]
            status = checks.check_float_series(floats, exact, residuals)
            if status != OK:
                return status
            shorter = exact
        return OK

    def cycle(self, k: int, rec: Recorder):
        points = _rng(self.seed, "series-deep-points")
        for system in self.systems:
            for base, index in series_requests(system):
                built, err = rec.call(
                    f"{base}/{index}",
                    lambda: self._build(system, base, index))
                if err is not None:
                    rec.settle(FAILED, _error_text(err))
                    continue
                with rec.untraced():
                    rec.settle(self._check(system, base, index, built,
                                           points))


# --------------------------------------------------------------------------
# series-numeric, float part: evaluation requests
# --------------------------------------------------------------------------

def _mp(q):
    import mpmath
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def mp_hyp2f1(alpha, beta, gamma, x: complex) -> complex:
    import mpmath
    return complex(mpmath.hyp2f1(_mp(alpha), _mp(beta), _mp(gamma),
                                 mpmath.mpc(x.real, x.imag)))


def mp_product_vector_w(p, x: complex, terms: int = 60) -> tuple:
    """(w, bound on the error of the ``terms``-term float w, truncation
    and rounding, relative to max |w|) with
    w = (f1 f2, x f1' f2, x f1 f2', x^2 f1' f2') from mpmath."""
    jets, bounds = [], []
    for a, b, g in ((p.alpha1, p.beta1, p.gamma1),
                    (p.alpha2, p.beta2, p.gamma2)):
        jets.append((mp_hyp2f1(a, b, g, x), complex(a * b / g)
                     * mp_hyp2f1(a + 1, b + 1, g + 1, x)))
        bounds.append(tuple(
            checks.gauss_tail_bound(a, b, g, x, terms, derivative)
            + checks.gauss_rounding_bound(a, b, g, x, terms, derivative)
            for derivative in (0, 1)))
    (f1, d1), (f2, d2) = jets
    w = [f1 * f2, x * d1 * f2, x * f1 * d2, x * x * d1 * d2]
    return w, checks.w_tail_bound(jets, bounds, x)


class NumericEval(Workload):
    """A stream of float evaluation requests; an operation is one request.

    A cycle makes 20 requests of each kind, shuffled: `hyp2f1`; w with
    its residual (verify 2a); v by both paths (2b); a float local series
    with residuals at five points (2c: one per base and exponent index of
    the two series systems, which is 20 in all); a Dotsenko-Fateev
    integral solution (2d).  Equal counts keep each kind's share of the
    stream fixed, so that the median request falls inside one kind (v)
    rather than on the edge between two.  Every hyp2f1, w and df request
    draws fresh parameters; v requests take the eight drawn v parameters
    in turn.  Unlike verify, |x| is uniform on [0, 1) for hyp2f1, w and
    v, so 20% of those points have |x| >= 0.8.
    """

    KINDS = ("hyp2f1", "w", "v", "df")
    CYCLES = 5

    def __init__(self, seed: int):
        from okubo import dotsenko_fateev, series
        self.series, self.df = series, dotsenko_fateev
        rng = _rng(seed, "numeric-eval")
        self.v_params = [draw_v_params(rng) for _ in range(8)]
        self.systems = [special_system(rng), product_system(rng)]
        self.series_requests = [(system,) + request
                                for system in self.systems
                                for request in series_requests(system)]
        self.v_drawn = 0
        self.stream = [self._requests(rng) for _ in range(self.CYCLES)]

    def _requests(self, rng) -> list:
        count = len(self.series_requests)
        kinds = [(kind, None) for kind in self.KINDS for _ in range(count)]
        kinds += [("series", target) for target in self.series_requests]
        rng.shuffle(kinds)
        out = []
        for kind, target in kinds:
            if kind == "hyp2f1":
                p = draw_w_params(rng)
                out.append((kind, (p.alpha1, p.beta1, p.gamma1),
                            unit_disc_point(rng), None))
            elif kind == "w":
                out.append((kind, draw_w_params(rng), unit_disc_point(rng),
                            None))
            elif kind == "v":
                p = self.v_params[self.v_drawn % len(self.v_params)]
                self.v_drawn += 1
                out.append((kind, p, unit_disc_point(rng), None))
            elif kind == "df":
                out.append((kind, draw_df_params(rng),
                            rng.uniform(0.01, 0.99), None))
            else:
                pts = [series_point(rng, target[1], (0.01, 0.6), (1.7, 4.0),
                                    math.pi) for _ in range(5)]
                out.append((kind, target, pts, None))
        return out

    def prepare(self):
        """mpmath references (30 digits) and error bounds of the float
        sums for the hyp2f1 and w requests."""
        import mpmath
        mpmath.mp.dps = 30
        for reqs in self.stream:
            for i, (kind, data, x, _) in enumerate(reqs):
                if kind == "hyp2f1":
                    ref = mp_hyp2f1(*data, x)
                    bound = (checks.gauss_tail_bound(*data, x, 80)
                             + checks.gauss_rounding_bound(*data, x, 80))
                    reqs[i] = (kind, data, x, (ref, bound / abs(ref)))
                elif kind == "w":
                    reqs[i] = (kind, data, x, mp_product_vector_w(data, x))

    def far_share(self) -> float:
        """Share of hyp2f1/w/v points with |x| >= 0.8."""
        pts = [req[2] for reqs in self.stream for req in reqs
               if req[0] in ("hyp2f1", "w", "v")]
        return sum(abs(x) >= 0.8 for x in pts) / len(pts)

    def warm_up(self):
        for kind in ("hyp2f1", "w", "v", "series", "df"):
            req = next(r for r in self.stream[0] if r[0] == kind)
            self._run(req)

    def _run(self, req):
        series, kind, data, x = self.series, req[0], req[1], req[2]
        if kind == "hyp2f1":
            return series.hyp2f1(*data, x)
        if kind == "w":
            return (series.product_vector_w(data, x, 60),
                    series.w_residual(data, x, 60))
        if kind == "v":
            return (series.contiguous_product_vector(data, x, 80),
                    series.v_via_transform(data, x, 80))
        if kind == "series":
            system, base, index = data
            sols = series.local_series(system, base, index, 80, "float")
            return max(series.residual_report(system, sol, x).max_residual
                       for sol in sols)
        return self.df.df_integral_solution(data, x)

    def cycle(self, k: int, rec: Recorder):
        for req in self.stream[k]:
            kind, x, ref = req[0], req[2], req[3]
            out, err = rec.call(kind, lambda: self._run(req))
            if kind == "hyp2f1":
                status = checks.check_hyp2f1(out, err, *ref)
            elif kind == "w":
                status = checks.check_w(out, err, *ref)
            elif kind == "v":
                status = checks.check_v(out, err)
            elif kind == "series":
                status = checks.check_series_residual(out, err)
            else:
                status = checks.check_df(out, err)
            rec.settle(status, f"x={x} {_error_text(err)}")


# --------------------------------------------------------------------------
# series-numeric
# --------------------------------------------------------------------------

class SeriesNumeric(Workload):
    """SeriesDeep's cycle, then NumericEval's cycles: the series and
    quadrature layers, exact and float, in one workload."""

    def __init__(self, seed: int):
        self.deep, self.numeric = SeriesDeep(seed), NumericEval(seed)
        self.CYCLES = 1 + self.numeric.CYCLES

    def warm_up(self):
        self.deep.warm_up()
        self.numeric.warm_up()

    def prepare(self):
        self.numeric.prepare()

    def far_share(self) -> float:
        return self.numeric.far_share()

    def cycle(self, k: int, rec: Recorder):
        if k == 0:
            self.deep.cycle(0, rec)
        else:
            self.numeric.cycle(k - 1, rec)


WORKLOADS = {"certify": Certify, "series-numeric": SeriesNumeric}
