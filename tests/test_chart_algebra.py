"""A chart's derived exact objects: built once per chart object, from
integer closed forms.

The rational closed forms the package used before it cleared a chart to
integers are kept here as references.  The integer forms must give the
same Fractions on drawn, special, perturbed and rescaled charts, and the
same exceptions (class, order, message and context) on degenerate ones.
The references refuse a degenerate ratio vector (a zero ratio, r1 = r2 or
r3 = r4) as the package now does, everywhere with the DegenerateChart of
`AccessoryChart.check`, which carries r.
Likewise the two branch solvers that wrote the special accessory values
out twice are kept as references for the one projective solution.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from okubo import accessory as acc
from okubo.accessory import (AccessoryChart, Obstructions, cubic_blocks,
                             epsilon_delta, lower_block, okubo_from_chart,
                             solve_accessory, substantially_same, upper_block)
from okubo.errors import (AdmissibilityError, DConditionError,
                          DegenerateChart, InputError, InternalInconsistency,
                          OkuboError)
from okubo.exact import RationalMatrix, left_eigenvectors, to_fraction
from okubo.hgsystem import J2, OkuboSystem, resolvent_numerator
from okubo.sampling import (draw_chart, draw_exponents, draw_perturbed_chart,
                            draw_special_chart, draw_special_exponents,
                            rand_fraction)

ABCD = (F(1, 3), F(1, 5), F(1, 7), F(1, 11))


# -- the rational closed forms, as references --------------------------------

def ref_nondegenerate(chart):
    """Every derived object refuses a degenerate ratio vector first, with
    the one DegenerateChart that check() raises."""
    r1, r2, r3, r4 = chart.r
    if r1 * r2 * r3 * r4 == 0 or r1 == r2 or r3 == r4:
        raise DegenerateChart("degenerate chart",
                              {"r": [str(x) for x in chart.r]})


def ref_d_constraint(chart):
    a, b, c = chart.a, chart.b, chart.c
    ref_nondegenerate(chart)
    r1, r2, r3, r4 = chart.r
    num = ((a + b + c) ** 2 * r1 * r3 - (a - b + c) ** 2 * r1 * r4
           - (a - b - c) ** 2 * r2 * r3 + (a + b - c) ** 2 * r2 * r4
           - 4 * a * b * r1 * r2 - 4 * a * b * r3 * r4)
    return num / ((r1 - r2) * (r3 - r4))


def ref_check(chart):
    ref_nondegenerate(chart)
    if ref_d_constraint(chart) != chart.d ** 2:
        raise DConditionError("d-condition fails",
                              {"value": ref_d_constraint(chart),
                               "d^2": chart.d ** 2})


def ref_upper_block(chart):
    b, c = chart.b, chart.c
    ref_nondegenerate(chart)
    r1, r2, r3, r4 = chart.r
    return RationalMatrix([
        [((b - c) * r2 - (b + c) * r3) / (r1 - r2),
         ((b + c) * r2 - (b - c) * r4) / (r2 - r1)],
        [((b - c) * r1 - (b + c) * r3) / (r2 - r1),
         ((b + c) * r1 - (b - c) * r4) / (r1 - r2)]])


def ref_lower_block(chart):
    a, c = chart.a, chart.c
    ref_nondegenerate(chart)
    r1, r2, r3, r4 = chart.r
    return RationalMatrix([
        [((a + c) * r1 - (a - c) * r4) / (r4 - r3),
         ((a - c) * r2 - (a + c) * r4) / (r3 - r4)],
        [((a + c) * r1 - (a - c) * r3) / (r3 - r4),
         ((a - c) * r2 - (a + c) * r3) / (r4 - r3)]])


def ref_epsilon_delta(chart):
    ref_nondegenerate(chart)
    a, b, c = chart.a, chart.b, chart.c
    r1, r2, r3, r4 = chart.r
    eps = (b * (a + c) * r1 + b * (a - c) * r2
           - a * (b + c) * r3 - a * (b - c) * r4)
    dlt = r1 * r2 - r3 * r4
    den = (r1 - r2) * (r3 - r4)
    return Obstructions(eps, dlt, 2 * eps / den, 2 * dlt / den)


def ref_okubo_from_chart(chart):
    ref_check(chart)
    coeff = RationalMatrix.from_blocks(
        [[J2.scale(chart.a), ref_upper_block(chart)],
         [ref_lower_block(chart), J2.scale(chart.b)]])
    system = OkuboSystem(coeff, chart.a, chart.b, chart.c, chart.d)
    system.validate()
    return system


PAIRS = (
    ("d_constraint_value", AccessoryChart.d_constraint_value,
     ref_d_constraint),
    ("check", AccessoryChart.check, ref_check),
    ("upper_block", upper_block, ref_upper_block),
    ("lower_block", lower_block, ref_lower_block),
    ("epsilon_delta", epsilon_delta, ref_epsilon_delta),
    ("okubo_from_chart", okubo_from_chart, ref_okubo_from_chart),
)


def outcome(fn, *args):
    """The value, or everything that identifies the exception."""
    try:
        return "value", fn(*args)
    except (ArithmeticError, DegenerateChart, DConditionError) as exc:
        return ("raised", type(exc), exc.args, getattr(exc, "context", None))


def fresh(chart):
    """An equal chart object with nothing built yet."""
    return AccessoryChart(chart.a, chart.b, chart.c, chart.d, chart.r)


def rescaled(chart, rng):
    """The chart times a large or negative scale with a denominator up
    to 10^6."""
    num = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.choice((3, 6, 12)))
    scale = F(num, rng.randint(1, 10 ** 6))
    return AccessoryChart(chart.a, chart.b, chart.c, chart.d,
                          tuple(x * scale for x in chart.r))


def seeded_charts():
    rng = random.Random(89)
    charts = []
    for _ in range(40):
        drawn = draw_chart(rng)
        special = draw_special_chart(rng)
        perturbed = draw_perturbed_chart(rng)
        charts += [drawn, special, perturbed]
        charts += [rescaled(chart, rng) for chart in (drawn, special, perturbed)]
    # exponents and ratios with denominators up to 10^6: valid charts with
    # r4 solved from the d-constraint, and the same with d replaced by 1
    big = lambda: F(rng.randint(-10 ** 6, 10 ** 6) or 1,
                    rng.randint(1, 10 ** 6))
    for _ in range(30):
        a, b, c, d, r1, r2, r3 = (big() for _ in range(7))
        r = (r1, r2, r3, acc.solve_r4(a, b, c, d, r1, r2, r3))
        charts += [AccessoryChart(a, b, c, d, r),
                   AccessoryChart(a, b, c, F(1), r)]
    return charts


def degenerate_charts():
    rng = random.Random(97)
    out = []
    for _ in range(10):
        base = draw_chart(rng)
        r1, r2, r3, r4 = base.r
        for r in ((r1, r1, r3, r4), (r1, r2, r3, r3), (r1, r1, r3, r3),
                  (0, r2, r3, r4), (r1, r2, 0, r4), (r2, r2, 0, r4),
                  (r1, r2, r3, r4 + 1)):
            out.append(AccessoryChart(base.a, base.b, base.c, base.d, r))
    return out


def test_integer_forms_match_the_references():
    charts = seeded_charts()
    assert len(charts) >= 300
    values = Counter()
    for chart in charts:
        for name, fn, ref in PAIRS:
            got, want = outcome(fn, fresh(chart)), outcome(ref, chart)
            assert got == want, (name, chart)
            values[got[0]] += 1
    # both outcomes are exercised
    assert values["value"] > 1000 and values["raised"] >= 40


def test_degenerate_charts_raise_as_the_references_do():
    errors = Counter()
    for chart in degenerate_charts():
        for name, fn, ref in PAIRS:
            want = outcome(ref, chart)
            # an invalid chart raises again on every call
            for _ in range(3):
                assert outcome(fn, chart) == want, (name, chart)
            if want[0] == "raised":
                errors[want[1]] += 1
    # A12 at r1 = r2 and A21 at r3 = r4 raise DegenerateChart like the
    # chart checks do, not a ZeroDivisionError
    assert set(errors) == {DegenerateChart, DConditionError}


# -- integers in place of Fractions: admissibility, the off-diagonal shape ---

def ref_base_condition_failures(a, b, c, d):
    """The Fraction form of accessory.base_condition_failures."""
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    named = {"a": a, "b": b, "c": c, "d": d,
             "2a": 2 * a, "2b": 2 * b, "2c": 2 * c, "2d": 2 * d}
    for (n1, x), (n2, y) in (
            (("a", a), ("b", b)), (("a", a), ("c", c)), (("a", a), ("d", d)),
            (("b", b), ("c", c)), (("b", b), ("d", d)), (("c", c), ("d", d))):
        named[f"{n1}+{n2}"] = x + y
        named[f"{n1}-{n2}"] = x - y
    return [name for name, value in named.items() if value.denominator == 1]


BIG = 10 ** 12
exponent_value = st.one_of(
    # integers, halves, thirds and quarters
    st.fractions(min_value=-20, max_value=20, max_denominator=4),
    # an integer or a half-integer off by 1/q, q up to 10^12
    st.builds(lambda k, half, e, q: F(k, 1 + half) + F(e, q),
              st.integers(-9, 9), st.integers(0, 1),
              st.sampled_from((-1, 1)), st.integers(1, BIG)),
    st.builds(F, st.integers(-10 * BIG, 10 * BIG), st.integers(1, BIG)))


@st.composite
def exponent_quadruples(draw):
    """(a, b, c, d), some of them an integer or a half-integer plus or
    minus another, so that sums and differences land on integers too."""
    vals = [draw(exponent_value) for _ in range(4)]
    for k in range(4):
        if draw(st.booleans()):
            shift = F(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2))))
            other = vals[draw(st.integers(0, 3))]
            vals[k] = shift + draw(st.sampled_from((1, -1))) * other
    return vals


@settings(max_examples=300, deadline=None)
@given(exponent_quadruples())
@example([F(1, 3), F(1, 5), F(1, 7), F(1, 2)])
@example([F(BIG + 1, BIG), F(-1, 2), F(1, 2) - F(1, BIG), F(2 * BIG - 1, BIG)])
def test_base_condition_failures_match_the_fraction_reference(abcd):
    got = acc.base_condition_failures(*abcd)
    assert got == ref_base_condition_failures(*abcd)
    assert acc.is_admissible(*abcd) == (not got)
    # strings parse to the same values
    assert acc.base_condition_failures(*map(str, abcd)) == got


def ref_signed_quotients(nums, den):
    """The Fraction form of accessory._signed_quotients."""
    n1, n2, n3, n4 = nums
    return RationalMatrix([[F(n1, den), F(-n2, den)],
                           [F(-n3, den), F(n4, den)]])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-BIG, BIG), min_size=4, max_size=4),
       st.one_of(st.just(0), st.integers(-BIG, BIG)))
def test_signed_quotients_match_the_fraction_reference(nums, den):
    """Both blocks pass D (r1 - r2) or D (r4 - r3) as den: at r1 = r2 or
    r3 = r4 the ZeroDivisionError of Fraction(n1, 0), as before."""
    assert outcome(acc._signed_quotients, nums, den) == \
        outcome(ref_signed_quotients, nums, den)


# -- once per chart object ---------------------------------------------------

BUILDS = ("_cleared", "_d_constraint", "_checked", "_a12", "_a21",
          "_obstructions", "_system")


@pytest.fixture
def builds(monkeypatch):
    """Counts of each cached build of AccessoryChart, and of validated
    Okubo systems."""
    counts = Counter()
    for name in BUILDS:
        prop = AccessoryChart.__dict__[name]

        def counted(chart, build=prop.func, name=name):
            counts[name] += 1
            return build(chart)
        monkeypatch.setattr(prop, "func", counted)
    validate = OkuboSystem.validate

    def counted_validate(system):
        counts["validate"] += 1
        return validate(system)
    monkeypatch.setattr(OkuboSystem, "validate", counted_validate)
    return counts


def exercise(chart):
    for _ in range(2):
        cubic_blocks(chart)
        okubo_from_chart(chart)
        for pair in ("1-inf", "0-inf"):
            substantially_same(chart, pair)
        acc.difference_systems(chart, "1-inf")
        chart.check()
        chart.d_constraint_value()
        upper_block(chart)
        lower_block(chart)
        epsilon_delta(chart)


def test_chart_objects_are_built_once_per_chart(builds):
    rng = random.Random(101)
    for draw in (draw_chart, draw_special_chart, draw_perturbed_chart):
        chart = fresh(draw(rng))
        builds.clear()
        exercise(chart)
        assert builds == Counter({name: 1 for name in BUILDS + ("validate",)})
        # an equal but distinct chart builds its own
        twin = fresh(chart)
        assert twin == chart and hash(twin) == hash(chart)
        exercise(twin)
        assert builds == Counter({name: 2 for name in BUILDS + ("validate",)})
        assert okubo_from_chart(twin) == okubo_from_chart(chart)
        assert okubo_from_chart(twin) is not okubo_from_chart(chart)


def test_failed_check_raises_on_every_call(builds):
    for r, error in (((1, 1, 2, 3), DegenerateChart),
                     ((0, 1, 2, 3), DegenerateChart),
                     ((1, 2, 3, 3), DegenerateChart),
                     ((1, 2, 3, 4), DConditionError)):
        chart = AccessoryChart(*ABCD, r)
        for _ in range(3):
            with pytest.raises(error):
                chart.check()
            with pytest.raises(error):
                okubo_from_chart(chart)
            with pytest.raises(error):
                cubic_blocks(chart)
            with pytest.raises(error):
                substantially_same(chart)
    assert builds["validate"] == 0


@pytest.mark.parametrize("r", [(1, 1, 2, 3), (1, 2, 3, 3), (0, 1, 2, 3)])
def test_a_degenerate_chart_is_refused_with_its_ratios(r):
    """Every entry point refuses with the DegenerateChart of check(), the
    ratios in its context, whichever derived object it builds first."""
    calls = (AccessoryChart.check, AccessoryChart.d_constraint_value,
             upper_block, lower_block, epsilon_delta, cubic_blocks,
             okubo_from_chart, lambda chart: substantially_same(chart),
             lambda chart: substantially_same(chart, "0-inf"))
    for call in calls:
        chart = AccessoryChart(*ABCD, r)
        with pytest.raises(DegenerateChart) as info:
            call(chart)
        assert info.value.context == {"r": [str(x) for x in r]}


def test_solve_accessory_validates_one_system(builds):
    chart, system = solve_accessory(*ABCD, "via-r4")
    assert builds["validate"] == 1
    assert system is okubo_from_chart(chart)
    assert system == acc.special_matrix(*ABCD)
    assert builds["validate"] == 2  # special_matrix keeps validating


# -- exact entry points refuse floats ----------------------------------------

def special_chart():
    return solve_accessory(*ABCD)[0]


def special_coeff():
    return okubo_from_chart(special_chart()).coeff


@pytest.mark.parametrize("call", [
    lambda: solve_accessory(0.1, F(1, 5), F(1, 7), F(1, 11)),
    lambda: solve_accessory(*ABCD, "via-r4", 0.5),
    lambda: acc.special_matrix(F(1, 3), 0.2, F(1, 7), F(1, 11)),
    lambda: acc.solve_r4(*ABCD, F(1), F(2), 0.5),
    lambda: acc.special_ratios(F(1, 3), F(1, 5), F(1, 7), 1 / 11),
    lambda: acc.special_ratios(F(1, 3), F(1, 5), 0.25, F(1, 11)),
    lambda: acc.base_condition_failures(F(1, 3), F(1, 5), F(1, 7), 0.5),
    lambda: acc.recover_chart(special_coeff(), F(1, 3), F(1, 5), 1 / 7,
                              F(1, 11)),
    lambda: left_eigenvectors(special_coeff(), 1 / 7),
    lambda: resolvent_numerator(special_coeff(), F(1, 7), 1 / 11),
], ids=["solve_accessory", "solve_accessory-scale", "special_matrix",
        "solve_r4", "special_ratios-d", "special_ratios-c",
        "base_condition_failures", "recover_chart", "left_eigenvectors",
        "resolvent_numerator"])
def test_exact_entry_points_refuse_floats(call):
    with pytest.raises(InputError, match="cannot convert float"):
        call()


# -- the special accessory values: one projective solution -------------------

def ref_branch_via_r4(a, b, c, d, scale=F(1)):
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    den1 = (a + b + c) ** 2 - d ** 2
    den2 = (a - b - c) ** 2 - d ** 2
    if den1 == 0 or den2 == 0:
        raise AdmissibilityError("branch via r4 has a vanishing denominator",
                                 {"(a+b+c)^2-d^2": den1,
                                  "(a-b-c)^2-d^2": den2})
    r4 = to_fraction(scale)
    r1 = ((a + b - c) ** 2 - d ** 2) / den1 * r4
    r2 = ((a - b + c) ** 2 - d ** 2) / den2 * r4
    r3 = (((a + b - c) ** 2 - d ** 2) * ((a - b + c) ** 2 - d ** 2)
          / (den1 * den2)) * r4
    return r1, r2, r3, r4


def ref_branch_via_r3(a, b, c, d, scale=F(1)):
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    den1 = (a - b + c) ** 2 - d ** 2
    den2 = (a + b - c) ** 2 - d ** 2
    if den1 == 0 or den2 == 0:
        raise AdmissibilityError("branch via r3 has a vanishing denominator",
                                 {"(a-b+c)^2-d^2": den1,
                                  "(a+b-c)^2-d^2": den2})
    r3 = to_fraction(scale)
    r1 = ((a - b - c) ** 2 - d ** 2) / den1 * r3
    r2 = ((a + b + c) ** 2 - d ** 2) / den2 * r3
    r4 = (((a + b + c) ** 2 - d ** 2) * ((a - b - c) ** 2 - d ** 2)
          / (den2 * den1)) * r3
    return r1, r2, r3, r4


def ref_solve_accessory(a, b, c, d, branch="via-r4", scale=F(1)):
    """The solver with one branch solver per scaled ratio."""
    a, b, c, d = (to_fraction(x) for x in (a, b, c, d))
    acc.require_admissible(a, b, c, d)
    solver = {"via-r4": ref_branch_via_r4,
              "via-r3": ref_branch_via_r3}.get(branch)
    if solver is None:
        raise InputError(f"unknown branch {branch!r}")
    chart = AccessoryChart(a, b, c, d, solver(a, b, c, d, scale))
    system = okubo_from_chart(chart)
    if system.coeff != acc._special_coeff(a, b, c, d):
        raise InternalInconsistency(
            "solved chart does not reproduce the special matrix")
    if not epsilon_delta(chart).vanish:
        raise InternalInconsistency("solved chart leaves an obstruction")
    return chart, system


def solve_outcome(solve, abcd, branch, scale):
    """The solved chart's Fractions and system, or what identifies the
    exception; branch None leaves the solver's default."""
    try:
        chart, system = (solve(*abcd, scale=scale) if branch is None
                         else solve(*abcd, branch, scale))
        return ("value", (chart.a, chart.b, chart.c, chart.d), chart.r,
                system.coeff)
    except (OkuboError, ArithmeticError) as exc:
        return ("raised", type(exc), exc.args,
                dict(getattr(exc, "context", {})))


def _admissible(make, rng):
    while True:
        abcd = make(*(rand_fraction(rng) for _ in range(3)))
        if acc.is_admissible(*abcd):
            return abcd


def special_inputs():
    """Drawn exponents; exponents where each of A, B, C, D vanishes in
    turn; and exponents with r1 = r2 or r3 = r4 on the solution."""
    rng = random.Random(131)
    out = [draw_exponents(rng) for _ in range(15)]
    for k, (sb, sc) in enumerate(((1, 1), (-1, -1), (1, -1), (-1, 1))):
        for _ in range(3):
            abcd = _admissible(lambda a, b, c: (a, b, c, a + sb * b + sc * c),
                               rng)
            assert acc.special_factors(*abcd)[k] == 0
            out.append(abcd)

    def on_quadric(a, b, t):  # d^2 - c^2 = a^2 - b^2
        p = (a * a - b * b) / t
        return a, b, (p - t) / 2, (p + t) / 2
    for _ in range(3):
        a, b, c, d = _admissible(on_quadric, rng)
        assert a * a + c * c == b * b + d * d
        out += [(a, b, c, d), (a, b, d, c)]  # and a^2 + d^2 = b^2 + c^2
    return out


SCALES = (F(1), F(0), F(-3, 7), F(10 ** 12, 7), "2/3", 0.5)


def test_projective_solution_matches_the_branch_solvers():
    kinds = Counter()
    for abcd in special_inputs():
        for scale in SCALES:
            for branch in ("via-r4", "via-r3", None):
                got = solve_outcome(solve_accessory, abcd, branch, scale)
                # the default is via-r4
                want = solve_outcome(ref_solve_accessory, abcd,
                                     branch or "via-r4", scale)
                assert got == want, (abcd, branch, scale)
                kinds[want[:2] if want[0] == "raised" else want[0]] += 1
    assert kinds["value"] >= 150
    assert kinds[("raised", AdmissibilityError)] >= 40
    assert kinds[("raised", DegenerateChart)] >= 40
    assert kinds[("raised", InputError)] >= 15


def test_special_ratios_solve_both_obstructions_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    a, b, c, d = sympy.symbols("a b c d")
    fa, fb = (a + b + c) ** 2 - d ** 2, (a - b - c) ** 2 - d ** 2
    fc, fd = (a + b - c) ** 2 - d ** 2, (a - b + c) ** 2 - d ** 2
    r1, r2, r3, r4 = fb * fc, fa * fd, fc * fd, fa * fb
    eps = (b * (a + c) * r1 + b * (a - c) * r2
           - a * (b + c) * r3 - a * (b - c) * r4)
    assert sympy.expand(eps) == 0
    assert sympy.expand(r1 * r2 - r3 * r4) == 0
    assert sympy.expand(r1 - r2 + 8 * a * c * (a ** 2 - b ** 2 + c ** 2
                                               - d ** 2)) == 0
    assert sympy.expand(r3 - r4 - 8 * b * c * (a ** 2 - b ** 2 - c ** 2
                                               + d ** 2)) == 0
    # the package writes the same vector
    rng = random.Random(137)
    for _ in range(10):
        point = draw_exponents(rng)
        subs = dict(zip((a, b, c, d), (sympy.Rational(x.numerator,
                                                      x.denominator)
                                       for x in point)))
        want = tuple(F(str(r.subs(subs))) for r in (r1, r2, r3, r4))
        assert acc.special_ratios(*point) == want


def test_special_value_is_the_one_nondegenerate_chart_sympy_elimination():
    """With r3 = 1, epsilon = delta = 0 alone leaves a curve of charts; the
    d-constraint cuts it to four, and only the special value is a chart.

    epsilon is linear in r4; with r4 eliminated, delta is linear in r2 and
    the cleared d-constraint quadratic, and their resultant in r2 is a
    quartic in r1 with four linear factors."""
    sympy = pytest.importorskip("sympy")
    a, b, c, d, r1, r2, r4 = sympy.symbols("a b c d r1 r2 r4")
    eps = b * (a + c) * r1 + b * (a - c) * r2 - a * (b + c) - a * (b - c) * r4
    dlt = r1 * r2 - r4
    # the d-constraint numerator minus d^2 times its denominator
    dcon = ((a + b + c) ** 2 * r1 - (a - b + c) ** 2 * r1 * r4
            - (a - b - c) ** 2 * r2 + (a + b - c) ** 2 * r2 * r4
            - 4 * a * b * (r1 * r2 + r4) - d ** 2 * (r1 - r2) * (1 - r4))
    r4_eps = sympy.solve(eps, r4)[0]
    dlt2, dcon2 = (sympy.numer(sympy.together(f.subs(r4, r4_eps)))
                   for f in (dlt, dcon))
    assert (sympy.degree(dlt2, r2), sympy.degree(dcon2, r2)) == (1, 2)
    fb, fd = (a - b - c) ** 2 - d ** 2, (a - b + c) ** 2 - d ** 2
    roots = (1, (a - c) / (a + c), (b + c) / (b - c), fb / fd)
    factors = [sympy.numer(sympy.together(r1 - root)) for root in roots]
    want = -a ** 2 * b * (b - c) * sympy.Mul(*factors)
    assert sympy.expand(sympy.resultant(dlt2, dcon2, r2) - want) == 0

    # the package's obstructions, d-constraint and special value are the
    # ones eliminated here
    args = (a, b, c, d, r1, r2, r4)
    as_fraction = lambda f: sympy.lambdify(args, f, "math")
    eps_f, dlt_f, dcon_f = (as_fraction(f) for f in (eps, dlt, dcon))
    r2_of = as_fraction(sympy.solve(dlt2, r2)[0])
    r4_of = as_fraction(r4_eps)
    root_fs = [as_fraction(sympy.sympify(root)) for root in roots]
    rng = random.Random(3)
    for _ in range(20):
        abcd = draw_special_exponents(rng)
        x, y, z = (rand_fraction(rng) for _ in range(3))
        chart = AccessoryChart(*abcd, (x, y, 1, z))
        if x != y and z != 1 and x * y * z:
            obs = acc.epsilon_delta(chart)
            point = (*abcd, x, y, z)
            assert (obs.epsilon, obs.delta) == (eps_f(*point), dlt_f(*point))
            assert (chart.d_constraint_value() * (x - y) * (1 - z)
                    == dcon_f(*abcd[:3], 0, x, y, z))
        charts = []
        for root_f in root_fs:
            q = root_f(*abcd, 0, 0, 0)
            p = r2_of(*abcd, q, 0, 0)
            charts.append(AccessoryChart(*abcd, (q, p, 1,
                                                 r4_of(*abcd, q, p, 0))))
        assert len({ch.r1 for ch in charts}) == 4  # simple roots
        for degenerate in charts[:3]:
            with pytest.raises(DegenerateChart):
                degenerate.check()
        special = acc.special_ratios(*abcd)
        assert charts[3].r == tuple(x / special[2] for x in special)
        charts[3].check()
        assert acc.epsilon_delta(charts[3]).vanish


def stream_digest():
    digest = hashlib.sha256()
    rng = random.Random(113)
    for _ in range(60):
        for draw in (draw_special_chart, draw_perturbed_chart):
            digest.update(json.dumps(draw(rng).to_json()).encode())
    return digest.hexdigest()


def test_special_and_perturbed_draws_are_unchanged():
    # the streams the two branch solvers gave, hashed
    assert stream_digest() == ("f424399313073f4b851d446bc719bb89"
                               "451ec733697376b1d6b2f8256b3df658")
