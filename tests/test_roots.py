import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swbounds import roots
from swbounds.roots import (largest_real_root_bracket, no_real_root_above, sign_at,
                            three_term_root_bracket, three_term_sign)


def _product(*factors):
    """Ascending integer coefficients of the product of ascending factors."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _value(coeffs, x):
    x = Fraction(x)
    return sum(c * x ** i for i, c in enumerate(coeffs))


def _assert_adjacent(lo, hi):
    assert lo == hi or math.nextafter(lo, math.inf) == hi


def _assert_certified(coeffs, u):
    # leading coefficient negative in every case below: the polynomial is
    # non-positive at u and negative above it
    assert coeffs[-1] < 0
    assert _value(coeffs, u) <= 0
    for x in (u + abs(u) * 1e-9 + 1e-12, u + 1e-6, u + 1, 2 * abs(u) + 1, 1e6):
        assert _value(coeffs, x) < 0


def _assert_brackets(base, lo, hi):
    # base rises through the top root and through no other root near it, so
    # a sign change of base over [lo, hi] places that root there
    _assert_adjacent(lo, hi)
    assert _value(base, lo) <= 0 <= _value(base, hi)


# name: (coefficients, top root, a polynomial rising through the top root)
CASES = {
    # -(r + 1)(r - 2)(r - 4)
    "simple": (_product([1, 1], [-2, 1], [-4, 1], [-1]), 4.0, [-4, 1]),
    # -(r - 3)^2 (r + 1): a touching top root
    "double_top": (_product([-3, 1], [-3, 1], [1, 1], [-1]), 3.0, [-3, 1]),
    # -(r^2 - 2)^2 (r + 1): an irrational touching root
    "irrational_double": (_product([-2, 0, 1], [-2, 0, 1], [1, 1], [-1]), 2 ** 0.5,
                          [-2, 0, 1]),
    # -(r - 1)(r - 2)((r - 5)^2 + 1): complex pair with real part 5 beyond the
    # largest real root, where Descartes' rule at r = 2 is inconclusive
    "complex_beyond": (_product([-1, 1], [-2, 1], [26, -10, 1], [-1]), 2.0, [-2, 1]),
    # one sign change (the Stieltjes shape): 6r + 6 - 2r^3
    "one_sign_change": ([6, 6, 0, -2], 2.1038034027355357, [-6, -6, 0, 2]),
    # -r^3 (r - 7)
    "zero_roots": (_product([0, 0, 0, 1], [-7, 1], [-1]), 7.0, [-7, 1]),
}
# real-rooted, with a float top root: the test passes at the root itself
FLOAT_ROOTS = ("simple", "double_top", "zero_roots")


@pytest.mark.parametrize("name", sorted(CASES))
def test_known_roots(name):
    coeffs, root, base = CASES[name]
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_certified(coeffs, hi)
    _assert_brackets(base, lo, hi)
    assert abs(hi - root) <= 1e-15 * max(1.0, root)
    if name in FLOAT_ROOTS:
        assert lo == hi == root


def test_complex_pair_beyond_uses_the_sturm_fallback(monkeypatch):
    calls = []
    real = roots._sturm_sequence
    monkeypatch.setattr(roots, "_sturm_sequence", lambda c: calls.append(c) or real(c))
    coeffs, root, _ = CASES["complex_beyond"]
    lo, hi = largest_real_root_bracket(coeffs)
    assert calls
    # Descartes is inconclusive at the root itself, so only lo reaches it
    assert lo == root and hi == math.nextafter(root, math.inf)


def test_sign_of_the_leading_coefficient_does_not_matter():
    for coeffs, _, _ in CASES.values():
        flipped = largest_real_root_bracket([-c for c in coeffs])
        assert flipped == largest_real_root_bracket(coeffs)


def test_coefficients_beyond_float_range():
    # -(r - 3)(r + 1) * 10**400: same root, coefficients far past 1e308
    coeffs = [c * 10 ** 400 for c in _product([-3, 1], [1, 1], [-1])]
    lo, hi = largest_real_root_bracket(coeffs)
    assert lo == hi == 3.0
    _assert_certified(coeffs, hi)


def test_only_a_root_at_zero():
    assert largest_real_root_bracket([0, 0, -5]) == (0.0, 0.0)
    assert largest_real_root_bracket(_product([0, 1], [1, 0, 1], [-1])) == (0.0, 0.0)
    # roots at zero above a negative one
    assert largest_real_root_bracket(_product([0, 1], [0, 1], [2, 1])) == (0.0, 0.0)


def test_degenerate_inputs_raise():
    with pytest.raises(ValueError, match="non-constant"):
        largest_real_root_bracket([3])
    with pytest.raises(ValueError, match="non-constant"):
        largest_real_root_bracket([3, 0, 0])
    with pytest.raises(ValueError, match="no real root"):
        largest_real_root_bracket([-1, 0, -1])


@settings(max_examples=60, deadline=None)
@given(
    real_roots=st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True),
    repeat_top=st.booleans(),
    quadratics=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=2),
    scale=st.integers(1, 10 ** 6),
)
def test_integer_roots_with_complex_factors(real_roots, repeat_top, quadratics, scale):
    top = max(real_roots)
    factors = [[-r, 1] for r in real_roots]
    if repeat_top:
        factors.append([-top, 1])
    # (r - a)^2 + b^2 with b >= 1: a complex pair anywhere, even beyond top
    factors += [[a * a + b * b, -2 * a, 1] for a, b in quadratics]
    coeffs = _product(*factors, [-scale])
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_certified(coeffs, hi)
    _assert_brackets([-top, 1], lo, hi)
    assert lo == top
    if not quadratics:
        assert hi == top


def _assert_root_at_or_above(coeffs, v):
    # zero at v, or the sign opposite to the leading coefficient: a real root
    # lies in [v, inf)
    assert _value(coeffs, v) * coeffs[-1] <= 0


@pytest.mark.parametrize("name", ["simple", "complex_beyond", "one_sign_change", "zero_roots"])
def test_known_simple_roots_from_below(name):
    coeffs, root, _ = CASES[name]
    lo, _ = largest_real_root_bracket(coeffs)
    _assert_root_at_or_above(coeffs, lo)
    assert abs(lo - root) <= 1e-15 * max(1.0, root)
    flipped = [-c for c in coeffs]
    _assert_root_at_or_above(flipped, largest_real_root_bracket(flipped)[0])


def test_below_steps_down_from_an_estimate_above_the_root(monkeypatch):
    # -(r - 1/3)(r + 1): the estimate 1e-9 above 1/3 passes the test
    coeffs = _product([-1, 3], [1, 1], [-1])
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: 1.0 / 3.0 + 1e-9)
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_brackets([-1, 3], lo, hi)


def test_steps_up_from_an_estimate_below_the_root(monkeypatch):
    # the same polynomial from an estimate 1e-9 below 1/3, which fails it
    coeffs = _product([-1, 3], [1, 1], [-1])
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: 1.0 / 3.0 - 1e-9)
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_brackets([-1, 3], lo, hi)


def test_below_without_a_newton_estimate_falls_back(monkeypatch):
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: None)
    for name, (coeffs, root, base) in CASES.items():
        lo, hi = largest_real_root_bracket(coeffs)
        _assert_brackets(base, lo, hi)
        if name in FLOAT_ROOTS:
            assert lo == hi == root
    with pytest.raises(ValueError, match="no real root"):
        largest_real_root_bracket([-1, 0, -1])


def test_touching_top_root_is_bracketed():
    # no sign change at a double root, yet the test passes at it exactly
    assert largest_real_root_bracket(_product([-3, 1], [-3, 1], [-1])) == (3.0, 3.0)
    assert largest_real_root_bracket(CASES["double_top"][0]) == (3.0, 3.0)
    with pytest.raises(ValueError, match="no real root"):
        largest_real_root_bracket([-1, 0, -1])


def test_below_beyond_float_range():
    # -(r^2 - 2)(r + 1) * 10**400: an irrational root, coefficients past 1e308
    coeffs = [c * 10 ** 400 for c in _product([-2, 0, 1], [1, 1], [-1])]
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_brackets([-2, 0, 1], lo, hi)
    assert lo < hi
    _assert_root_at_or_above(coeffs, lo)


@settings(max_examples=60, deadline=None)
@given(
    real_roots=st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True),
    denominator=st.integers(1, 7),
    quadratics=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=2),
)
def test_simple_rational_roots_from_below(real_roots, denominator, quadratics):
    # roots r / denominator, mostly not floats, so bisection decides
    factors = [[-r, denominator] for r in real_roots]
    factors += [[a * a + b * b, -2 * a, 1] for a, b in quadratics]
    coeffs = _product(*factors)
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_root_at_or_above(coeffs, lo)
    _assert_brackets([-max(real_roots), denominator], lo, hi)


@settings(max_examples=60, deadline=None)
@given(
    real_roots=st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 3)),
                        min_size=1, max_size=4, unique_by=lambda t: t[0]),
    denominator=st.integers(1, 7),
    zeros=st.integers(0, 2),
    quadratics=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=2),
    negate=st.booleans(),
)
def test_bracket_holds_the_top_root(real_roots, denominator, zeros, quadratics, negate):
    # real roots r / denominator with multiplicities, `zeros` roots at 0,
    # complex pairs anywhere and either sign of the leading coefficient
    factors = [[-r, denominator] for r, times in real_roots for _ in range(times)]
    factors += [[0, 1]] * zeros
    factors += [[a * a + b * b, -2 * a, 1] for a, b in quadratics]
    coeffs = _product(*factors, [-1 if negate else 1])
    top = max([Fraction(r, denominator) for r, _ in real_roots] + ([0] if zeros else []))
    lo, hi = largest_real_root_bracket(coeffs)
    _assert_adjacent(lo, hi)
    assert lo <= top <= hi
    if lo == hi:
        assert hi == top
    # the one-point test agrees with the bracket on either side of it
    if lo > 0.0:
        assert not no_real_root_above(coeffs, math.nextafter(lo, 0.0))
    if hi > 0.0:
        assert no_real_root_above(coeffs, hi)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_real_root_above_agrees_with_the_bracket(name):
    coeffs, _, _ = CASES[name]
    lo, hi = largest_real_root_bracket(coeffs)
    for poly in (coeffs, [-c for c in coeffs]):
        # a root at or above u for every u <= lo: none is certified away,
        # except at lo itself when the root is that float
        for u in (0.5 * lo, lo * (1.0 - 1e-9), math.nextafter(lo, 0.0)):
            assert not no_real_root_above(poly, u)
        assert no_real_root_above(poly, lo) == (lo == hi)
        # none above u for every float from hi on
        for u in (hi, math.nextafter(hi, math.inf), hi * (1.0 + 1e-9), 2.0 * hi, 1e300):
            assert no_real_root_above(poly, u)


def test_no_real_root_above_a_touching_top_root():
    coeffs = _product([-3, 1], [-3, 1], [-1])
    assert no_real_root_above(coeffs, 3.0)
    assert not no_real_root_above(coeffs, math.nextafter(3.0, 0.0))
    # irrational: the polynomial is negative on both sides of sqrt 2
    coeffs = CASES["irrational_double"][0]
    assert not no_real_root_above(coeffs, 1.414213562373095)
    assert no_real_root_above(coeffs, 1.4142135623730951 * (1.0 + 1e-15))


def test_no_real_root_above_a_complex_pair_beyond_uses_the_sturm_fallback(monkeypatch):
    calls = []
    real = roots._sturm_sequence
    monkeypatch.setattr(roots, "_sturm_sequence", lambda c: calls.append(c) or real(c))
    coeffs = CASES["complex_beyond"][0]
    # negative beyond the root 2, with the pair 5 +/- i further right
    for u in (2.5, 4.0, 5.0):
        assert no_real_root_above(coeffs, u)
    assert calls
    assert not no_real_root_above(coeffs, 1.5)


def test_no_real_root_above_beyond_float_range():
    coeffs = [c * 10 ** 400 for c in _product([-3, 1], [1, 1], [-1])]
    assert no_real_root_above(coeffs, 3.0)
    assert not no_real_root_above(coeffs, math.nextafter(3.0, 0.0))
    coeffs = [c * 10 ** 400 for c in _product([-2, 0, 1], [1, 1], [-1])]
    assert not no_real_root_above(coeffs, 1.414213562373095)
    assert no_real_root_above(coeffs, 1.4142135623730951)


def test_no_real_root_above_a_dyadic_root_at_u():
    # -(8r - 3)(r + 1): the top root 3/8 is a float
    coeffs = _product([-3, 8], [1, 1], [-1])
    assert no_real_root_above(coeffs, 0.375)
    assert not no_real_root_above(coeffs, math.nextafter(0.375, 0.0))
    # a root exactly at u with another one above it
    coeffs = _product([-3, 8], [-2, 1], [-1])
    assert not no_real_root_above(coeffs, 0.375)
    assert no_real_root_above(coeffs, 2.0)
    # roots at zero only lie below any u > 0
    assert no_real_root_above([0, 0, -5], 1e-300)


def test_no_real_root_above_rejects_bad_input():
    with pytest.raises(ValueError, match="u > 0"):
        no_real_root_above([-1, 1], 0.0)
    with pytest.raises(ValueError, match="u > 0"):
        no_real_root_above([-1, 1], math.nan)
    with pytest.raises(ValueError, match="non-constant"):
        no_real_root_above([3, 0], 1.0)


def test_a_cauchy_bound_past_the_float_range_is_capped():
    # roots 1 and B(1 +/- i): the complex pair beyond the real root defeats
    # the Newton start, and the Cauchy bound 2 B**2 lies past the largest float
    B = 2 ** 600
    coeffs = [-2 * B * B, 2 * B * B + 2 * B, -(2 * B + 1), 1]
    assert largest_real_root_bracket(coeffs) == (1.0, math.nextafter(1.0, math.inf))


def test_a_root_beyond_the_float_range_raises():
    # 1 + 2**1100 r - r**2: no float lies above its top root
    with pytest.raises(ValueError, match="beyond the float range"):
        largest_real_root_bracket([1, 2 ** 1100, -1])
    with pytest.raises(ValueError, match="beyond the float range"):
        three_term_root_bracket(1, 2 ** 1100, 1, 2)
    # r**2 + 2**2200 has no real root, and its Cauchy bound is capped
    with pytest.raises(ValueError, match="no real root in the float range"):
        largest_real_root_bracket([2 ** 2200, 0, 1])


def test_steps_stop_at_the_largest_float(monkeypatch):
    # from the estimate 1.0, the steps go down past every float to the real
    # root -2**1100 of -(r + 2**1100)(r**2 + 1), or up past every float to
    # the top root 2**1050 of 2**2100 - r**2
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: 1.0)
    with pytest.raises(ValueError, match="no real root in the float range"):
        largest_real_root_bracket(_product([2 ** 1100, 1], [1, 0, 1], [-1]))
    with pytest.raises(ValueError, match="beyond the float range"):
        largest_real_root_bracket([2 ** 2100, 0, -1])
    # up to the largest float, then bisection between floats whose sum overflows
    assert largest_real_root_bracket([-3 * 2 ** 1022, 1]) == (1.5 * 2.0 ** 1023,) * 2


def _outcome(bracket, *args):
    try:
        return bracket(*args)
    except ValueError as e:
        return str(e)


@st.composite
def _three_terms(draw):
    """(a, b, c, n, root) of a + b r - c r**n: plain, with a = 0 (a root at
    zero below the positive one), with a dyadic root, which is then `root`,
    or with a and b past 2**1100 beside a small c."""
    n = draw(st.integers(2, 41))
    shape = draw(st.sampled_from(("plain", "a_zero", "dyadic", "huge")))
    if shape == "dyadic":
        # the root p / 2**e: c = c0 2**(e n), b = b0 2**e, a = c0 p**n - b0 p
        p, e = draw(st.integers(1, 2 ** 20)), draw(st.integers(0, 20))
        c0 = draw(st.integers(1, 99))
        b0 = draw(st.integers(1, c0 * p ** (n - 1)))
        return c0 * p ** n - b0 * p, b0 << e, c0 << e * n, n, math.ldexp(p, -e)
    a = 0 if shape == "a_zero" else draw(st.integers(0, 2 ** 120))
    b, c = draw(st.integers(1, 2 ** 120)), draw(st.integers(1, 2 ** 60))
    if shape == "huge":
        shift = draw(st.integers(1100, 1200))
        a, b, c = a << shift, b << shift, c >> 50 or 1
    return a, b, c, n, None


@settings(max_examples=300, deadline=None)
@given(terms=_three_terms(), extra=st.floats(-1e3, 1e3))
def test_three_terms_bracket_like_the_coefficient_list(terms, extra):
    a, b, c, n, root = terms
    dense = [a, b] + [0] * (n - 2) + [-c]
    out = _outcome(three_term_root_bracket, a, b, c, n)
    assert out == _outcome(largest_real_root_bracket, dense)
    if isinstance(out, str):
        return
    lo, hi = out
    if root is not None:
        assert lo == hi == root
    near = (lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 0.5 * lo, 2.0 * hi)
    for u in (*near, *(-u for u in near), 0.0, extra):
        assert three_term_sign(a, b, c, n, u) == sign_at(dense, u)


def test_three_terms_without_a_seed_fall_back(monkeypatch):
    # the Cauchy bound either side of zero: below zero the one positive root
    # lies above every point, whatever the sign there (negative for even n)
    cases = [(6, 6, 2, 3), (0, 8, 2, 3), (21, 2, 1, 3), (5, 3, 7, 4), (0, 1, 1, 2)]
    brackets = [three_term_root_bracket(*terms) for terms in cases]
    monkeypatch.setattr(roots, "_three_term_seed", lambda a, b, c, n: None)
    assert [three_term_root_bracket(*terms) for terms in cases] == brackets


def test_three_terms_reject_other_shapes():
    for a, b, c, n in ((-1, 1, 1, 3), (1, 0, 1, 3), (1, 1, 0, 3), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="need a >= 0"):
            three_term_root_bracket(a, b, c, n)
