from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swbounds import roots
from swbounds.roots import largest_real_root, largest_real_root_below


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


def _assert_certified(coeffs, u):
    # leading coefficient negative in every case below: the polynomial is
    # non-positive at u and negative above it
    assert coeffs[-1] < 0
    assert _value(coeffs, u) <= 0
    for x in (u + abs(u) * 1e-9 + 1e-12, u + 1e-6, u + 1, 2 * abs(u) + 1, 1e6):
        assert _value(coeffs, x) < 0


CASES = {
    # -(r + 1)(r - 2)(r - 4)
    "simple": (_product([1, 1], [-2, 1], [-4, 1], [-1]), 4.0),
    # -(r - 3)^2 (r + 1): a touching top root
    "double_top": (_product([-3, 1], [-3, 1], [1, 1], [-1]), 3.0),
    # -(r^2 - 2)^2 (r + 1): an irrational touching root
    "irrational_double": (_product([-2, 0, 1], [-2, 0, 1], [1, 1], [-1]), 2 ** 0.5),
    # -(r - 1)(r - 2)((r - 5)^2 + 1): complex pair with real part 5 beyond the
    # largest real root, where Descartes' rule at r = 2 is inconclusive
    "complex_beyond": (_product([-1, 1], [-2, 1], [26, -10, 1], [-1]), 2.0),
    # one sign change (the Stieltjes shape): 6r + 6 - 2r^3
    "one_sign_change": ([6, 6, 0, -2], 2.1038034027355357),
    # -r^3 (r - 7)
    "zero_roots": (_product([0, 0, 0, 1], [-7, 1], [-1]), 7.0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_known_roots(name):
    coeffs, root = CASES[name]
    u = largest_real_root(coeffs)
    _assert_certified(coeffs, u)
    assert root <= u * (1 + 1e-15)
    assert abs(u - root) <= 1e-12 * max(1.0, root)


def test_complex_pair_beyond_uses_the_sturm_fallback(monkeypatch):
    calls = []
    real = roots._sturm_sequence
    monkeypatch.setattr(roots, "_sturm_sequence", lambda c: calls.append(c) or real(c))
    coeffs, root = CASES["complex_beyond"]
    u = largest_real_root(coeffs)
    assert calls
    assert abs(u - root) <= 1e-12 * root


def test_sign_of_the_leading_coefficient_does_not_matter():
    coeffs, root = CASES["simple"]
    assert largest_real_root([-c for c in coeffs]) == largest_real_root(coeffs)


def test_coefficients_beyond_float_range():
    # -(r - 3)(r + 1) * 10**400: same root, coefficients far past 1e308
    coeffs = [c * 10 ** 400 for c in _product([-3, 1], [1, 1], [-1])]
    u = largest_real_root(coeffs)
    assert abs(u - 3.0) <= 1e-12 * 3.0
    _assert_certified(coeffs, u)


def test_only_a_root_at_zero():
    assert largest_real_root([0, 0, -5]) == 0.0
    assert largest_real_root(_product([0, 1], [1, 0, 1], [-1])) == 0.0


def test_degenerate_inputs_raise():
    with pytest.raises(ValueError, match="non-constant"):
        largest_real_root([3])
    with pytest.raises(ValueError, match="non-constant"):
        largest_real_root([3, 0, 0])
    with pytest.raises(ValueError, match="no real root"):
        largest_real_root([-1, 0, -1])


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
    u = largest_real_root(coeffs)
    _assert_certified(coeffs, u)
    assert top <= u <= top + 1e-12 * max(1, abs(top))


def _assert_certified_below(coeffs, v):
    # zero at v, or the sign opposite to the leading coefficient: a real root
    # lies in [v, inf)
    assert _value(coeffs, v) * coeffs[-1] <= 0


@pytest.mark.parametrize("name", ["simple", "complex_beyond", "one_sign_change", "zero_roots"])
def test_known_simple_roots_from_below(name):
    coeffs, root = CASES[name]
    v = largest_real_root_below(coeffs)
    _assert_certified_below(coeffs, v)
    assert abs(v - root) <= 1e-12 * max(1.0, root)
    v_flipped = largest_real_root_below([-c for c in coeffs])
    _assert_certified_below([-c for c in coeffs], v_flipped)


def test_below_steps_down_from_an_estimate_above_the_root(monkeypatch):
    # -(r - 1/3)(r + 1): the estimate one nudge above 1/3 fails the sign test
    coeffs = _product([-1, 3], [1, 1], [-1])
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: 1.0 / 3.0 + 1e-9)
    v = largest_real_root_below(coeffs)
    _assert_certified_below(coeffs, v)
    assert v <= Fraction(1, 3) and 1.0 / 3.0 - v < 1e-8


def test_below_without_a_newton_estimate_falls_back(monkeypatch):
    coeffs, root = CASES["simple"]
    monkeypatch.setattr(roots, "_newton_estimate", lambda terms: None)
    v = largest_real_root_below(coeffs)
    _assert_certified_below(coeffs, v)
    assert abs(v - root) <= 1e-12 * root


def test_below_needs_a_sign_change():
    with pytest.raises(ValueError, match="changes sign"):
        largest_real_root_below(_product([-3, 1], [-3, 1], [-1]))
    with pytest.raises(ValueError, match="no real root"):
        largest_real_root_below([-1, 0, -1])


def test_below_beyond_float_range():
    coeffs = [c * 10 ** 400 for c in _product([-3, 1], [1, 1], [-1])]
    v = largest_real_root_below(coeffs)
    _assert_certified_below(coeffs, v)
    assert abs(v - 3.0) <= 1e-12 * 3.0


@settings(max_examples=60, deadline=None)
@given(
    real_roots=st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True),
    denominator=st.integers(1, 7),
    quadratics=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), max_size=2),
)
def test_simple_rational_roots_from_below(real_roots, denominator, quadratics):
    # roots r / denominator, mostly not floats, so the sign test decides
    factors = [[-r, denominator] for r in real_roots]
    factors += [[a * a + b * b, -2 * a, 1] for a, b in quadratics]
    coeffs = _product(*factors)
    top = Fraction(max(real_roots), denominator)
    v = largest_real_root_below(coeffs)
    _assert_certified_below(coeffs, v)
    assert v <= top and float(top) - v <= 1e-12 * max(1, abs(float(top)))
