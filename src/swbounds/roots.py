"""Certified bracket around the largest real root of an integer polynomial.

`largest_real_root_bracket` returns two floats lo <= hi, adjacent or equal,
with the largest real root between them. One exact integer test decides
every step: "no real root in (u, inf)", by Descartes' rule on the Taylor
coefficients at u, with a Sturm count where that is inconclusive (complex
roots with real part beyond u). Newton steps down onto the root in floats
only seed the search. Upper bounds take hi, which passed the test; lower
bounds take lo, which failed it, so a real root lies in [lo, inf).

`three_term_root_bracket` is the same bracket for a + b r - c r**n (a >= 0,
b > 0, c > 0, n >= 2), the shape of the Stieltjes and clique root bounds.
Its coefficients change sign once, so the root is the one positive one and
the test at u > 0 is the closed-form sign `three_term_sign`, with Newton on
the three terms as the seed. Both run one step-and-bisect search
(`_search`) under their own exact test.

`no_real_root_above` runs the dense test once, at one float u > 0, on the
same normalised coefficients. An aggregate sweep rules out, without a
bracket, a class of twin vertices whose root cannot beat the best one found
so far. The bound families first try the exact sign of their polynomial at
that cutoff and ask this test only what the sign leaves open: `sdp` and
`hankel_root` take the sign from `sign_at` on their coefficient lists, and
`stieltjes_root` from `three_term_sign`, which decides it alone.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Sequence

# bits kept when the coefficients are converted to floats for Newton
_FLOAT_BITS = 1000
# a Newton step this small, relative to the iterate, is the last one
_NEWTON_TOL = 2.0 ** -44
_FLOAT_MAX = sys.float_info.max


def _newton_from_above(terms: list[tuple[int, float]]) -> Optional[float]:
    """Newton steps down onto the largest root from a point beyond it.

    Where only the positive terms count, t f_i r**i < -f_n r**n for all of
    them past r = max_i (t f_i / -f_n)**(1/(n-i)), so no root lies beyond.
    While the polynomial is concave the steps decrease onto the largest
    root; None when they cross it by more than rounding or pass a local
    maximum (a touching root, or complex roots further right).
    """
    n, lead = terms[-1]
    lead = -lead
    lower = terms[:-1]
    positive = [(i, x) for i, x in lower if x > 0.0]
    if not positive:
        return None
    scale = math.log(len(positive)) - math.log(lead)
    r = max(math.exp((math.log(x) + scale) / (n - i)) for i, x in positive)
    for _ in range(100):
        top = lead * r ** (n - 1)
        value = -top * r
        slope = -n * top
        for i, x in lower:
            if i:
                term = x * r ** (i - 1)
                value += term * r
                slope += i * term
            else:
                value += x
        if slope >= 0.0:
            return None
        step = value / slope
        if abs(step) <= _NEWTON_TOL * r:
            return r - step
        if step < 0.0:
            return None
        r -= step
    return None


class _Certifier:
    """Exact test that an integer polynomial with negative leading coefficient
    has no real root above a float u (so it is negative on (u, inf)).
    `root` is the last u that passed while being a root itself."""

    def __init__(self, c: list[int]) -> None:
        self.c = c
        self.degree = len(c) - 1
        self.terms = [(i, x) for i, x in enumerate(c) if x]
        self.second = self.terms[-2][0]
        self.root: Optional[float] = None
        self._sturm: Optional[list[list[int]]] = None

    def __call__(self, u: float) -> bool:
        p, q = u.as_integer_ratio()
        e = q.bit_length() - 1
        d = self.degree
        # the k-th Taylor coefficient at u = p / 2**e, times 2**(e*(d-k)) > 0;
        # for u >= 0 those above the second-highest term have the leading sign
        top_k = self.second if p >= 0 else d - 1
        at_root = False
        for k in range(top_k + 1):
            total = 0
            for i, x in self.terms:
                if i > k:
                    total += x * math.comb(i, k) * p ** (i - k) << (e * (d - i))
                elif i == k:
                    total += x << (e * (d - i))
            if k == 0:
                if total > 0:
                    return False  # positive at u, negative at infinity
                at_root = total == 0
            elif total > 0:
                # Descartes is inconclusive; Sturm decides, except at a root of c
                return not at_root and self._sturm_count(u) == 0
        if at_root:
            self.root = u
        return True

    def _sturm_count(self, u: float) -> int:
        """Distinct real roots above u (not itself a root)."""
        if self._sturm is None:
            self._sturm = _sturm_sequence(self.c)
        at_u = [sign_at(s, u) for s in self._sturm]
        at_inf = [1 if s[-1] > 0 else -1 for s in self._sturm]
        return _variations(at_u) - _variations(at_inf)


def sign_at(a: Sequence[int], u: float) -> int:
    """The exact sign (-1, 0 or 1) of sum(a[i] * r**i) at the float u, by
    Horner on a(p/q) * q**deg with u = p / q, q = 2**e."""
    p, q = u.as_integer_ratio()
    e = q.bit_length() - 1
    h = a[-1]
    for j, x in enumerate(reversed(a[:-1]), start=1):
        h = h * p + (x << (e * j))
    return (h > 0) - (h < 0)


def _variations(signs: list[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of -(a mod b), divided by its content."""
    a = list(a)
    db = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(a) > db and a:
        lead = a[-1]
        shift = len(a) - 1 - db
        a = [scale * x for x in a[:-1]]
        for i in range(db):
            a[shift + i] -= sign * lead * b[i]
        while a and a[-1] == 0:
            a.pop()
    if not a:
        return []
    content = math.gcd(*a)
    return [-x // content for x in a]


def _sturm_sequence(c: list[int]) -> list[list[int]]:
    seq = [c, [i * x for i, x in enumerate(c)][1:]]
    while len(seq[-1]) > 1:
        rem = _negated_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    return seq


def _cauchy_bound(c: Sequence[int]) -> float:
    """Every root has modulus below 1 + max |c_i / c_n|, rounded up to a
    power of 2; the largest finite float when that power lies beyond it."""
    lead = abs(c[-1])
    bits = (max(-(-abs(x) // lead) for x in c[:-1]) + 1).bit_length()
    return math.ldexp(1.0, bits) if bits < sys.float_info.max_exp else _FLOAT_MAX


def _normalized(coeffs: Sequence[int]) -> tuple[list[int], int]:
    """The coefficients without trailing zeros, negated if need be so that
    the leading one is negative, and divided by the largest power of r that
    divides them; and that power (the multiplicity of the root at zero)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ValueError("need a non-constant polynomial")
    zeros = next(i for i, x in enumerate(c) if x)
    c = c[zeros:]
    return ([-x for x in c] if c[-1] > 0 else c), zeros


def no_real_root_above(coeffs: Sequence[int], u: float) -> bool:
    """Whether sum(coeffs[i] * r**i) has no real root in (u, inf), exactly.

    The coefficients are Python ints, lowest degree first, and u > 0 is a
    float. True means every real root is at most u; False means a real root
    lies in [u, inf). It is the test `largest_real_root_bracket` runs at
    each step, so it is True at its hi and at every float above, and False
    at every float below its lo. Raises ValueError for a constant
    polynomial or u <= 0.
    """
    if not u > 0.0:
        raise ValueError(f"need u > 0, got {u!r}")
    c, _ = _normalized(coeffs)
    # the roots at zero lie below u; without them a constant has no root
    return len(c) == 1 or _Certifier(c)(u)


def _newton_estimate(terms: list[tuple[int, int]]) -> Optional[float]:
    """_newton_from_above on the nonzero terms, scaled into float range."""
    shift = max(0, max(abs(x).bit_length() for _, x in terms) - _FLOAT_BITS)
    return _newton_from_above([(i, float(x >> shift)) for i, x in terms])


def _no_real_root(bound: float) -> ValueError:
    if bound == _FLOAT_MAX:
        return ValueError("polynomial has no real root in the float range")
    return ValueError("polynomial has no real root")


def _search(test: _Certifier | _ThreeTerm, seed: Optional[float],
            c: Sequence[int]) -> tuple[float, float]:
    """The bracket of the largest real root of a polynomial under its exact
    `test` of "no real root in (u, inf)", which records in `test.root` the
    last u that passed while being a root itself. `c` lists coefficients
    with the leading one last, read only for the Cauchy bound.

    From the float `seed`, steps of one unit in the last place, doubling, go
    up or down until the test passes at hi and fails at lo; without a seed
    the Cauchy bound either side of zero brackets the root. Bisection then
    narrows the bracket to adjacent floats. No step goes past the largest
    finite float, and a capped Cauchy bound is tested like any other point,
    so no hi that failed the test is returned: a largest real root beyond
    the float range raises ValueError.
    """
    if seed is None:
        hi = _cauchy_bound(c)
        if hi == _FLOAT_MAX and not test(hi):
            raise ValueError("the largest real root lies beyond the float range")
        lo = -hi
        if test(lo):
            raise _no_real_root(hi)
    else:
        step = math.ulp(seed)
        if test(seed):
            lo, hi = seed - step, seed
            while test(lo):
                floor = -_cauchy_bound(c)
                if lo <= floor:
                    raise _no_real_root(-floor)
                step *= 2.0
                lo, hi = max(lo - step, floor), lo
        else:
            lo, hi = seed, seed + step
            while not test(hi):
                if hi == _FLOAT_MAX:
                    raise ValueError("the largest real root lies beyond the float range")
                step *= 2.0
                lo, hi = hi, min(hi + step, _FLOAT_MAX)
    while True:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if not lo < mid < hi:
            break
        if test(mid):
            hi = mid
        else:
            lo = mid
    return (hi if test.root == hi else lo), hi


def largest_real_root_bracket(coeffs: Sequence[int]) -> tuple[float, float]:
    """Floats lo <= hi around the largest real root of sum(coeffs[i] * r**i).

    The coefficients are Python ints, lowest degree first. Exactly, the
    polynomial has no real root in (hi, inf), so there it has the sign of
    its leading coefficient, and it has one in [lo, inf); touching roots
    count. lo is the largest float at or below the root, so it does not
    decrease as the root rises. hi is the next float, or lo itself when it
    passed the test while being the root, as the float top root of a
    real-rooted polynomial does. `_search` finds them from the Newton
    estimate, or from the Cauchy bound without one. Raises ValueError for a
    constant polynomial, one with no real root, or one whose largest real
    root lies beyond the float range.
    """
    c, zeros = _normalized(coeffs)
    if len(c) == 1:
        return 0.0, 0.0
    certified = _Certifier(c)
    if zeros and certified(0.0):
        # no root of the rest lies above the roots at zero
        return 0.0, 0.0
    return _search(certified, _newton_estimate(certified.terms), c)


def three_term_sign(a: int, b: int, c: int, n: int, u: float) -> int:
    """The exact sign (-1, 0 or 1) of a + b*r - c*r**n (n >= 1) at the
    float u: at u = p / 2**e, times 2**(e*n) > 0."""
    p, q = u.as_integer_ratio()
    e = q.bit_length() - 1
    diff = (((a << e) + b * p) << (e * (n - 1))) - c * p ** n
    return (diff > 0) - (diff < 0)


class _ThreeTerm:
    """The exact test of `_Certifier` for a + b r - c r**n with a >= 0 and
    b, c > 0: its one sign change leaves one root r* > 0, with the
    polynomial positive on (0, r*) and negative beyond. So no real root lies
    in (u, inf) exactly when u > 0 and the sign at u is not positive."""

    def __init__(self, a: int, b: int, c: int, n: int) -> None:
        self.a, self.b, self.c, self.n = a, b, c, n
        self.root: Optional[float] = None

    def __call__(self, u: float) -> bool:
        if not u > 0.0:
            return False
        sign = three_term_sign(self.a, self.b, self.c, self.n, u)
        if sign == 0:
            self.root = u
        return sign <= 0


def _three_term_seed(a: int, b: int, c: int, n: int) -> Optional[float]:
    """Newton steps down onto the positive root of a + b r - c r**n.

    With r = 2**t s the polynomial over c 2**(t n) is x + y s - s**n, with
    x = a / (c 2**(t n)) and y = b / (c 2**(t (n-1))) each rounded once from
    the ints, and t the least exponent that makes both at most 1/2, so no
    float overflows however large a and b are beside c. Past
    max((2x)**(1/n), (2y)**(1/(n-1))) <= 1, s**n exceeds both positive terms
    together; from there the steps decrease onto the root, as the
    polynomial is concave on s > 0. None when the floats fail that, or when
    the root may lie beyond the float range.
    """
    bits = c.bit_length() - 2
    t = max(-((bits - a.bit_length()) // n), -((bits - b.bit_length()) // (n - 1)))
    if t >= sys.float_info.max_exp:
        return None
    if t >= 0:
        x, y = a / (c << t * n), b / (c << t * (n - 1))
    else:
        x, y = (a << -t * n) / c, (b << -t * (n - 1)) / c
    s = max((2.0 * x) ** (1.0 / n), (2.0 * y) ** (1.0 / (n - 1)))
    for _ in range(100):
        top = s ** (n - 1)
        slope = y - n * top
        if not slope < 0.0:
            return None
        step = (x + (y - top) * s) / slope
        if abs(step) <= _NEWTON_TOL * s:
            return math.ldexp(s - step, t)
        if not 0.0 < step < s:
            return None
        s -= step
    return None


def three_term_root_bracket(a: int, b: int, c: int, n: int) -> tuple[float, float]:
    """`largest_real_root_bracket` of a + b*r - c*r**n, for ints a >= 0,
    b > 0, c > 0 and n >= 2, with no coefficient list: the same lo <= hi
    around its one positive root, from the same search under the closed-form
    sign `three_term_sign`."""
    if not (a >= 0 and b > 0 and c > 0 and n >= 2):
        raise ValueError("need a >= 0, b > 0, c > 0 and n >= 2")
    return _search(_ThreeTerm(a, b, c, n), _three_term_seed(a, b, c, n), (a, b, -c))
