"""Certified bracket around the largest real root of an integer polynomial.

`largest_real_root_bracket` returns two floats lo <= hi, adjacent or equal,
with the largest real root between them. One exact integer test decides
every step: "no real root in (u, inf)", by Descartes' rule on the Taylor
coefficients at u, with a Sturm count where that is inconclusive (complex
roots with real part beyond u). Newton steps down onto the root in floats
only seed the search. Upper bounds take hi, which passed the test; lower
bounds take lo, which failed it, so a real root lies in [lo, inf).

`no_real_root_above` runs that test once, at one float u > 0, on the same
normalised coefficients. An aggregate sweep rules out, without a bracket,
a class of twin vertices whose root cannot beat the best one found so far. The bound
families first try the exact sign of their polynomial at that cutoff and
ask this test only what the sign leaves open: `sdp` and `hankel_root` take
the sign from `sign_at` on their coefficient lists, and `stieltjes_root`
from its three terms in closed form.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

# bits kept when the coefficients are converted to floats for Newton
_FLOAT_BITS = 1000
# a Newton step this small, relative to the iterate, is the last one
_NEWTON_TOL = 2.0 ** -44


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


def _cauchy_bound(c: list[int]) -> float:
    """Every root has modulus below 1 + max |c_i / c_n|, rounded up to a power of 2."""
    lead = abs(c[-1])
    ratio = max(-(-abs(x) // lead) for x in c[:-1])
    return math.ldexp(1.0, (ratio + 1).bit_length())


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


def largest_real_root_bracket(coeffs: Sequence[int]) -> tuple[float, float]:
    """Floats lo <= hi around the largest real root of sum(coeffs[i] * r**i).

    The coefficients are Python ints, lowest degree first. Exactly, the
    polynomial has no real root in (hi, inf), so there it has the sign of
    its leading coefficient, and it has one in [lo, inf); touching roots
    count. lo is the largest float at or below the root, so it does not
    decrease as the root rises. hi is the next float, or lo itself when it
    passed the test while being the root, as the float top root of a
    real-rooted polynomial does. From the Newton estimate, steps of one
    unit in the last place, doubling, go up or down until the test passes
    at hi and fails at lo; without an estimate the Cauchy bound either side
    of zero brackets the root. Bisection then narrows the bracket to
    adjacent floats. Raises ValueError for a constant polynomial or one
    with no real root.
    """
    c, zeros = _normalized(coeffs)
    if len(c) == 1:
        return 0.0, 0.0
    certified = _Certifier(c)
    if zeros and certified(0.0):
        # no root of the rest lies above the roots at zero
        return 0.0, 0.0
    seed = _newton_estimate(certified.terms)
    if seed is None:
        hi = _cauchy_bound(c)
        lo = -hi
        if certified(lo):
            raise ValueError("polynomial has no real root")
    else:
        step = math.ulp(seed)
        if certified(seed):
            lo, hi = seed - step, seed
            while certified(lo):
                if lo < -_cauchy_bound(c):
                    raise ValueError("polynomial has no real root")
                step *= 2.0
                lo, hi = lo - step, lo
        else:
            lo, hi = seed, seed + step
            while not certified(hi):
                step *= 2.0
                lo, hi = hi, hi + step
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return (hi if certified.root == hi else lo), hi
