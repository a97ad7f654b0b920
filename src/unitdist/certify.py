"""The real roots of the rhombus embedding system, by exact elimination.

certified_roots runs the residual kernel _residuals on polynomials, so
f1..f4 are the solver's own formulas, and proves, in exact integer
arithmetic:

- L1 = f2 - f3 and L2 = f2 - f4 are linear in (p, q), with determinant D
  and Cramer numerators Dp, Dq in (h, k); f1 is k^2 - r(h).
- The D = 0 branch is empty: f1, D, Dp and Dq, which must all vanish
  there, have no common zero.
- Off it, D^2 f2 at the Cramer point, reduced by k^2 = r(h), is
  A(h) + B(h) k, so every root has A^2 - r B^2 = 0, and that resultant
  is h^2 (h - 2)^2 T(h) up to a constant.
- h in {0, 2} gives exactly the roots (0, 2, 0, 0) and (2, 0, 0, 0).
- T has exactly two real roots (Sturm count), and gcd(T, B) = 1,
  gcd(T, D B) = 1 and T(0) T(2) != 0, so each has one k = -A/B, one
  (p, q) and D != 0, and is not a root of the h in {0, 2} branch.

So the system has exactly four real roots, and exactly two with h > 0 and
k > 0.  Each root of T is separated from the other by the Sturm chain,
then bisected by the sign of T to a 2**-120-wide interval, and every
coordinate, a rational function of h, is enclosed over it by interval
Horner evaluation; it is accepted only when its enclosure rounds to one
float64, which is then the correctly rounded coordinate.  Any step that
fails raises CertificateError.  See Basu, Pollack and Roy, Algorithms in
Real Algebraic Geometry, chs. 1-2 and 10.

Univariate polynomials are int lists, lowest degree first; polynomials in
(h, k, p, q) are _Poly.  The module is kept short: with no bytecode
cache, every cold import of the package compiles it.
"""

import math

_BITS = 120  # each root of T is enclosed in an interval 2**-_BITS wide


class CertificateError(Exception):
    """A step of the proof does not hold."""


def _residuals(h, k, p, q):
    """The four residuals at (h, k, p, q): floats or _Poly.

    Each square is t * t: Python's ** calls pow, which can differ from
    t * t by an ulp, and raises OverflowError.
    """
    a, b, c, d = q - k + 1.0, p + h - 1.0, p - 0.5 * h, q + 0.5 * k
    return (h * h + k * k - 4.0, p * p + a * a - 1.0, q * q + b * b - 1.0,
            c * c + d * d - 1.0)


class _Poly:
    """A polynomial in (h, k, p, q): {exponent tuple: int coefficient}
    over one positive int denominator, so that numbers, a float through
    as_integer_ratio, combine with it exactly."""

    __slots__ = ("terms", "den")

    def __init__(self, terms, den=1):
        self.terms, self.den = terms, den

    def __add__(self, other):
        o = _poly(other)
        terms = {m: c * o.den for m, c in self.terms.items()}
        for m, c in o.terms.items():
            terms[m] = terms.get(m, 0) + c * self.den
        return _Poly(terms, self.den * o.den)

    def __mul__(self, other):
        o, terms = _poly(other), {}
        for m, c in self.terms.items():
            for n, e in o.terms.items():
                key = tuple(map(sum, zip(m, n)))
                terms[key] = terms.get(key, 0) + c * e
        return _Poly(terms, self.den * o.den)

    def __sub__(self, other):
        return self + _poly(other) * -1

    __rmul__ = __mul__


def _poly(x):
    if isinstance(x, _Poly):
        return x
    n, d = x.as_integer_ratio()
    return _Poly({(0, 0, 0, 0): n}, d)


def _linear_pq(f):
    """[a, b, c] in (h, k) with den f = a p + b q + c."""
    parts = {(1, 0): {}, (0, 1): {}, (0, 0): {}}
    for (i, j, ep, eq), c in f.terms.items():
        if (ep, eq) in parts:
            parts[ep, eq][i, j, 0, 0] = c
        elif c:
            raise CertificateError("f2 - f3 or f2 - f4 is not linear in p, q")
    return [_Poly(t) for t in parts.values()]


def _mod_f1(f, r):
    """[g0, g1] in h with den f = g0 + g1 k modulo k^2 - r(h)."""
    out = [[], []]
    for (i, j, ep, eq), c in f.terms.items():
        if (ep or eq) and c:
            raise CertificateError("a polynomial in (h, k) has p or q")
        g = [0] * i + [c]
        for _ in range(j // 2):
            g = _mul(g, r)
        out[j % 2] = _add(out[j % 2], g)
    return out


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, sign=1):
    """a + b, or a - b with sign -1."""
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim([x + sign * y for x, y in zip(a, b)])


def _mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _at(g, x, y):
    """y g(h, -x/y), for g = [g0, g1] linear in k."""
    return _add(_mul(g[0], y), _mul(g[1], x), -1)


def _eval(a, x, scale=0):
    """2**(scale deg a) a(x / 2**scale), for an int x: an int with the
    sign of a there."""
    acc = 0
    for i, c in enumerate(reversed(a)):
        acc = acc * x + (c << scale * i)
    return acc


def _rem(a, b):
    """A positive multiple of a mod b, with its content divided out."""
    while a and len(a) >= len(b):
        g = math.gcd(a[-1], b[-1])
        ma, mb = abs(b[-1]) // g, a[-1] // g * (1 if b[-1] > 0 else -1)
        a = [ma * x for x in a]
        for i, y in enumerate(b, len(a) - len(b)):
            a[i] -= mb * y
        _trim(a)
    g = math.gcd(*a) or 1
    return [x // g for x in a]


def _gcd_is_one(a, *rest):
    """Whether the polynomials have no common complex root."""
    for b in rest:
        while b:
            a, b = b, _rem(a, b)
    return len(a) == 1


def _deflate(a, x):
    """a / (h - x), or CertificateError unless a(x) = 0."""
    q = [0]
    for c in reversed(a):
        q.append(q[-1] * x + c)
    if q.pop():
        raise CertificateError("h^2 (h - 2)^2 does not divide the resultant")
    return q[:0:-1]


def _variations(chain, x):
    """Sign changes of the Sturm chain at x / 2**_BITS."""
    signs = [v for v in (_eval(a, x, _BITS) for a in chain) if v]
    return sum(u * v < 0 for u, v in zip(signs, signs[1:]))


def _isolate(chain, lo, hi, vlo, vhi):
    """Intervals (a, b] of (lo, hi], in units of 2**-_BITS, one unit wide
    and each holding one root of chain[0]; vlo and vhi are the sign
    changes at lo and hi.  The chain counts and separates the roots; an
    interval that holds one root, a sign change of the squarefree
    chain[0], is halved by chain[0]'s sign alone."""
    if vlo == vhi:
        return []
    if vlo - vhi != 1:
        mid = (lo + hi) // 2
        vmid = _variations(chain, mid)
        return (_isolate(chain, lo, mid, vlo, vmid)
                + _isolate(chain, mid, hi, vmid, vhi))
    t = chain[0]
    sign = _eval(t, lo, _BITS)
    if not sign:
        raise CertificateError(
            "T is 0 at the lower end of an isolating interval")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = _eval(t, mid, _BITS)
        if v and (v > 0) == (sign > 0):
            lo = mid
        else:
            hi = mid
    return [(lo, hi)]


def _rounded(num, den, lo, hi):
    """The float64 that num(h)/den(h) rounds to for every h in
    [lo, hi] / 2**_BITS, or CertificateError."""
    bounds = []
    for a in num, den:  # interval Horner: bounds of _eval(a, x, _BITS)
        acc = (0, 0)
        for i, c in enumerate(reversed(a)):
            ends = [e * x + (c << _BITS * i) for e in acc for x in (lo, hi)]
            acc = (min(ends), max(ends))
        bounds.append(acc)
    (nlo, nhi), (dlo, dhi) = bounds
    if dlo <= 0 <= dhi:
        raise CertificateError("a denominator's enclosure contains 0")
    shift = _BITS * (len(den) - len(num))
    # int / int rounds correctly, and so monotonically: the enclosure is
    # spanned by the four corner quotients
    ends = {(n << max(shift, 0)) / (d << max(-shift, 0))
            for n in (nlo, nhi) for d in (dlo, dhi)}
    if len(ends) != 1:
        raise CertificateError(f"an enclosure spans the floats {ends}")
    return ends.pop()


def certified_roots():
    """The two real roots with h > 0 and k > 0, as correctly rounded
    (h, k, p, q) floats in increasing order of h; see the module docstring."""
    one = (0, 0, 0, 0)
    f1, f2, f3, f4 = _residuals(*(_Poly({one[:i] + (1,) + one[i + 1:]: 1})
                                  for i in range(4)))
    (a1, b1, c1), (a2, b2, c2) = _linear_pq(f2 - f3), _linear_pq(f2 - f4)
    d, dp, dq = a1 * b2 - a2 * b1, b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
    r = _add([], _mod_f1(f1, [])[0], -1)
    if _mod_f1(f1, r) != [[], []]:
        raise CertificateError("f1 is not k^2 - r(h)")
    n = _Poly({})  # D^2 f2(h, k, Dp/D, Dq/D)
    for (i, j, ep, eq), c in f2.terms.items():
        term = _Poly({(i, j, 0, 0): c})
        for g in [dp] * ep + [dq] * eq + [d] * (2 - ep - eq):
            term = term * g
        n += term
    # on f1 = 0: D = d0 + d1 k, Dp and Dq likewise, and N = A + B k
    (d0, d1), pk, qk, (a, b) = (_mod_f1(g, r) for g in (d, dp, dq, n))

    def norm(x, y):  # y^2 (k^2 - r) at k = -x/y
        return _add(_mul(x, x), _mul(r, _mul(y, y)), -1)

    # D = 0: a solvable singular system has Dp = Dq = 0.  Where d1 = 0,
    # D = 0 fails; elsewhere k = -d0/d1.
    if not (_gcd_is_one(d0, d1) and _gcd_is_one(
            norm(d0, d1), _at(pk, d0, d1), _at(qk, d0, d1))):
        raise CertificateError("the D = 0 branch is not empty")
    t = norm(a, b)
    for x in 0, 0, 2, 2:
        t = _deflate(t, x)

    # h in {0, 2}: k^2 = r(h), and off D = 0, (p, q) is the Cramer point
    found = []
    for h in 0, 2:
        k = math.isqrt(_eval(r, h))
        if k * k != _eval(r, h):
            raise CertificateError(f"r({h}) is not a square")
        for k in sorted({k, -k}):
            nv, dv, pv, qv = (_eval(g0, h) + _eval(g1, h) * k
                              for g0, g1 in ((a, b), (d0, d1), pk, qk))
            if nv == 0 and dv:
                # an int quotient is 0.0 only when its numerator is 0
                found.append((h, k, pv / dv, qv / dv))
    if found != [(0, 2, 0, 0), (2, 0, 0, 0)]:
        raise CertificateError(f"h in {{0, 2}} gives the roots {found}")

    db = _at((d0, d1), a, b)
    if not _gcd_is_one(t, _mul(_mul(b, db), [0, -2, 1])):
        raise CertificateError("T shares a root with h (h - 2) B D B")
    chain = [t, _trim([i * c for i, c in enumerate(t)][1:])]
    while len(chain[-1]) > 1:
        chain.append(_add([], _rem(chain[-2], chain[-1]), -1))
    if not chain[-1]:
        raise CertificateError("T is not squarefree")
    bound = (2 + max(map(abs, t)) // abs(t[-1])) << _BITS
    ends = [_variations(chain, x) for x in (-bound, bound)]
    if ends[0] - ends[1] != 2:
        raise CertificateError(
            f"the Sturm count of T is {ends[0] - ends[1]}, not 2")

    roots = []
    for lo, hi in _isolate(chain, -bound, bound, *ends):
        x = tuple(_rounded(num, den, lo, hi) for num, den in
                  (([0, 1], [1]), (_add([], a, -1), b), (_at(pk, a, b), db),
                   (_at(qk, a, b), db)))
        if not (x[0] > 0 and x[1] > 0):
            raise CertificateError(f"a root of T has h or k not positive: {x}")
        roots.append(x)
    return roots
