"""The exact certificate: its roots, its speed, and checks that fail when
a step of the proof is broken."""

import math
import time

import pytest

from conftest import KNOWN_SOLUTION, REFLECTED_SOLUTION
from unitdist import certify
from unitdist.certify import CertificateError, certified_roots
from unitdist.layout import RhombusParams
from unitdist.solver import DEFAULT_DEDUPE_TOL, enumerate_solutions

# the eliminants from the elimination in h, as certify builds it, and, in
# conftest's docstring, from a lexicographic Groebner basis in q; lowest
# degree first
T_OF_H = (160, -270, 129, 72, -96, 0, 16)
S_OF_Q = (-125, 600, 2205, 2400, 1512, 864, 288)


def test_roots_are_the_frozen_constants_bit_for_bit():
    roots = certified_roots()
    assert [[x.hex() for x in root] for root in roots] == \
        [[x.hex() for x in root] for root in (KNOWN_SOLUTION, REFLECTED_SOLUTION)]


def test_roots_are_exact_mirrors():
    (h, k, p, q), mirror = certified_roots()
    assert mirror == (k, h, -q, -p)


@pytest.mark.parametrize("coeffs, coordinate", [(T_OF_H, 0), (S_OF_Q, 3)])
def test_roots_solve_the_published_eliminants(coeffs, coordinate):
    # in floats: each value is within a few ulps of the polynomial's
    # rounding error bound at the root
    for root in certified_roots():
        x = root[coordinate]
        value = math.fsum(c * x ** i for i, c in enumerate(coeffs))
        scale = math.fsum(abs(c * x ** i) for i, c in enumerate(coeffs))
        assert abs(value) <= 1e-14 * scale, (root, value)


def test_default_enumeration_is_the_certified_roots():
    assert enumerate_solutions() == [RhombusParams(*x) for x in certified_roots()]


@pytest.mark.parametrize("rng_seed", range(30))
def test_sweeps_find_exactly_the_certified_roots(rng_seed):
    found = enumerate_solutions(1000, rng_seed)
    certified = certified_roots()
    assert len(found) == len(certified) == 2
    for got, want in zip(found, certified):
        assert max(abs(a - b) for a, b in zip(got, want)) < DEFAULT_DEDUPE_TOL


def test_certificate_takes_under_50_ms():
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        certified_roots()
        best = min(best, time.perf_counter() - start)
    assert best < 0.05, best


def _kernel(a=1.0, b=1.0, c=0.5, d=0.5, r2=4.0, r=1.0):
    """_residuals with its constants as parameters: the defaults give
    _residuals itself."""
    def residuals(h, k, p, q):
        ta, tb, tc, td = q - k + a, p + h - b, p - c * h, q + d * k
        return (h * h + k * k - r2, p * p + ta * ta - r, q * q + tb * tb - r,
                tc * tc + td * td - r)
    return residuals


def test_the_test_kernel_is_the_residual_kernel(monkeypatch):
    monkeypatch.setattr(certify, "_residuals", _kernel())
    assert certified_roots() == [KNOWN_SOLUTION, REFLECTED_SOLUTION]


@pytest.mark.parametrize("change", [{"a": 1.5}, {"b": 0.75}, {"c": 0.25},
                                    {"d": 2.0}, {"r2": 4.5}, {"r": 1.25}])
def test_a_changed_coefficient_breaks_the_certificate(monkeypatch, change):
    monkeypatch.setattr(certify, "_residuals", _kernel(**change))
    with pytest.raises(CertificateError):
        certified_roots()


@pytest.mark.parametrize("change", [{"a": 3.0}, {"b": 0.0}])
def test_the_d_zero_branch_catches_a_common_zero(monkeypatch, change):
    # these kernels give f1, D, Dp and Dq a common zero; without the D = 0
    # branch the first failing step would be another one
    monkeypatch.setattr(certify, "_residuals", _kernel(**change))
    with pytest.raises(CertificateError, match="the D = 0 branch is not empty"):
        certified_roots()


def test_sign_changes_skip_zeros():
    # constant chains, so x does not matter: + - 0 + - has 3 changes
    assert certify._variations([[1], [-2], [], [3], [-1]], 0) == 3
    assert certify._variations([[1], [], [2]], 0) == 0


def test_a_lost_sign_change_breaks_the_sturm_count(monkeypatch):
    # every Sturm chain evaluated left of 0 loses one sign change
    variations = certify._variations
    monkeypatch.setattr(certify, "_variations", lambda chain, x:
                        variations(chain, x) - (x < 0))
    with pytest.raises(CertificateError, match="the Sturm count of T is 1, not 2"):
        certified_roots()


def test_an_enclosure_that_spans_two_floats_raises():
    # h over [1, 1 + 2**-52] / 1, in units of 2**-_BITS: two floats
    one = 1 << certify._BITS
    with pytest.raises(CertificateError, match="spans the floats"):
        certify._rounded([0, 1], [1], one, one + (one >> 52))
    assert certify._rounded([0, 1], [1], one, one + 1) == 1.0


UNIT = 1 << certify._BITS  # 1 in units of 2**-_BITS


def _sturm_chain(t):
    """The Sturm chain of t, as certified_roots builds it."""
    chain = [t, certify._trim([i * c for i, c in enumerate(t)][1:])]
    while len(chain[-1]) > 1:
        chain.append(certify._add([], certify._rem(chain[-2], chain[-1]), -1))
    return chain


def _isolate_by_chain(chain, lo, hi, vlo, vhi):
    """_isolate bisecting by the whole Sturm chain down to unit width: the
    oracle for its intervals."""
    if vlo == vhi:
        return []
    if vlo - vhi == 1 and hi - lo <= 1:
        return [(lo, hi)]
    mid = (lo + hi) // 2
    vmid = certify._variations(chain, mid)
    return (_isolate_by_chain(chain, lo, mid, vlo, vmid)
            + _isolate_by_chain(chain, mid, hi, vmid, vhi))


def _chain_and_ends(t):
    chain = _sturm_chain(t)
    ends = [certify._variations(chain, x) for x in (-4 * UNIT, 4 * UNIT)]
    return chain, -4 * UNIT, 4 * UNIT, *ends


# on (-4, 4]: T and S, (3h - 1)(5h + 2)(7h - 4), and 2h - 1 and
# (2h - 1)(3h + 1), whose root 1/2 is a midpoint of the bisection by T's
# sign, so that T is 0 there
@pytest.mark.parametrize("t", [list(T_OF_H), list(S_OF_Q), [8, -18, -53, 105],
                               [-1, 2], [-1, -1, 6]],
                         ids=["T", "S", "three-roots", "half", "half-third"])
def test_isolation_by_sign_gives_the_chain_bisection_intervals(t):
    args = _chain_and_ends(t)
    got = certify._isolate(*args)
    assert got == _isolate_by_chain(*args)
    assert len(got) == args[3] - args[4]
    assert all(hi - lo == 1 for lo, hi in got)


def test_a_root_at_the_lower_end_of_an_isolating_interval_raises():
    # (4h - 1)(2h - 1): the chain separates the roots at the bisection
    # point 1/4, so 1/2 is isolated in (1/4, 1/2], where T(1/4) = 0
    args = _chain_and_ends([1, -6, 8])
    assert len(_isolate_by_chain(*args)) == 2
    with pytest.raises(CertificateError, match="T is 0 at the lower end"):
        certify._isolate(*args)
