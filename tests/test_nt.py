import math

import pytest
from hypothesis import example, given, settings, strategies as st

from leeperfect import nt


def test_is_prime_examples():
    assert nt.is_prime(21013)
    assert not nt.is_prime(1)
    assert not nt.is_prime(85)
    assert nt.is_prime(2) and nt.is_prime(3)
    assert not nt.is_prime(0) and not nt.is_prime(-7)


def test_is_prime_certified_flags():
    ok, det = nt.is_prime_certified(2**61 - 1)
    assert ok and det  # below the deterministic bound
    big = 2**127 - 1  # Mersenne prime above the bound
    ok, det = nt.is_prime_certified(big)
    assert ok and not det


def test_factorize_examples():
    assert nt.factorize(85).as_dict() == {5: 1, 17: 1}
    assert nt.factorize(13).as_dict() == {13: 1}
    assert nt.factorize(4901).as_dict() == {13: 2, 29: 1}
    assert nt.factorize(1).factors == ()


def test_factorize_recomposes_and_reports_primes():
    rng = nt.seeded_rng(1, "test-factorize")
    for _ in range(400):
        n = rng.randrange(1, 10**6)
        fac = nt.factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert nt.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_larger_semiprimes():
    p, q = 1_000_003, 1_000_033
    fac = nt.factorize(p * q)
    assert fac.as_dict() == {p: 1, q: 1}


def _factorize_reference(n, budget=None, seed=0):
    """Reference for nt.factorize: trial division by every integer below
    10^4, a primality test on every cofactor and an rng built up front."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors = {}
    deterministic = True
    m = n
    for p in range(2, nt._TRIAL_DIVISION_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    budget_box = [budget if budget is not None else 10**7]
    stack = [m] if m > 1 else []
    rng = nt.seeded_rng(seed, "pollard", n)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        prime, det = nt.is_prime_certified(m, seed)
        deterministic = deterministic and det
        if prime:
            factors[m] = factors.get(m, 0) + 1
            continue
        for k in range(2, m.bit_length() + 1):
            r = nt._iroot(m, k)
            if r**k == m:
                stack.extend([r] * k)
                break
        else:
            d = nt._pollard_brent(m, rng, budget_box)
            stack.extend([d, m // d])
    return nt.Factorization(n, tuple(sorted(factors.items())), deterministic)


def _factor_outcome(factor, n, budget):
    try:
        fac = factor(n, budget=budget)
    except nt.BudgetExceeded:
        return "budget exceeded"
    return fac.factors, fac.deterministic


def _next_prime(k):
    while not nt.is_prime(k):
        k += 1
    return k


_PRIMES_ABOVE_1E4 = st.integers(10**4, 10**6).map(_next_prime)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(1, 10**9),
        st.tuples(_PRIMES_ABOVE_1E4, _PRIMES_ABOVE_1E4).map(math.prod),
    ),
    st.sampled_from([None, 1, 40, 300]),
)
@example(9973**2, None)  # the largest prime square the trial division finds
@example(99_999_989, None)  # the largest prime below 10^8
@example(10**8 + 7, None)  # a prime just past the shortcut bound
@example(10_007 * 10_009, None)  # composite, no prime factor below 10^4
@example(2 * 10_007 * 10_009, None)
@example(10_007 * 10_009, 1)
@example(3 * (2**127 - 1), None)  # a cofactor above the deterministic MR bound
def test_factorize_matches_reference(n, budget):
    assert _factor_outcome(nt.factorize, n, budget) == _factor_outcome(
        _factorize_reference, n, budget)


@pytest.mark.parametrize("n, factors", [
    (9973**2, ((9973, 2),)),
    (99_999_989, ((99_999_989, 1),)),
    (10**8 + 7, ((10**8 + 7, 1),)),
    (10_007 * 10_009, ((10_007, 1), (10_009, 1))),
    (2 * 10_007 * 10_009, ((2, 1), (10_007, 1), (10_009, 1))),
])
def test_factorize_around_the_trial_division_bound(n, factors):
    fac = nt.factorize(n)
    assert fac.factors == factors and fac.deterministic


def test_factorize_builds_the_rho_rng_only_for_rho(monkeypatch):
    calls = []
    real = nt.seeded_rng

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nt, "seeded_rng", counted)
    assert nt.factorize(2 * 3 * 5 * 10_007).as_dict() == {2: 1, 3: 1, 5: 1, 10_007: 1}
    assert calls == []
    assert nt.factorize(10_007 * 10_009).as_dict() == {10_007: 1, 10_009: 1}
    assert calls == [(0, "pollard", 10_007 * 10_009)]


def test_sqrt_mod_against_the_squares():
    for q in nt.TRIAL_PRIMES[1:200] + (9973,):
        squares = {x * x % q for x in range(q)}
        for a in range(-6, q):
            s = nt.sqrt_mod(a, q)
            if a % q in squares:
                assert s is not None and 0 <= s < q and s * s % q == a % q, (a, q)
            else:
                assert s is None, (a, q)


def test_factor_budget_exceeded():
    with pytest.raises(nt.BudgetExceeded):
        nt.factorize(1_000_003 * 1_000_033 * 1_000_037 * 1_000_039, budget=1)


def test_perfect_squares():
    assert nt.is_perfect_square(25) == 5
    assert nt.is_perfect_square(65) is None
    assert nt.is_perfect_square(0) == 0
    for k in range(1, 10**5, 97):
        assert nt.is_perfect_square(k * k) == k
        assert nt.is_perfect_square(k * k + 1) is None


def test_mult_order_examples():
    assert nt.mult_order(2, 5) == 4
    assert nt.mult_order(4, 13) == 6
    assert nt.mult_order(7, 421) == 70
    with pytest.raises(ValueError):
        nt.mult_order(5, 25)


def test_mult_order_properties():
    rng = nt.seeded_rng(2, "test-order")
    for _ in range(60):
        m = rng.randrange(3, 3000)
        a = rng.randrange(2, m)
        if math.gcd(a, m) != 1:
            continue
        k = nt.mult_order(a, m)
        assert pow(a, k, m) == 1
        for q in nt.factorize(k).primes():
            assert pow(a, k // q, m) != 1


def test_discrete_log_examples():
    assert nt.discrete_log(2, 1, 13, 12) == 0
    assert nt.discrete_log(2, 5, 13, 12) == 9
    assert nt.discrete_log(4, 7, 13, 6) is None


def test_discrete_log_exhaustive_small_moduli():
    for m in (11, 101, 997):
        fac = nt.factorize(m - 1)
        for base in (2, 3, 5):
            if base % m == 0:
                continue
            order = nt.mult_order(base, m, fac)
            powers = {}
            x = 1
            for j in range(order):
                powers.setdefault(x, j)
                x = x * base % m
            for target in range(1, m):
                assert nt.discrete_log(base, target, m, order) == powers.get(target)


def test_seeded_rng_stable():
    assert nt.seeded_rng(1, "x").random() == nt.seeded_rng(1, "x").random()
    assert nt.seeded_rng(1, "x").random() != nt.seeded_rng(2, "x").random()
