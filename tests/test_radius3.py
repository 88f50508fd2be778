import copy
import hashlib
import json

import pytest

from leeperfect import nt, radius3
from leeperfect.groupring import AbelianGroup, all_ones, identity_element, power_map
from leeperfect.outcomes import Caps, Status, Tier


def test_order_polynomial_and_divisibility_classes():
    # 7 divides the radius-3 order exactly for n = 1, 3, 5 (mod 7), and
    # 7 | 2n+1 exactly for n = 3 (mod 7) - so 1 and 5 are the useful classes
    for n in range(3, 10_000):
        divisible = radius3.order_r3(n) % 7 == 0
        assert divisible == (n % 7 in (1, 3, 5)), n
        assert ((2 * n + 1) % 7 == 0) == (n % 7 == 3), n


def test_trivial_solution_gate_examples():
    g = radius3.trivial_solution_gate(3, 7)
    assert g.kind == "divides_2n_plus_1"
    g = radius3.trivial_solution_gate(5, 7)
    assert g.kind == "square_branch" and g.detail["c"] == 11
    g = radius3.trivial_solution_gate(12, 7)
    assert g.kind == "square_branch" and g.detail["c"] == 17
    assert radius3.trivial_solution_gate(8, 7).passed
    with pytest.raises(ValueError):
        radius3.trivial_solution_gate(4, 7)  # 7 does not divide the order


def test_constant_projection_algebra():
    # S = a + b*G over C_v satisfies the cubic identity exactly when both
    # coefficient polynomials vanish: f1 = a^3 + 3a^2 + 2a - 6an and
    # f2 = b((2n+1+a)(2n+1) + a^2 + 5 + 3a) - 6m
    rng = nt.seeded_rng(8, "r3-const")
    for v in (3, 5, 7, 11):
        G = AbelianGroup.cyclic(v)
        for _ in range(40):
            a = rng.randrange(-6, 7)
            b = rng.randrange(-4, 5)
            n = rng.randrange(0, 12)
            m = rng.randrange(1, 30)
            S = a * identity_element(G) + b * all_ones(G)
            lhs = S * S * S
            rhs = (
                6 * m * all_ones(G)
                - 3 * (power_map(S, 2) * S)
                - 2 * power_map(S, 3)
                + (6 * n) * S
            )
            f1 = a**3 + 3 * a**2 + 2 * a - 6 * a * n
            f2 = b * ((2 * n + 1 + a) * (2 * n + 1) + a**2 + 5 + 3 * a) - 6 * m
            identity_holds = lhs == rhs
            params_vanish = f1 == 0 and f2 == 0
            # needs 2n+1 = a + vb for the f2 reduction to be the G-coefficient
            if 2 * n + 1 == a + v * b:
                assert identity_holds == params_vanish, (v, a, b, n, m)


def test_square24_examples():
    assert radius3.square24_check(5).status is Status.UNDECIDED  # 121 = 11^2, 84 | 84
    out = radius3.square24_check(8)
    assert out.status is Status.EXCLUDED and out.tier is Tier.UNCONDITIONAL
    assert radius3.square24_check(4).status is Status.NOT_APPLICABLE


def test_square24_export_of_literal_square_reading():
    # the square branch compares c^2 +- 6c + 29 with c = sqrt(24n+1)
    out = radius3.square24_check(12)  # 289 = 17^2; 84 | 420
    assert out.status is Status.UNDECIDED
    assert out.certificate["c"] == 17


def test_orbit_r3_gate_blocks():
    out = radius3.orbit_check_r3(3)  # 7 | 2n+1
    assert out.status is Status.NOT_APPLICABLE
    out = radius3.orbit_check_r3(5)  # square branch
    assert out.status is Status.NOT_APPLICABLE
    out = radius3.orbit_check_r3(4)  # 7 does not divide the order
    assert out.status is Status.NOT_APPLICABLE


def _first_qualifying(cls5):
    n = 3
    while True:
        if n % 7 in (1, 5) and n % 5 == cls5 and radius3.order_r3(n) % 7 == 0:
            if radius3.trivial_solution_gate(n, 7).passed:
                return n
        n += 1


@pytest.mark.parametrize(
    "cls5,nontrivial,point_values",
    [
        (0, 3, [4]),     # candidates all reconstruct principal value 4 != 1
        (1, 9, [1, 4]),  # values never reach 3 = 2n+1
        (2, 0, []),      # no candidates beyond the trivial factor
        (3, 3, [3]),     # value 3 != 2
        (4, 0, []),      # projected cubic system empty beyond the trivial root
    ],
)
def test_orbit_r3_per_class(cls5, nontrivial, point_values):
    n = _first_qualifying(cls5)
    out = radius3.orbit_check_r3(n)
    assert out.status is Status.EXCLUDED, (cls5, n)
    cert = out.certificate
    assert cert["nontrivial_count"] == nontrivial
    assert cert["nontrivial_point_values"] == point_values
    assert cert["expected_coefficient_sum"] == (2 * n + 1) % 5
    assert not cert["unexplained"]


def test_orbit_r3_depends_only_on_class():
    a = radius3.orbit_check_r3(_first_qualifying(0))
    b = radius3.orbit_check_r3(_first_qualifying(0) + 35)  # same class mod 5 and mod 7
    if b.status is Status.EXCLUDED:
        assert a.certificate["survivor_count"] == b.certificate["survivor_count"]


def test_orbit_r3_generic_gated():
    with pytest.raises(ValueError):
        radius3.orbit_check_r3(8, v=23, p=5)


def test_orbit_r3_certificate_cannot_change_the_cached_class():
    n = _first_qualifying(1)
    first = radius3.orbit_check_r3(n)
    snapshot = copy.deepcopy(first.certificate)
    with pytest.raises(TypeError):
        first.certificate["survivors"][0]["tau"].append(0)
    with pytest.raises(TypeError):
        first.certificate["nontrivial_point_values"] += [99]
    assert radius3.orbit_check_r3(n).certificate == snapshot


# sha256 of json.dumps(class dict, sort_keys=True), computed before the two
# orbit criteria shared their survey and verdict code in orbitfield
_ORBIT_R3_CLASS_SHA256 = [
    "b053a91ea7f901d9905a9e48f003dd85401803ed2c08b660664da2a97a407db0",
    "f292f762e97d87649f574cc6bfef1ab49d85fe6af9c7d796d459ce9df263dd5e",
    "c66c80a47ee7f54a15905ddb1ffc9931f6d6365f6d6212a00ae9e4e625034cab",
    "5a5cc997d46a4c79c653ce1549c27e0ed0eb5e705d70be26541c713beb9e8580",
    "629df918546dd76e097683a0998bce8e25e075eba0981302511db018469975d2",
]


@pytest.mark.parametrize("n_mod_p", range(5))
def test_orbit_r3_class_dict_pinned(n_mod_p):
    cls = radius3._orbit_r3_class(7, 5, n_mod_p)
    digest = hashlib.sha256(json.dumps(cls, sort_keys=True).encode()).hexdigest()
    assert digest == _ORBIT_R3_CLASS_SHA256[n_mod_p]


def test_orbit_r3_tests_primality_first():
    # 9 does not divide order_r3(8) = 833 either, but primality is checked first
    with pytest.raises(ValueError, match="v and p must be prime"):
        radius3.orbit_check_r3(8, v=9, p=5, allow_generic=True)


@pytest.mark.parametrize("n, v", [(3, 3), (14, 3), (21, 3), (3, 5)])
def test_orbit_r3_needs_three_classes(n, v):
    # the projected cubic reads the classes 1, 2 and 3, which v = 3, 5 lack
    with pytest.raises(ValueError, match="v must be >= 7"):
        radius3.orbit_check_r3(n, v=v, p=2, allow_generic=True)


def test_orbit_r3_budget_skip():
    out = radius3.orbit_check_r3(8, Caps(search_node_budget=100))
    assert out.status is Status.SKIPPED and out.tier is None
    assert out.reason == "candidate space 5^3 exceeds the search budget"
    assert out.params == {"n": 8, "v": 7, "p": 5} and out.certificate == {}
