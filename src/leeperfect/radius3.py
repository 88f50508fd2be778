"""Nonexistence criteria for linear perfect Lee codes of radius 3.

The group order is |S(n, 3)|, geometry.group_order_r3(n).  Three pieces:

* trivial_solution_gate - the constant projections that satisfy the cubic
  identity whenever v | 2n+1, or when 24n+1 is a square c^2 with 12v
  dividing c^2 +- 6c + 29; no projection argument can apply there.
* square24_check - the arithmetic corollary for v = 7: dimensions n = 1, 5
  (mod 7) are excluded when 24n+1 is not a square, or is a square c^2 with
  84 dividing neither c^2 + 6c + 29 nor c^2 - 6c + 29.
* orbit_check_r3 - the 125-candidate search over chi(T) mod 5 reproducing
  the published machine verification behind square24: Frobenius-consistent
  solutions of the projected cubic system, the reconstruction filters, and
  classification against the trivial factor tau(tau^2 + 3tau - 6n + 2).
  This module supplies the cubic residual, the re-check of its three
  rotations on each survivor, the factor test, the gate and the count of
  nontrivial survivors; the scan, the reconstruction and the verdict are
  orbitfield's, shared with radius 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import nt
from .geometry import group_order_r3
from .orbitfield import CosineField, budget_skip, class_survey, search_outcome
from .outcomes import Caps, CriterionOutcome, DEFAULT_CAPS, Status, Tier, read_only


# ---------------------------------------------------------------------------
# trivial-solution gate and the v = 7 corollary
# ---------------------------------------------------------------------------


@dataclass
class GateResult:
    kind: str  # "pass" | "divides_2n_plus_1" | "square_branch"
    detail: dict

    @property
    def passed(self) -> bool:
        return self.kind == "pass"


def trivial_solution_gate(n: int, v: int) -> GateResult:
    """Does a constant projection already satisfy the cubic identity?

    If v | 2n+1 the uniform multiple of the quotient group works; if 24n+1
    is a square c^2 and 12v divides c^2 + 6c + 29 or c^2 - 6c + 29, the
    affine constant solution works.  Either way no exclusion can come from
    the projection, so the criteria report NotApplicable.
    """
    if group_order_r3(n) % v != 0:
        raise ValueError(f"{v} does not divide the radius-3 order")
    if (2 * n + 1) % v == 0:
        return GateResult("divides_2n_plus_1", {"v": v})
    c = nt.is_perfect_square(24 * n + 1)
    if c is not None:
        plus, minus = c * c + 6 * c + 29, c * c - 6 * c + 29
        if plus % (12 * v) == 0 or minus % (12 * v) == 0:
            return GateResult(
                "square_branch",
                {"c": c, "plus": plus, "minus": minus, "divisor": 12 * v},
            )
    return GateResult("pass", {"sqrt_24n_plus_1": c})


def square24_check(n: int) -> CriterionOutcome:
    """The v = 7 arithmetic test on 24n+1 for n = 1, 5 (mod 7)."""
    if n < 3:
        raise ValueError("square24_check requires n >= 3")
    params = {"n": n, "order": group_order_r3(n)}
    if n % 7 not in (1, 5):
        return CriterionOutcome(
            "square24", Status.NOT_APPLICABLE,
            reason="needs n = 1 or 5 (mod 7), where 7 divides the order but not 2n+1",
            params=params,
        )
    c = nt.is_perfect_square(24 * n + 1)
    if c is None:
        return CriterionOutcome(
            "square24", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"24n+1 = {24 * n + 1} is not a perfect square",
            params=params, certificate={"square": False},
        )
    plus, minus = c * c + 6 * c + 29, c * c - 6 * c + 29
    cert = {"square": True, "c": c, "plus": plus, "minus": minus}
    if plus % 84 != 0 and minus % 84 != 0:
        return CriterionOutcome(
            "square24", Status.EXCLUDED, tier=Tier.UNCONDITIONAL,
            reason=f"84 divides neither {plus} nor {minus}",
            params=params, certificate=cert,
        )
    return CriterionOutcome(
        "square24", Status.UNDECIDED,
        reason="24n+1 is a square and a constant solution remains possible",
        params=params, certificate=cert,
    )


# ---------------------------------------------------------------------------
# the 125-candidate search over chi(T) mod 5
# ---------------------------------------------------------------------------


ORBIT_INSTANCE = (7, 5)  # (v, p) of the published verification


@lru_cache(maxsize=None)
def _orbit_r3_class(v: int, p: int, n_mod_p: int) -> dict:
    """Class-level search; the projected system depends on n only mod p."""
    F = CosineField(p, v)
    six_n = 6 * n_mod_p % p

    def cubic(a, b, c3):
        return (F.mul(F.square(a), a) + 3 * F.mul(b, a) + 2 * c3 - six_n * a) % p

    def cubic_at_1(tau):
        # projected cubic at the generator class; its Frobenius images at the
        # other classes hold automatically and are re-asserted by kind_of
        values = F.class_values(tau)
        return cubic(values[1], values[2], values[3])

    def kind_of(row, vals):
        for a, b, c3 in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            assert not cubic(vals[a], vals[b], vals[c3]).any(), "cubic system broke cyclicity"
        # trivial factor tau (tau^2 + 3 tau - 6n + 2)
        triv_quad = (F.square(row[None, :])[0] + 3 * row) % p
        triv_quad[0] = (triv_quad[0] - (six_n - 2)) % p
        return "trivial_factor" if not row.any() or not triv_quad.any() else "other"

    summary = class_survey(F, F.roots(cubic_at_1), n_mod_p, kind_of)
    nontrivial = [r for r in summary["survivors"] if r["class"] == "other"]
    return read_only({
        **summary,
        "nontrivial_count": len(nontrivial),
        "nontrivial_point_values": sorted({r["principal_point_value"] for r in nontrivial}),
    })


def orbit_check_r3(
    n: int, caps: Caps = DEFAULT_CAPS, v: Optional[int] = None, p: Optional[int] = None,
    allow_generic: bool = False,
) -> CriterionOutcome:
    """Reproduction of the published mod-5 verification for the v = 7
    quotient; v and p default to the published instance ORBIT_INSTANCE,
    read at call time."""
    if n < 3:
        raise ValueError("orbit_check_r3 requires n >= 3")
    if v is None:
        v = ORBIT_INSTANCE[0]
    if p is None:
        p = ORBIT_INSTANCE[1]
    params = {"n": n, "v": v, "p": p}
    if (v, p) != ORBIT_INSTANCE and not allow_generic:
        raise ValueError(f"instance (v={v}, p={p}) is experimental; pass allow_generic=True")
    if not nt.is_prime(v) or not nt.is_prime(p):
        raise ValueError("v and p must be prime")
    if v < 7:
        raise ValueError(f"the projected cubic reads classes 1 to 3, so v must be >= 7 (got {v})")
    order = group_order_r3(n)
    if order % v != 0:
        return CriterionOutcome(
            "orbit_r3", Status.NOT_APPLICABLE, reason=f"{v} does not divide the order",
            params=params,
        )
    gate = trivial_solution_gate(n, v)
    if not gate.passed:
        return CriterionOutcome(
            "orbit_r3", Status.NOT_APPLICABLE,
            reason=f"trivial constant solution exists ({gate.kind})",
            params=params, certificate={"gate": gate.detail, "gate_kind": gate.kind},
        )
    skip = budget_skip("orbit_r3", params, caps)
    if skip is not None:
        return skip
    return search_outcome(
        "orbit_r3", params, {"gate": gate.detail, **_orbit_r3_class(v, p, n % p)},
        "no Frobenius-consistent solution of the projected cubic system",
        "the trivial factor",
    )
