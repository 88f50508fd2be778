"""Nonexistence verification for linear perfect Lee codes of radius 2 and 3.

A linear perfect Lee code in dimension n with radius r is equivalent to a
lattice tiling of Z^n by Lee spheres S(n, r), and - through the standard
group-homomorphism correspondence - to an abelian group of order |S(n, r)|
together with n generator images whose signed sphere sums are a bijection.
This package decides, dimension by dimension, whether the known algebraic
criteria exclude such a code, emits auditable certificates, reproduces the
published count tables, and cross-checks everything against an exhaustive
witness search at tiny scale.
"""

from .geometry import (
    CodeWitness,
    enumerate_sphere,
    group_order_r2,
    group_order_r3,
    lee_distance,
    render_tiling,
    sphere_size,
    verify_witness,
)
from .groupring import (
    AbelianGroup,
    GroupRingElement,
    build_T,
    power_map,
    verify_r2_identity,
    verify_r3_identity,
)
from .oracle import enumerate_abelian_groups, oracle_verdict, search_code
from .outcomes import Caps, CriterionOutcome, InternalInconsistencyError, Status, Tier
from .survey import VERSION as __version__
from .survey import Verdict, check, counts, emit, parse_report, reproduce_table, scan

__all__ = [
    "AbelianGroup",
    "Caps",
    "CodeWitness",
    "CriterionOutcome",
    "GroupRingElement",
    "InternalInconsistencyError",
    "Status",
    "Tier",
    "Verdict",
    "build_T",
    "check",
    "counts",
    "emit",
    "enumerate_abelian_groups",
    "enumerate_sphere",
    "group_order_r2",
    "group_order_r3",
    "lee_distance",
    "oracle_verdict",
    "parse_report",
    "power_map",
    "render_tiling",
    "reproduce_table",
    "scan",
    "search_code",
    "sphere_size",
    "verify_r2_identity",
    "verify_r3_identity",
    "verify_witness",
]
