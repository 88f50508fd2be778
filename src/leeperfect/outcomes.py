"""Shared result types: criterion outcomes, exclusion tiers, resource caps."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Optional


class Status(enum.Enum):
    EXCLUDED = "excluded"
    NOT_APPLICABLE = "not_applicable"
    UNDECIDED = "undecided"
    SKIPPED = "skipped"


class Tier(enum.Enum):
    # UNCONDITIONAL: the exclusion is reproducible from this artifact's own
    # arithmetic/search alone.  CITED: it additionally leans on the published
    # characteristic-zero factor argument for the surviving candidates.
    UNCONDITIONAL = "unconditional"
    CITED = "cited"


@dataclass
class CriterionOutcome:
    """One criterion's verdict for one dimension, with its evidence."""

    criterion: str
    status: Status
    tier: Optional[Tier] = None
    reason: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    certificate: dict[str, Any] = field(default_factory=dict)

    @property
    def excluded(self) -> bool:
        return self.status is Status.EXCLUDED

    def to_json(self) -> dict[str, Any]:
        return {
            "criterion": self.criterion,
            "status": self.status.value,
            "tier": self.tier.value if self.tier else None,
            "reason": self.reason,
            "params": self.params,
            "certificate": self.certificate,
        }

    @staticmethod
    def from_json(d: dict[str, Any]) -> "CriterionOutcome":
        return CriterionOutcome(
            criterion=d["criterion"],
            status=Status(d["status"]),
            tier=Tier(d["tier"]) if d.get("tier") else None,
            reason=d.get("reason", ""),
            params=d.get("params", {}),
            certificate=d.get("certificate", {}),
        )


class _ReadOnlyDict(dict):
    """A dict that refuses changes; it pickles and copies as a plain dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a cached result is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return dict, (dict(self),)


class _ReadOnlyList(list):
    """A list that refuses changes; it pickles and copies as a plain list."""

    _refuse = _ReadOnlyDict._refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse

    def __reduce__(self):
        return list, (list(self),)


def read_only(obj: Any) -> Any:
    """obj with every dict and list replaced by a read-only copy.

    The copy compares equal to the original and serializes to the same JSON,
    so an lru_cache'd result can go into every certificate without a copy
    per certificate and without one caller's change reaching the next.
    """
    if isinstance(obj, dict):
        return _ReadOnlyDict((k, read_only(v)) for k, v in obj.items())
    if isinstance(obj, list):
        return _ReadOnlyList(read_only(v) for v in obj)
    return obj


class InternalInconsistencyError(Exception):
    """A criterion excluded a dimension for which a witness is known."""


@dataclass(frozen=True)
class Caps:
    """Resource caps and determinism knobs, echoed into every report header."""

    max_field_degree: int = 80
    max_unity_enum: int = 65536
    factor_budget: int = 10_000_000
    search_node_budget: int = 100_000_000
    seed: int = 2024
    thread_count: int = 1

    def __post_init__(self):
        for name, v in asdict(self).items():
            if v <= 0:
                raise ValueError(f"cap {name} must be positive")

    def to_json(self) -> dict[str, int]:
        return asdict(self)

    @staticmethod
    def from_json(d: dict[str, int]) -> "Caps":
        return Caps(**d)

    @staticmethod
    def from_file(path: str | Path) -> "Caps":
        """Flat `key = value` text format."""
        values: dict[str, int] = {}
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in Caps.__dataclass_fields__:
                raise ValueError(f"unknown caps key: {key!r}")
            values[key] = int(val.strip())
        return Caps(**values)

    def to_file(self, path: str | Path):
        lines = [f"{k} = {v}" for k, v in asdict(self).items()]
        Path(path).write_text("\n".join(lines) + "\n")


DEFAULT_CAPS = Caps()
