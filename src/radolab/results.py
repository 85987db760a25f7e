"""Result types shared by the decision procedures: verdicts, per-filter
evidence, and asymptotic class structures."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class Status(str, enum.Enum):
    PR = "PR"
    NOT_PR = "NOT_PR"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class OrderedPartition:
    """Asymptotic class structure I_1 >> ... >> I_s over variable indices.

    Earlier classes dominate later ones; indices are 0-based positions in the
    equation's variable list.
    """

    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("asymptotic classes must be nonempty")
            if not seen.isdisjoint(cls):
                raise ValueError("asymptotic classes must be disjoint")
            seen.update(cls)

    @staticmethod
    def of(*classes) -> "OrderedPartition":
        return OrderedPartition(tuple(frozenset(c) for c in classes))

    def size(self) -> int:
        return sum(len(c) for c in self.classes)

    def named(self, variables: tuple[str, ...]) -> list[list[str]]:
        return [[variables[i] for i in sorted(c)] for c in self.classes]


@dataclass
class FilterResult:
    """Outcome of one NOT-PR necessary-condition check."""

    filter_name: str
    fired: bool
    applicable: bool
    evidence: dict[str, Any] = field(default_factory=dict)
    citation: str = ""

    def __post_init__(self):
        if self.fired and not self.evidence:
            raise ValueError("a fired filter must carry evidence")


@dataclass
class Verdict:
    status: Status
    certificate: Optional[dict[str, Any]] = None
    reasons: list[FilterResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.status is Status.PR and self.certificate is None:
            raise ValueError("a PR verdict requires a certificate")
        if self.status is Status.NOT_PR and not self.reasons:
            raise ValueError("a NOT_PR verdict requires at least one reason")
