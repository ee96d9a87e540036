"""Light-weight result type shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckOutcome:
    """Outcome of one named verification: a flag plus witness lines."""

    passed: bool = True
    details: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.details.append(line)

    def fail(self, witness: str) -> None:
        self.passed = False
        self.details.append(witness)

    def merge(self, other: "CheckOutcome") -> "CheckOutcome":
        self.passed = self.passed and other.passed
        self.details.extend(other.details)
        return self
