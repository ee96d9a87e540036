"""Light-weight result type shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckOutcome:
    """Outcome of one named verification: a flag plus witness lines."""

    passed: bool = True
    details: list[str] = field(default_factory=list)
    # witness -> [its line in details, first unit, units after it]
    _unit_failures: dict = field(default_factory=dict, repr=False, compare=False)

    def note(self, line: str) -> None:
        self.details.append(line)

    def fail(self, witness: str) -> None:
        self.passed = False
        self.details.append(witness)

    def fail_unit(self, witness: str, unit: tuple[int, int]) -> None:
        """Fail on one matrix unit of a walk over the units.  Each witness
        keeps one line: its first unit, then how many more units failed it."""
        seen = self._unit_failures.get(witness)
        if seen is None:
            self._unit_failures[witness] = [len(self.details), unit, 0]
            self.fail(f"{witness} on unit {unit}")
        else:
            seen[2] += 1
            more = f"{seen[2]} more unit" + "s" * (seen[2] > 1)
            self.details[seen[0]] = f"{witness} on unit {seen[1]} and {more}"

    def merge(self, other: "CheckOutcome") -> "CheckOutcome":
        self.passed = self.passed and other.passed
        self.details.extend(other.details)
        return self
