"""Pass/fail reporting structures shared by the verification suites."""

from dataclasses import dataclass


@dataclass
class CheckOutcome:
    """One named check and its witness: the first failing case, None if none."""

    name: str
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_doc(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass
class SuiteReport:
    """A named collection of check outcomes."""

    suite: str
    checks: list[CheckOutcome]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_doc() for c in self.checks],
        }
