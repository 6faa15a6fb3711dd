"""Validate one rendered configuration against a compiled checker.

This is the deployment half of the paper's argument: constraints
inferred from source code (`repro.core`) are worth nothing to a user
until something *checks their config file* against them before the
system boots and misbehaves.  `validate_config` parses a config text
with the system's own dialect, runs every compiled per-parameter and
cross-parameter validator, and returns structured `Diagnostic`s.

Diagnostics follow the paper's title: they never blame the user.
Every message states what the *software* requires (with the code
location the constraint was inferred from as evidence) and every
diagnostic carries a concrete, actionable suggestion.

Usage::

    from repro.checker import checker_for_system, validate_config
    from repro.systems import get_system

    checker = checker_for_system(get_system("mysql"))
    report = validate_config(checker, "ft_min_word_len = 99\n")
    for diagnostic in report.errors():
        print(diagnostic.describe())
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.inject.ar import ConfigAR
from repro.lang.source import Location

# Severity levels.  "error" marks a setting the constraints prove
# wrong (the fleet's precision/recall currency); "warning" marks a
# setting the checker cannot prove wrong but has evidence against.
ERROR = "error"
WARNING = "warning"

# Diagnostic kind slugs - the constraint-category vocabulary shared
# with `repro.study.cases` (Tables 9-10) and `repro.checker.corpus`.
KIND_BASIC = "basic"
KIND_SEMANTIC = "semantic"
KIND_RANGE = "range"
KIND_CTRL_DEP = "ctrl_dep"
KIND_VALUE_REL = "value_rel"
KIND_ACCESS_CONTROL = "access_control"
KIND_UNKNOWN_PARAM = "unknown"

CONSTRAINT_KINDS = (
    KIND_BASIC,
    KIND_SEMANTIC,
    KIND_RANGE,
    KIND_CTRL_DEP,
    KIND_VALUE_REL,
    KIND_ACCESS_CONTROL,
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding about one configuration setting.

    `code` is a stable slug identifying the *check* (not the value),
    so calibration can suppress findings the shipped default config
    itself trips, and tooling can group findings across fleets.
    `evidence` points at the source line the constraint was inferred
    from - the proof that the requirement is the software's, not an
    arbitrary opinion about the user's input.
    """

    param: str
    kind: str  # one of the kind slugs above
    code: str
    severity: str  # ERROR | WARNING
    message: str
    suggestion: str
    evidence: Location
    config_line: int | None = None

    def describe(self) -> str:
        where = f" (line {self.config_line})" if self.config_line else ""
        return (
            f"[{self.severity}] {self.param}{where}: {self.message}\n"
            f"    fix: {self.suggestion}\n"
            f"    evidence: {self.evidence}"
        )

    def summary_dict(self) -> dict:
        return {
            "param": self.param,
            "kind": self.kind,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "suggestion": self.suggestion,
            "evidence": str(self.evidence),
            "config_line": self.config_line,
        }

    @property
    def suppression_key(self) -> tuple[str, str]:
        return (self.param, self.code)


@dataclass
class ValidationReport:
    """Every diagnostic for one config file, plus coverage counts."""

    system: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    parameters_checked: int = 0
    parameters_present: int = 0

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def flagged(self) -> bool:
        """Does the checker consider this config provably wrong?"""
        return any(d.severity == ERROR for d in self.diagnostics)

    def kinds_flagged(self) -> tuple[str, ...]:
        out: list[str] = []
        for diagnostic in self.diagnostics:
            if diagnostic.severity == ERROR and diagnostic.kind not in out:
                out.append(diagnostic.kind)
        return tuple(out)

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.kind] = counts.get(diagnostic.kind, 0) + 1
        return counts

    def summary_dict(self) -> dict:
        return {
            "system": self.system,
            "flagged": self.flagged,
            "parameters_present": self.parameters_present,
            "parameters_checked": self.parameters_checked,
            "diagnostics": [d.summary_dict() for d in self.diagnostics],
        }


def validate_config(checker, config_text: str) -> ValidationReport:
    """Check one rendered config against a `CompiledChecker`.

    Parsing uses the system's own config dialect, so line numbers in
    diagnostics match what the user sees in their editor.  Validators
    run in deterministic order: per-parameter checks in file order,
    then cross-parameter checks in compile order, then unknown-name
    detection; calibration suppression (findings the shipped default
    config itself trips) applies last.
    """
    ar = ConfigAR.parse(config_text, checker.dialect)
    # First occurrence wins, matching `ConfigAR.get` semantics; the
    # insertion-ordered dict preserves file order for the pass below.
    values: dict[str, tuple[str, int]] = {}
    for entry in ar.entries:
        values.setdefault(entry.name, (entry.value, entry.lineno))

    report = ValidationReport(
        system=checker.system, parameters_present=len(values)
    )
    for name, (value, lineno) in values.items():
        validators = checker.param_validators.get(name)
        if validators is None:
            continue
        report.parameters_checked += 1
        for validator in validators:
            report.diagnostics.extend(validator(value, lineno))
    for pair_validator in checker.pair_validators:
        report.diagnostics.extend(pair_validator(values))
    report.diagnostics.extend(_unknown_params(checker, values))
    if checker.suppressed:
        report.diagnostics = [
            d
            for d in report.diagnostics
            if d.suppression_key not in checker.suppressed
        ]
    return report


def _unknown_params(checker, values: dict[str, tuple[str, int]]):
    """Names the inference never saw: likely typos.  Warning-level -
    an unknown name proves nothing by itself, but the near-miss
    suggestion is exactly what a blameless error message should say."""
    out = []
    for name, (_, lineno) in values.items():
        if name in checker.known_params:
            continue
        close = difflib.get_close_matches(
            name, checker.known_sorted, n=1, cutoff=0.8
        )
        suggestion = (
            f"did you mean {close[0]!r}?"
            if close
            else f"remove the line or check the {checker.system} manual"
        )
        out.append(
            Diagnostic(
                param=name,
                kind=KIND_UNKNOWN_PARAM,
                code="unknown-parameter",
                severity=WARNING,
                message=(
                    f"{checker.system} never reads a parameter named "
                    f"{name!r}"
                ),
                suggestion=suggestion,
                evidence=Location("<mapping>", 0, 0),
                config_line=lineno,
            )
        )
    return out
