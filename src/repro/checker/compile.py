"""Compile a constraint set into a reusable config validator.

One `SpexReport` (the inference half of the paper) becomes one
`CompiledChecker`: per-parameter validator closures for basic-type,
semantic-type and range constraints, cross-parameter closures for
control dependencies and value relationships, plus the environment
facts (filesystem, ports, users, hosts) semantic checks consult.
Compilation happens once per inference fingerprint - the fleet layer
caches checkers content-addressed, so re-checking a million configs
never re-infers and never re-compiles.

Two properties make the checker safe to put in front of users:

* **Calibration** - the shipped default config must validate clean.
  Any finding the pristine template itself trips is recorded at
  compile time and suppressed thereafter, so inference false
  positives never page a user whose config matches the vendor's.
* **Conservatism** - a setting is an *error* only when a compiled
  constraint proves it wrong (type, range, relationship, dependency,
  or an environment fact).  Everything weaker is a warning.

Usage::

    from repro.checker import checker_for_system, validate_config
    from repro.systems import get_system

    checker = checker_for_system(get_system("postgresql"))
    report = validate_config(checker, open(path).read())
"""

from __future__ import annotations

import difflib
import math
import re
from dataclasses import dataclass, field
from typing import Callable

from repro.core.constraints import (
    AccessControlConstraint,
    BasicTypeConstraint,
    Behavior,
    ControlDepConstraint,
    EnumRangeConstraint,
    NumericRangeConstraint,
    SemanticTypeConstraint,
    ValueRelConstraint,
)
from repro.core.engine import SpexOptions, SpexReport
from repro.inject.ar import ConfigAR, ConfigDialect
from repro.knowledge import SemanticType
from repro.lang import types as ct
from repro.lang.source import Location
from repro.runtime.os_model import node_allows, valid_ipv4
from repro.systems.base import SubjectSystem, decode_bool, decode_size
from repro.checker.validate import (
    ERROR,
    KIND_ACCESS_CONTROL,
    KIND_BASIC,
    KIND_CTRL_DEP,
    KIND_RANGE,
    KIND_SEMANTIC,
    KIND_VALUE_REL,
    WARNING,
    Diagnostic,
    validate_config,
)

# A per-parameter validator: (value text, config line) -> diagnostics.
Validator = Callable[[str, int | None], list[Diagnostic]]
# A cross-parameter validator: {param: (value, line)} -> diagnostics.
PairValidator = Callable[[dict[str, tuple[str, int]]], list[Diagnostic]]

_SUFFIXED = re.compile(r"^[+-]?\d+(?:\.\d+)?\s*[a-zA-Z]+$")


@dataclass(frozen=True)
class EnvView:
    """Immutable snapshot of the deployment environment.

    Checkers validate environment-dependent semantics (paths, ports,
    users, hostnames) against the same `EmulatedOS` state the system
    would boot into, captured once at compile time so validator
    closures stay pure and thread-safe.
    """

    paths: dict[str, bool]  # path -> is_dir
    occupied_ports: frozenset[int]
    users: frozenset[str]
    groups: frozenset[str]
    hosts: frozenset[str]
    # ACL facts for access-control validators; paths absent from these
    # maps fall back to permissive defaults (a bare EnvView without
    # ACL data never *proves* an access denial).
    modes: dict[str, int] = field(default_factory=dict)
    owners: dict[str, str] = field(default_factory=dict)
    read_only: frozenset[str] = frozenset()

    @classmethod
    def from_os(cls, os_model) -> "EnvView":
        return cls(
            paths={
                path: node.is_dir for path, node in os_model.files.items()
            },
            occupied_ports=frozenset(os_model.occupied_ports),
            users=frozenset(os_model.users),
            groups=frozenset(os_model.groups),
            hosts=frozenset(os_model.hosts),
            modes={
                path: node.mode for path, node in os_model.files.items()
            },
            owners={
                path: node.owner for path, node in os_model.files.items()
            },
            read_only=frozenset(
                path
                for path, node in os_model.files.items()
                if not node.writable
            ),
        )

    def exists(self, path: str) -> bool:
        return path in self.paths

    def is_dir(self, path: str) -> bool:
        return self.paths.get(path, False)

    def parent_exists(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0] or "/"
        return self.paths.get(parent, False)

    def resolves(self, name: str) -> bool:
        return name in self.hosts or valid_ipv4(name)

    def can_read(self, path: str, user: str) -> bool:
        return self._allows(path, user, write=False)

    def can_write(self, path: str, user: str) -> bool:
        return self._allows(path, user, write=True)

    def _allows(self, path: str, user: str, write: bool) -> bool:
        # `node_allows` is the runtime's rule verbatim, so the static
        # checker and the emulated OS agree on every verdict.
        return node_allows(
            self.modes.get(path, 0o777),
            self.owners.get(path, user),
            path not in self.read_only,
            user,
            write,
        )


@dataclass
class CompiledChecker:
    """A `ConstraintSet` compiled into closures, ready to validate.

    Instances are immutable-by-convention after `compile_checker`
    returns (the fleet shares one checker across worker threads).
    """

    system: str
    dialect: ConfigDialect
    known_params: frozenset[str]
    param_validators: dict[str, tuple[Validator, ...]]
    pair_validators: tuple[PairValidator, ...]
    defaults: dict[str, str]
    env: EnvView
    spex_key: str = ""
    constraints_compiled: int = 0
    # (param, code) pairs the pristine default config trips; suppressed
    # in every later validation (see module docstring: calibration).
    suppressed: frozenset[tuple[str, str]] = frozenset()
    calibration: tuple[Diagnostic, ...] = ()
    # `known_params` in sorted order, built once: the near-miss search
    # for every unknown name reads it.
    known_sorted: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.known_sorted = tuple(sorted(self.known_params))

    def check(self, config_text: str):
        """Convenience alias for `validate_config(self, text)`."""
        return validate_config(self, config_text)


def compile_checker(
    spex_report: SpexReport,
    system: SubjectSystem,
    env: EnvView | None = None,
    spex_key: str = "",
) -> CompiledChecker:
    """Compile one system's inferred constraints into a checker."""
    if env is None:
        env = EnvView.from_os(system.make_os())
    template = ConfigAR.parse(system.default_config, system.dialect)
    defaults = {entry.name: entry.value for entry in template.entries}

    per_param: dict[str, list[Validator]] = {}
    pairs: list[PairValidator] = []
    compiled = 0
    seen: set[tuple] = set()
    for constraint in spex_report.constraints:
        identity = _constraint_identity(constraint)
        if identity is None or identity in seen:
            continue
        seen.add(identity)
        built = _compile_one(constraint, env, defaults)
        if built is None:
            continue
        compiled += 1
        if isinstance(
            constraint,
            (
                ControlDepConstraint,
                ValueRelConstraint,
                AccessControlConstraint,
            ),
        ):
            # Access-control checks join the cross-parameter pass: the
            # path verdict can hinge on a second (identity) parameter.
            pairs.append(built)
        else:
            per_param.setdefault(constraint.param, []).append(built)

    known = set(spex_report.parameters) | set(defaults)
    checker = CompiledChecker(
        system=system.name,
        dialect=system.dialect,
        known_params=frozenset(known),
        param_validators={
            param: tuple(validators)
            for param, validators in per_param.items()
        },
        pair_validators=tuple(pairs),
        defaults=defaults,
        env=env,
        spex_key=spex_key,
        constraints_compiled=compiled,
    )
    # Calibrate: whatever the vendor's own template trips is inference
    # noise, not a user mistake; record and suppress it.
    baseline = validate_config(checker, system.default_config)
    checker.calibration = tuple(baseline.diagnostics)
    checker.suppressed = frozenset(
        diagnostic.suppression_key for diagnostic in baseline.diagnostics
    )
    return checker


def checker_for_system(
    system: SubjectSystem,
    options: SpexOptions | None = None,
    caches=None,
    env: EnvView | None = None,
) -> CompiledChecker:
    """Fetch (or infer + compile) the checker for one system.

    With a `PipelineCaches`, inference is served by content fingerprint
    from the shared `InferenceCache` and the compiled checker from the
    `checkers` cache, so repeated fleet runs and `check` invocations
    never re-run SPEX for an unchanged program.
    """
    from repro.inject.campaign import Campaign
    from repro.pipeline.cache import PipelineCaches, checker_fingerprint

    caches = caches or PipelineCaches()
    spex_key = caches.inference.key_for(system, options)
    checker_key = checker_fingerprint(
        spex_key, system.default_config, repr(system.dialect)
    )
    campaign = Campaign(
        system,
        spex_options=options or SpexOptions(),
        inference_cache=caches.inference,
    )
    return caches.checkers.get_or_compute(
        checker_key,
        lambda: compile_checker(
            campaign.run_spex(), system, env=env, spex_key=spex_key
        ),
    )


# -- constraint compilation --------------------------------------------------


def _constraint_identity(constraint) -> tuple | None:
    """Location-free identity, so duplicate inferences (same fact seen
    at two code sites) compile to one validator."""
    if isinstance(constraint, BasicTypeConstraint):
        return (constraint.param, "basic", repr(constraint.type))
    if isinstance(constraint, SemanticTypeConstraint):
        return (
            constraint.param,
            "semantic",
            constraint.semantic,
            constraint.unit,
        )
    if isinstance(constraint, NumericRangeConstraint):
        return (
            constraint.param,
            "nrange",
            constraint.valid_lo,
            constraint.valid_hi,
        )
    if isinstance(constraint, EnumRangeConstraint):
        return (
            constraint.param,
            "erange",
            constraint.values,
            constraint.case_sensitive,
        )
    if isinstance(constraint, ControlDepConstraint):
        return (
            constraint.param,
            "ctrl_dep",
            constraint.dep_param,
            constraint.op,
            constraint.value,
        )
    if isinstance(constraint, ValueRelConstraint):
        normalized = constraint.normalized()
        return (
            normalized.param,
            "value_rel",
            normalized.op,
            normalized.other_param,
        )
    if isinstance(constraint, AccessControlConstraint):
        return (
            constraint.param,
            "access",
            constraint.operation,
            constraint.user_param,
        )
    return None


def _compile_one(constraint, env: EnvView, defaults: dict[str, str]):
    if isinstance(constraint, BasicTypeConstraint):
        return _compile_basic(constraint)
    if isinstance(constraint, SemanticTypeConstraint):
        return _compile_semantic(constraint, env)
    if isinstance(constraint, NumericRangeConstraint):
        return _compile_numeric_range(constraint)
    if isinstance(constraint, EnumRangeConstraint):
        return _compile_enum_range(constraint)
    if isinstance(constraint, ControlDepConstraint):
        return _compile_control_dep(constraint, defaults)
    if isinstance(constraint, ValueRelConstraint):
        return _compile_value_rel(constraint, defaults)
    if isinstance(constraint, AccessControlConstraint):
        return _compile_access_control(constraint, env, defaults)
    return None


def _compile_basic(constraint: BasicTypeConstraint) -> Validator | None:
    param, location, typ = constraint.param, constraint.location, constraint.type
    if isinstance(typ, ct.IntType):
        if typ.signed:
            lo, hi = -(1 << (typ.bits - 1)), (1 << (typ.bits - 1)) - 1
        else:
            lo, hi = 0, (1 << typ.bits) - 1

        def check_int(value: str, line: int | None) -> list[Diagnostic]:
            text = value.strip()
            # Config front ends feed switch words through the same
            # integer slot (vsftpd's YES/NO, squid's on/off); a word
            # the boolean decoder understands is not a type mistake.
            if isinstance(decode_bool(text), int):
                return []
            parsed = _parse_int(text)
            if parsed is not None:
                if parsed < lo or parsed > hi:
                    return [
                        _diag(
                            param, KIND_BASIC, "int-overflow", line, location,
                            f"{parsed} overflows the {typ.bits}-bit storage "
                            f"{param} is kept in (valid: {lo}..{hi})",
                            f"use a value between {lo} and {hi}",
                        )
                    ]
                return []
            fractional = _parse_float(text)
            # Non-finite floats ("nan", "1e999") are not representable
            # integers either way; they fall through to the plain
            # not-a-number diagnostic instead of a rounding suggestion.
            if fractional is not None and math.isfinite(fractional):
                return [
                    _diag(
                        param, KIND_BASIC, "fractional-int", line, location,
                        f"{param} is stored as an integer; {text!r} has a "
                        "fractional part the software cannot represent",
                        f"use a whole number, e.g. {int(fractional)}",
                    )
                ]
            if _SUFFIXED.match(text):
                # The Figure 1 class ("9G" read as 9 bytes): spell out
                # the number the user almost certainly meant.
                intended = decode_size(text)
                fix = (
                    f"write the full number: {intended}"
                    if isinstance(intended, int)
                    else "write the full number without a unit suffix"
                )
                return [
                    _diag(
                        param, KIND_BASIC, "unit-suffix", line, location,
                        f"{param} is parsed as a plain integer; the "
                        f"suffix in {text!r} is not understood and would "
                        "be read as a tiny value or rejected",
                        fix,
                    )
                ]
            return [
                _diag(
                    param, KIND_BASIC, "not-an-integer", line, location,
                    f"{param} is an integer setting; {text!r} is not a "
                    "number",
                    "use a whole number",
                )
            ]

        return check_int
    if isinstance(typ, ct.BoolType):

        def check_bool(value: str, line: int | None) -> list[Diagnostic]:
            if isinstance(decode_bool(value), int):
                return []
            return [
                _diag(
                    param, KIND_BASIC, "not-a-boolean", line, location,
                    f"{param} is an on/off switch; {value.strip()!r} is "
                    "neither",
                    "use one of: yes, no, on, off, true, false, 1, 0",
                )
            ]

        return check_bool
    if isinstance(typ, ct.FloatType):

        def check_float(value: str, line: int | None) -> list[Diagnostic]:
            if _parse_float(value.strip()) is not None:
                return []
            return [
                _diag(
                    param, KIND_BASIC, "not-a-number", line, location,
                    f"{param} is numeric; {value.strip()!r} is not a "
                    "number",
                    "use a numeric value",
                )
            ]

        return check_float
    return None  # strings: any text is type-valid


def _compile_semantic(
    constraint: SemanticTypeConstraint, env: EnvView
) -> Validator | None:
    param, location = constraint.param, constraint.location
    semantic = constraint.semantic

    if semantic is SemanticType.FILE:

        def check_file(value: str, line: int | None) -> list[Diagnostic]:
            path = value.strip()
            if not path.startswith("/"):
                return []
            if env.is_dir(path):
                return [
                    _diag(
                        param, KIND_SEMANTIC, "dir-for-file", line, location,
                        f"{param} expects a file, but {path} is a "
                        "directory",
                        "point it at a regular file",
                    )
                ]
            if not env.exists(path) and not env.parent_exists(path):
                return [
                    _diag(
                        param, KIND_SEMANTIC, "missing-path", line, location,
                        f"neither {path} nor its parent directory exists",
                        "create the directory first, or fix the path",
                    )
                ]
            if not env.exists(path):
                return [
                    _diag(
                        param, KIND_SEMANTIC, "absent-file", line, location,
                        f"{path} does not exist yet (its directory does)",
                        "create the file, or confirm the software "
                        "creates it on first use",
                        severity=WARNING,
                    )
                ]
            return []

        return check_file
    if semantic in (SemanticType.DIRECTORY, SemanticType.PATH):
        want_dir = semantic is SemanticType.DIRECTORY

        def check_dir(value: str, line: int | None) -> list[Diagnostic]:
            path = value.strip()
            if not path.startswith("/"):
                return []
            if env.exists(path):
                if want_dir and not env.is_dir(path):
                    return [
                        _diag(
                            param, KIND_SEMANTIC, "file-for-dir", line,
                            location,
                            f"{param} expects a directory, but {path} is "
                            "a regular file",
                            "point it at a directory",
                        )
                    ]
                return []
            if not env.parent_exists(path):
                return [
                    _diag(
                        param, KIND_SEMANTIC, "missing-path", line, location,
                        f"neither {path} nor its parent directory exists",
                        "create the directory first, or fix the path",
                    )
                ]
            return [
                _diag(
                    param, KIND_SEMANTIC, "absent-dir", line, location,
                    f"{path} does not exist yet (its parent does)",
                    "create it, or confirm the software creates it",
                    severity=WARNING,
                )
            ]

        return check_dir
    if semantic is SemanticType.PORT:

        def check_port(value: str, line: int | None) -> list[Diagnostic]:
            port = _parse_int(value.strip())
            if port is None:
                return []  # the basic-type validator reports this
            if port < 0 or port > 65535:
                return [
                    _diag(
                        param, KIND_SEMANTIC, "port-out-of-range", line,
                        location,
                        f"{port} is not a TCP/UDP port (0..65535)",
                        "use a port number between 1 and 65535",
                    )
                ]
            if port in env.occupied_ports:
                return [
                    _diag(
                        param, KIND_SEMANTIC, "port-in-use", line, location,
                        f"port {port} is already taken by another process "
                        "on this host",
                        "pick a free port or stop the other process",
                    )
                ]
            return []

        return check_port
    if semantic is SemanticType.IP_ADDRESS:

        def check_ip(value: str, line: int | None) -> list[Diagnostic]:
            text = value.strip()
            if not text or valid_ipv4(text):
                return []
            return [
                _diag(
                    param, KIND_SEMANTIC, "malformed-ip", line, location,
                    f"{text!r} is not a valid IPv4 address",
                    "use dotted-quad notation with octets 0..255",
                )
            ]

        return check_ip
    if semantic is SemanticType.HOSTNAME:

        def check_host(value: str, line: int | None) -> list[Diagnostic]:
            name = value.strip()
            if not name or env.resolves(name):
                return []
            return [
                _diag(
                    param, KIND_SEMANTIC, "unresolvable-host", line, location,
                    f"the hostname {name!r} does not resolve from this "
                    "host",
                    "check DNS/hosts entries or use an IP address",
                )
            ]

        return check_host
    if semantic is SemanticType.USER:

        def check_user(value: str, line: int | None) -> list[Diagnostic]:
            name = value.strip()
            if not name or name in env.users:
                return []
            return [
                _diag(
                    param, KIND_SEMANTIC, "unknown-user", line, location,
                    f"no account named {name!r} exists on this host",
                    "create the account or name an existing one",
                )
            ]

        return check_user
    if semantic is SemanticType.GROUP:

        def check_group(value: str, line: int | None) -> list[Diagnostic]:
            name = value.strip()
            if not name or name in env.groups:
                return []
            return [
                _diag(
                    param, KIND_SEMANTIC, "unknown-group", line, location,
                    f"no group named {name!r} exists on this host",
                    "create the group or name an existing one",
                )
            ]

        return check_group
    if semantic in (SemanticType.SIZE, SemanticType.TIME):
        noun = "size" if semantic is SemanticType.SIZE else "duration"
        unit = constraint.unit

        def check_magnitude(value: str, line: int | None) -> list[Diagnostic]:
            number = _parse_int(value.strip())
            if number is None or number >= 0:
                return []
            detail = f" (unit: {unit})" if unit is not None else ""
            return [
                _diag(
                    param, KIND_SEMANTIC, f"negative-{noun}", line, location,
                    f"{param} is a {noun}{detail}; {number} is negative",
                    "use a non-negative value",
                )
            ]

        return check_magnitude
    return None


def _compile_numeric_range(constraint: NumericRangeConstraint) -> Validator:
    param, location = constraint.param, constraint.location

    def check_range(value: str, line: int | None) -> list[Diagnostic]:
        number = _parse_number(value.strip())
        if number is None:
            return []  # the basic-type validator reports this
        if constraint.contains(number):
            return []
        if constraint.valid_lo is not None and number < constraint.valid_lo:
            behavior, bound = constraint.below_behavior, constraint.valid_lo
            code, fix = "below-range", f"use a value of at least {_fmt(bound)}"
        else:
            behavior, bound = constraint.above_behavior, constraint.valid_hi
            code, fix = "above-range", f"use a value of at most {_fmt(bound)}"
        return [
            _diag(
                param, KIND_RANGE, code, line, location,
                f"{_fmt(number)} is outside the range the software "
                f"accepts for {param} "
                f"[{_fmt(constraint.valid_lo, '-inf')}, "
                f"{_fmt(constraint.valid_hi, '+inf')}]"
                f"{_behavior_clause(behavior)}",
                fix,
            )
        ]

    return check_range


def _compile_enum_range(constraint: EnumRangeConstraint) -> Validator:
    param, location = constraint.param, constraint.location
    exact = {str(v) for v in constraint.values}
    by_lower = {str(v).lower(): str(v) for v in constraint.values}
    listing = ", ".join(sorted(str(v) for v in constraint.values))

    def check_enum(value: str, line: int | None) -> list[Diagnostic]:
        text = value.strip()
        if not text:
            return []
        # A value the program would decode to a member (boolean words
        # against a {0, 1} ladder, "08" against 8) is acceptable.
        scalar = _decode_scalar(text)
        if any(scalar == v for v in constraint.values):
            return []
        if constraint.case_sensitive:
            if text in exact:
                return []
            canonical = by_lower.get(text.lower())
            if canonical is not None:
                return [
                    _diag(
                        param, KIND_RANGE, "wrong-case", line, location,
                        f"{param} compares its value case-sensitively: "
                        f"{text!r} is not recognised even though "
                        f"{canonical!r} is",
                        f"write it exactly as {canonical!r}",
                    )
                ]
        elif text.lower() in by_lower:
            return []
        close = difflib.get_close_matches(text, sorted(exact), n=1, cutoff=0.6)
        fix = (
            f"did you mean {close[0]!r}? accepted values: {listing}"
            if close
            else f"use one of: {listing}"
        )
        return [
            _diag(
                param, KIND_RANGE, "invalid-choice", line, location,
                f"{text!r} is not among the values the software accepts "
                f"for {param}"
                + (
                    " (it would be silently overruled)"
                    if constraint.silently_overruled
                    else ""
                ),
                fix,
            )
        ]

    return check_enum


def _compile_control_dep(
    constraint: ControlDepConstraint, defaults: dict[str, str]
) -> PairValidator:
    param, location = constraint.param, constraint.location
    dep, op, gate_value = constraint.dep_param, constraint.op, constraint.value
    default_value = defaults.get(param)

    def check_dep(values: dict[str, tuple[str, int]]) -> list[Diagnostic]:
        if param not in values:
            return []
        value, line = values[param]
        if (
            default_value is not None
            and value.strip() == default_value.strip()
        ):
            # The user merely kept the vendor default; only a value
            # they *chose* can be silently ignored against their
            # intent (vendor templates routinely pre-stage settings
            # behind disabled gates, e.g. ssl_tlsv1 under ssl_enable).
            return []
        dep_text = (
            values[dep][0] if dep in values else defaults.get(dep)
        )
        if dep_text is None:
            return []
        holds = _gate_holds(op, _decode_scalar(dep_text), gate_value)
        if holds is None or holds:
            return []
        return [
            _diag(
                param, KIND_CTRL_DEP, "dependency-disabled", line, location,
                f"{param} has no effect while {dep} is {dep_text.strip()!r} "
                f"(it only takes effect when {dep} {op} {gate_value}); the "
                "software will silently ignore this setting",
                f"set {dep} so that {dep} {op} {gate_value}, or remove "
                f"{param}",
            )
        ]

    return check_dep


def _compile_value_rel(
    constraint: ValueRelConstraint, defaults: dict[str, str]
) -> PairValidator:
    param, location = constraint.param, constraint.location
    op, other = constraint.op, constraint.other_param
    compare = _COMPARATORS.get(op)
    if compare is None:
        return None

    def check_rel(values: dict[str, tuple[str, int]]) -> list[Diagnostic]:
        if param not in values and other not in values:
            return []
        left_text = (
            values[param][0] if param in values else defaults.get(param)
        )
        right_text = (
            values[other][0] if other in values else defaults.get(other)
        )
        if left_text is None or right_text is None:
            return []
        left = _parse_number(left_text.strip())
        right = _parse_number(right_text.strip())
        if left is None or right is None or compare(left, right):
            return []
        line = values[param][1] if param in values else values[other][1]
        return [
            _diag(
                param, KIND_VALUE_REL, "relationship-violated", line,
                location,
                f"the software requires {param} {op} {other}, but "
                f"{param} = {_fmt(left)} and {other} = {_fmt(right)}",
                f"adjust the two settings so that {param} {op} {other}",
            )
        ]

    return check_rel


def _compile_access_control(
    constraint: AccessControlConstraint,
    env: EnvView,
    defaults: dict[str, str],
) -> PairValidator:
    param, location = constraint.param, constraint.location
    operation, user_param = constraint.operation, constraint.user_param

    if operation == "mode":

        def check_mode(
            values: dict[str, tuple[str, int]]
        ) -> list[Diagnostic]:
            if param not in values:
                return []
            value, line = values[param]
            text = value.strip()
            try:
                mode = int(text, 8)
            except ValueError:
                mode = -1
            if mode < 0 or mode > 0o7777:
                return [
                    _diag(
                        param, KIND_ACCESS_CONTROL, "invalid-permission",
                        line, location,
                        f"the software installs {param} verbatim as a "
                        f"permission mode (chmod), and {text!r} is not an "
                        "octal mode",
                        "use an octal permission mode such as 0644 or 0750",
                    )
                ]
            if mode & 0o002:
                return [
                    _diag(
                        param, KIND_ACCESS_CONTROL, "world-writable", line,
                        location,
                        f"mode {text} grants write access to every user "
                        "on the host",
                        "drop the world-writable bit (e.g. use 0755)",
                        severity=WARNING,
                    )
                ]
            return []

        return check_mode

    def check_access(
        values: dict[str, tuple[str, int]]
    ) -> list[Diagnostic]:
        # Only fire when the user actually touched the pair; a config
        # that keeps both vendor defaults is calibration's business.
        if param not in values and (
            not user_param or user_param not in values
        ):
            return []
        path_text = (
            values[param][0] if param in values else defaults.get(param)
        )
        if path_text is None:
            return []
        path = path_text.strip()
        if not path.startswith("/"):
            return []
        user_text = None
        if user_param:
            user_text = (
                values[user_param][0]
                if user_param in values
                else defaults.get(user_param)
            )
        user = (user_text or "root").strip()
        if user not in env.users:
            return []  # the unknown-user semantic validator reports it
        if not env.exists(path):
            return []  # the path semantic validators report it
        allowed = (
            env.can_read(path, user)
            if operation == "read"
            else env.can_write(path, user)
        )
        if allowed:
            return []
        line = (
            values[param][1]
            if param in values
            else values[user_param][1]
        )
        mode = env.modes.get(path)
        owner = env.owners.get(path)
        facts = (
            f" (mode {mode:04o}, owner {owner})"
            if mode is not None and owner is not None
            else ""
        )
        actor = f"user {user!r}"
        if user_param:
            actor += f" (the identity {user_param} selects)"
        return [
            _diag(
                param, KIND_ACCESS_CONTROL,
                f"{operation}-access-denied", line, location,
                f"the software must {operation} {path}, but {actor} has "
                f"no {operation} permission there{facts}",
                f"grant {user!r} {operation} access to {path}, or point "
                f"{param} at a path that identity can {operation}",
            )
        ]

    return check_access


# -- small helpers -----------------------------------------------------------


_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _diag(
    param: str,
    kind: str,
    code: str,
    line: int | None,
    evidence: Location,
    message: str,
    suggestion: str,
    severity: str = ERROR,
) -> Diagnostic:
    return Diagnostic(
        param=param,
        kind=kind,
        code=code,
        severity=severity,
        message=message,
        suggestion=suggestion,
        evidence=evidence,
        config_line=line,
    )


def _parse_int(text: str) -> int | None:
    try:
        return int(text, 10)
    except ValueError:
        return None


def _parse_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _parse_number(text: str):
    parsed = _parse_int(text)
    return parsed if parsed is not None else _parse_float(text)


def _decode_scalar(text: str):
    """A config value as the comparison operand the program sees:
    boolean words become 1/0 (`decode_bool`, the same decoder the
    subject systems declare), numbers parse, everything else stays a
    stripped string."""
    decoded = decode_bool(text)
    if isinstance(decoded, int):
        return decoded
    number = _parse_number(text.strip())
    return number if number is not None else text.strip()


def _gate_holds(op: str, left, right) -> bool | None:
    """Evaluate `left op right`; None when the operands are not
    comparable (never guess against the user)."""
    compare = _COMPARATORS.get(op)
    if compare is None:
        return None
    left_num = isinstance(left, (int, float))
    right_num = isinstance(right, (int, float))
    if left_num and right_num:
        return compare(left, right)
    if op in ("==", "!="):
        return compare(str(left), str(right))
    return None


def _behavior_clause(behavior: str) -> str:
    if behavior == Behavior.EXIT:
        return "; the software would refuse to start"
    if behavior == Behavior.ERROR_RETURN:
        return "; the software would fail at runtime"
    if behavior == Behavior.RESET:
        return "; the software would silently replace it"
    return ""


def _fmt(number, none_text: str = "?") -> str:
    if number is None:
        return none_text
    if isinstance(number, float) and number.is_integer():
        return str(int(number))
    return str(number)
