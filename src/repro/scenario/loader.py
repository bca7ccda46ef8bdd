"""Loading scenarios from ``scenarios/*.toml``.

The model is the schema: each TOML table is built from the
``dataclasses.fields`` and type hints of its model class, so its
allowed keys, their types and their defaults are the dataclass's own.
The loader writes down only what the format decides for itself, each
in one place: table names that differ from field names
(:data:`_TABLE_NAMES`), bare fault targets (:func:`expand_target`),
and the defaults a TOML table has that the class has not
(:data:`_TOML_DEFAULTS`).

The loader is strict: unknown keys are rejected (with a did-you-mean
suggestion), every value is type-checked before it reaches the model,
and all errors carry ``file → section → key`` context.

``tomllib`` is stdlib from Python 3.11; the package still claims 3.9
compatibility, so the import is gated and loading (only loading — the
programmatic API works everywhere) raises an actionable
:class:`~repro.scenario.model.ScenarioError` on older interpreters.
"""

from __future__ import annotations

import dataclasses
import difflib
from enum import Enum
from pathlib import Path
from typing import (Any, Dict, List, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

try:  # pragma: no cover - exercised only on Python < 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover
    tomllib = None

from repro.core.retry import BackoffPolicy
from repro.faults.plan import FaultSpec
from repro.scenario.model import (
    Scenario,
    ScenarioError,
    default_rejoin_policy,
    expand_target,
)

_PathLike = Union[str, Path]

#: Model field → TOML table name, where the two differ: one
#: ``[rejoin]`` table, and one ``[[fault]]`` entry per fault.
_TABLE_NAMES = {"rejoin_policy": "rejoin", "faults": "fault"}

#: Defaults an omitted TOML key takes that differ from the model
#: class's own.  A ``[[fault]]`` without ``loss`` / ``jitter_ms``
#: degrades at 0.3 / 50 ms: both enter the plan signature, so every
#: corpus determinism key folds them in.  A partial ``[rejoin]`` table
#: fills its gaps from the scenario's default policy (the §3.5
#: acceptance run's), not from ``BackoffPolicy``'s generic one.
_TOML_DEFAULTS = {
    FaultSpec: {"loss": 0.3, "jitter_ms": 50.0},
    BackoffPolicy: dataclasses.asdict(default_rejoin_policy()),
}


def _suggest(key: str, known: Sequence[str]) -> str:
    close = difflib.get_close_matches(key, known, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _fail(where: str, message: str) -> ScenarioError:
    return ScenarioError(f"{where}: {message}")


def _fields(cls) -> Dict[str, Tuple[dataclasses.Field, Any]]:
    """TOML key → (field, resolved type hint) of a model class."""
    hints = get_type_hints(cls)
    return {_TABLE_NAMES.get(f.name, f.name): (f, hints[f.name])
            for f in dataclasses.fields(cls) if f.init}


def _is_table(hint) -> bool:
    """A model class is a TOML table; a tuple of them, an array."""
    if get_origin(hint) is tuple:
        hint = get_args(hint)[0]
    return dataclasses.is_dataclass(hint)


def _convert(value, hint, key: str, where: str):
    """Type-check (and coerce) one TOML value against a field hint."""
    if get_origin(hint) is Union:  # Optional[X]: TOML has no null
        hint = get_args(hint)[0]
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        item = args[0]
        if dataclasses.is_dataclass(item):
            if not isinstance(value, list) or \
                    not all(isinstance(v, dict) for v in value):
                raise _fail(where, f"[[{key}]] must be an array of "
                            "tables")
            return tuple(_build(item, v, f"{where}: [[{key}]][{i}]")
                         for i, v in enumerate(value))
        if not isinstance(value, list) or \
                not all(isinstance(v, item) for v in value):
            raise _fail(where, f"{key!r} must be a list of "
                        f"{item.__name__} values")
        return tuple(value)
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise _fail(where, f"[{key}] must be a table, got "
                        f"{type(value).__name__} ({value!r})")
        return _build(hint, value, f"{where}: [{key}]")
    if isinstance(hint, type) and issubclass(hint, Enum):
        allowed = [member.value for member in hint]
        if value not in allowed:
            raise _fail(where, f"unknown {key} {value!r}"
                        f"{_suggest(str(value), allowed)}; allowed "
                        f"{key}s: {', '.join(allowed)}")
        return hint(value)
    # Scalars.  Bools are ints in Python, and the pun is refused.
    if hint is float and isinstance(value, int) and \
            not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and hint is not bool:
        raise _fail(where, f"{key!r} must be {hint.__name__}, got a "
                    "boolean")
    if not isinstance(value, hint):
        raise _fail(where, f"{key!r} must be {hint.__name__}, got "
                    f"{type(value).__name__} ({value!r})")
    return value


def _check_keys(data: Dict[str, Any], known: Sequence[str],
                where: str) -> None:
    for key in data:
        if key not in known:
            raise _fail(where, f"unknown key {key!r}"
                        f"{_suggest(key, known)}; allowed keys: "
                        f"{', '.join(sorted(known))}")


def _values(cls, data: Dict[str, Any], where: str,
            keys: Sequence[str]) -> Dict[str, Any]:
    """The constructor arguments that ``data`` gives for the named
    TOML keys of ``cls``; omitted keys take the model's default, or
    the :data:`_TOML_DEFAULTS` entry where the format has its own."""
    _check_keys(data, keys, where)
    fields = _fields(cls)
    toml_defaults = _TOML_DEFAULTS.get(cls, {})
    values = {}
    for key in keys:
        field, hint = fields[key]
        if key in data:
            values[field.name] = _convert(data[key], hint, key, where)
        elif field.name in toml_defaults:
            values[field.name] = toml_defaults[field.name]
        elif field.default is dataclasses.MISSING and \
                field.default_factory is dataclasses.MISSING:
            raise _fail(where, f"missing required key {key!r}")
    return values


def _build(cls, data: Dict[str, Any], where: str):
    """One model object from one TOML table."""
    values = _values(cls, data, where, list(_fields(cls)))
    if cls is FaultSpec:
        # A bare target (``sp-1``) names a deployment id only once
        # the fault's kind says which zone it lives in.
        values["target"] = expand_target(values["kind"],
                                         values["target"])
    try:
        return cls(**values)
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def parse_scenario(data: Dict[str, Any],
                   where: str = "<scenario>") -> Scenario:
    """Build a validated :class:`Scenario` from decoded TOML data.

    The scalar fields sit in the ``[scenario]`` table; every field
    that is itself a model class is a top-level table of its own."""
    fields = _fields(Scenario)
    tables = [k for k, (_, hint) in fields.items() if _is_table(hint)]
    _check_keys(data, ["scenario"] + tables, where)
    head = data.get("scenario", {})
    if not isinstance(head, dict):
        raise _fail(where, "[scenario] must be a table, got "
                    f"{type(head).__name__} ({head!r})")
    values = _values(Scenario, head, f"{where}: [scenario]",
                     [k for k in fields if k not in tables])
    values.update(_values(Scenario, {k: data[k] for k in tables
                                     if k in data}, where, tables))
    try:
        scenario = Scenario(**values)
        scenario.validate()
    except ScenarioError as exc:
        raise _fail(where, str(exc)) from None
    return scenario


def load_scenario(path: _PathLike) -> Scenario:
    """Load and validate one ``*.toml`` scenario file."""
    if tomllib is None:
        raise ScenarioError(
            "loading TOML scenarios needs Python >= 3.11 (stdlib "
            "tomllib); construct Scenario objects programmatically on "
            "older interpreters")
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: "
                            f"{exc}") from None
    try:
        data = tomllib.loads(raw.decode("utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{path}: invalid TOML: {exc}") from None
    return parse_scenario(data, where=str(path))


def load_corpus(directory: _PathLike,
                pattern: str = "*.toml") -> List[Scenario]:
    """Load every scenario under ``directory`` (sorted by filename so
    corpus order is stable), failing on the first invalid file."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ScenarioError(f"{directory}: not a scenario directory")
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise ScenarioError(
            f"{directory}: no {pattern} scenario files found")
    scenarios = [load_scenario(p) for p in paths]
    names = [s.name for s in scenarios]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ScenarioError(
            f"{directory}: duplicate scenario names: "
            f"{', '.join(sorted(dupes))}")
    return scenarios
