"""Guarded state-machine models: schema, validation, canonical form, hashing.

A model is a finite set of named states with guarded transitions over
integer variables. Models are identified purely by content: the canonical
serialization sorts states, finals, transitions (by id) and variables
(by name), so any two documents describing the same machine hash alike.

Model file schema (UTF-8 JSON, unknown fields rejected):
    {
      "name": str,
      "states": [str, ...],
      "initial": str,
      "finals": [str, ...],
      "transitions": [{"id", "from", "to",
                       "guard"?: {"var", "op", "value"},
                       "effect"?: {"var", "add"}}, ...],
      "variables": {name: int, ...}
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .errors import (
    DanglingTransition,
    DuplicateTransitionId,
    EmptyStates,
    InvalidModelDocument,
    MissingInitial,
    UnknownVariable,
)
from .hashing import canonical_bytes, digest, nfc

GUARD_OPS = ("<", "<=", "==", ">=", ">")


class Guard(NamedTuple):
    var: str
    op: str
    value: int

    def holds(self, variables: Mapping[str, int]) -> bool:
        left = variables[self.var]
        if self.op == "<":
            return left < self.value
        if self.op == "<=":
            return left <= self.value
        if self.op == "==":
            return left == self.value
        if self.op == ">=":
            return left >= self.value
        return left > self.value


class Effect(NamedTuple):
    var: str
    add: int

    def apply(self, variables: Mapping[str, int]) -> dict[str, int]:
        updated = dict(variables)
        updated[self.var] += self.add
        return updated


class TransitionDef(NamedTuple):
    id: str
    source: str
    target: str
    guard: Guard | None = None
    effect: Effect | None = None


class StateMachineModel(NamedTuple):
    name: str
    states: tuple[str, ...]
    initial: str
    finals: tuple[str, ...]
    transitions: tuple[TransitionDef, ...]
    variables: Mapping[str, int]

    def transition(self, transition_id: str) -> TransitionDef | None:
        for t in self.transitions:
            if t.id == transition_id:
                return t
        return None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidModelDocument(message)


def _check_fields(obj: dict, allowed: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown fields in {what}: {sorted(unknown)}")


def _parse_string(value: Any, what: str) -> str:
    _require(isinstance(value, str) and value != "", f"{what} must be a non-empty string")
    return nfc(value)


def _parse_int(value: Any, what: str) -> int:
    _require(type(value) is int, f"{what} must be an integer")
    return value


def _parse_guard(raw: Any) -> Guard:
    _require(isinstance(raw, dict), "guard must be an object")
    _check_fields(raw, {"var", "op", "value"}, "guard")
    _require("var" in raw and "op" in raw and "value" in raw, "guard requires var, op, value")
    op = raw["op"]
    _require(op in GUARD_OPS, f"guard op must be one of {GUARD_OPS}")
    return Guard(var=_parse_string(raw["var"], "guard var"), op=op,
                 value=_parse_int(raw["value"], "guard value"))


def _parse_effect(raw: Any) -> Effect:
    _require(isinstance(raw, dict), "effect must be an object")
    _check_fields(raw, {"var", "add"}, "effect")
    _require("var" in raw and "add" in raw, "effect requires var, add")
    return Effect(var=_parse_string(raw["var"], "effect var"),
                  add=_parse_int(raw["add"], "effect add"))


def _parse_transition(raw: Any) -> TransitionDef:
    _require(isinstance(raw, dict), "transition must be an object")
    _check_fields(raw, {"id", "from", "to", "guard", "effect"}, "transition")
    for key in ("id", "from", "to"):
        _require(key in raw, f"transition requires field '{key}'")
    return TransitionDef(
        id=_parse_string(raw["id"], "transition id"),
        source=_parse_string(raw["from"], "transition from"),
        target=_parse_string(raw["to"], "transition to"),
        guard=_parse_guard(raw["guard"]) if raw.get("guard") is not None else None,
        effect=_parse_effect(raw["effect"]) if raw.get("effect") is not None else None,
    )


def validate_model(raw: Any) -> StateMachineModel:
    """Check a parsed model document and return the validated model.

    Raises InvalidModelDocument for structural problems, and EmptyStates,
    MissingInitial, DanglingTransition, DuplicateTransitionId or
    UnknownVariable when the document is well-formed but inconsistent.
    """
    _require(isinstance(raw, dict), "model document must be an object")
    _check_fields(raw, {"name", "states", "initial", "finals", "transitions", "variables"},
                  "model document")
    for key in ("name", "states", "initial", "finals", "transitions", "variables"):
        _require(key in raw, f"model document requires field '{key}'")

    name = _parse_string(raw["name"], "name")
    _require(isinstance(raw["states"], list), "states must be an array")
    states = tuple(sorted({_parse_string(s, "state name") for s in raw["states"]}))
    if not states:
        raise EmptyStates("model declares no states")

    initial = _parse_string(raw["initial"], "initial")
    if initial not in states:
        raise MissingInitial(f"initial state {initial!r} not in states")

    _require(isinstance(raw["finals"], list), "finals must be an array")
    finals = tuple(sorted({_parse_string(s, "final state") for s in raw["finals"]}))
    for s in finals:
        if s not in states:
            raise DanglingTransition(f"final state {s!r} not in states")

    _require(isinstance(raw["variables"], dict), "variables must be an object")
    variables = {_parse_string(k, "variable name"): _parse_int(v, f"variable {k!r}")
                 for k, v in raw["variables"].items()}

    _require(isinstance(raw["transitions"], list), "transitions must be an array")
    transitions = []
    seen_ids: set[str] = set()
    for raw_t in raw["transitions"]:
        t = _parse_transition(raw_t)
        if t.id in seen_ids:
            raise DuplicateTransitionId(f"transition id {t.id!r} declared twice")
        seen_ids.add(t.id)
        for endpoint in (t.source, t.target):
            if endpoint not in states:
                raise DanglingTransition(
                    f"transition {t.id!r} references unknown state {endpoint!r}")
        for var in [t.guard.var if t.guard else None, t.effect.var if t.effect else None]:
            if var is not None and var not in variables:
                raise UnknownVariable(
                    f"transition {t.id!r} references undeclared variable {var!r}")
        transitions.append(t)
    transitions.sort(key=lambda t: t.id)

    return StateMachineModel(
        name=name,
        states=states,
        initial=initial,
        finals=finals,
        transitions=tuple(transitions),
        variables=variables,
    )


def to_document(model: StateMachineModel) -> dict:
    """Model as a plain document dict in canonical field ordering."""
    transitions = []
    for t in model.transitions:
        entry: dict[str, Any] = {"id": t.id, "from": t.source, "to": t.target}
        if t.guard is not None:
            entry["guard"] = {"var": t.guard.var, "op": t.guard.op, "value": t.guard.value}
        if t.effect is not None:
            entry["effect"] = {"var": t.effect.var, "add": t.effect.add}
        transitions.append(entry)
    return {
        "name": model.name,
        "states": list(model.states),
        "initial": model.initial,
        "finals": list(model.finals),
        "transitions": transitions,
        "variables": dict(model.variables),
    }


def canonical_serialize(model: StateMachineModel) -> bytes:
    """Deterministic byte form of a valid model; input order never leaks."""
    return canonical_bytes(to_document(model))


def model_hash(model: StateMachineModel) -> str:
    return digest(canonical_serialize(model))


def parse_model_bytes(data: bytes) -> StateMachineModel:
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidModelDocument(f"not a UTF-8 JSON document: {exc}") from exc
    return validate_model(raw)


def load_model_file(path: str | Path) -> StateMachineModel:
    return parse_model_bytes(Path(path).read_bytes())
