"""Shared fixtures and scenario helpers."""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from statetrail.engine import Engine
from statetrail.ledger import Ledger, LedgerTransaction, TxReceipt
from statetrail.model import StateMachineModel, validate_model
from statetrail.registry import Descriptor, Registry
from statetrail.store import ContentStore

ALICE = "0x" + "a" * 40
BOB = "0x" + "b" * 40
CARA = "0x" + "c" * 40

MINIMAL_DOC = {
    "name": "minimal",
    "states": ["A", "B"],
    "initial": "A",
    "finals": [],
    "transitions": [{"id": "t1", "from": "A", "to": "B"}],
    "variables": {},
}

# three-state cycle that never halts; one counter so effects are exercised
CYCLE_DOC = {
    "name": "cycle",
    "states": ["p", "q", "r"],
    "initial": "p",
    "finals": [],
    "transitions": [
        {"id": "ab", "from": "p", "to": "q", "effect": {"var": "n", "add": 1}},
        {"id": "bc", "from": "q", "to": "r"},
        {"id": "ca", "from": "r", "to": "p"},
    ],
    "variables": {"n": 0},
}


def minimal_model() -> StateMachineModel:
    return validate_model(MINIMAL_DOC)


def cycle_model() -> StateMachineModel:
    return validate_model(CYCLE_DOC)


def make_world(path=None, accounts=(ALICE, BOB, CARA)):
    """In-memory (or file-backed) ledger + registry + store with funded accounts."""
    registry = Registry()
    ledger = Ledger(registry, path=path)
    for account in accounts:
        ledger.create_account(account)
    store = ContentStore()
    return SimpleNamespace(ledger=ledger, registry=registry, store=store)


def engine_for(world, account: str) -> Engine:
    return Engine(world.ledger, world.registry, world.store, account)


def raw_submit(ledger: Ledger, sender: str, call: dict) -> TxReceipt:
    """Submit a hand-built call with the sender's next nonce; returns its on-chain outcome."""
    return ledger.submit(LedgerTransaction(sender, call, ledger.next_nonce(sender)))


def on_a_fresh_stack(fn):
    """`fn()`, run near the bottom of a new thread's stack, as a shallow caller runs it."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=60)


def random_model(rng: random.Random, max_states=8, max_transitions=16,
                 max_vars=4, final_bias=0.15) -> StateMachineModel:
    """Random valid model within the documented size bounds."""
    states = [f"s{i}" for i in range(rng.randint(2, max_states))]
    variables = {f"v{i}": rng.randint(-3, 3) for i in range(rng.randint(0, max_vars))}
    names = list(variables)
    transitions = []
    for i in range(rng.randint(1, max_transitions)):
        t = {"id": f"t{i}", "from": rng.choice(states), "to": rng.choice(states)}
        if names and rng.random() < 0.4:
            t["guard"] = {"var": rng.choice(names),
                          "op": rng.choice(["<", "<=", "==", ">=", ">"]),
                          "value": rng.randint(-3, 3)}
        if names and rng.random() < 0.4:
            t["effect"] = {"var": rng.choice(names), "add": rng.randint(-2, 2)}
        transitions.append(t)
    finals = [s for s in states[1:] if rng.random() < final_bias]
    return validate_model({
        "name": f"random-{rng.getrandbits(24)}",
        "states": states,
        "initial": states[0],
        "finals": finals,
        "transitions": transitions,
        "variables": variables,
    })


@pytest.fixture
def world():
    return make_world()


@pytest.fixture
def descriptor():
    return Descriptor(id="d-1", name="fixture descriptor")
