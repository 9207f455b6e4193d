"""Canonical bytes: exactness of the NFC fast path and when the walk runs."""

import json
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from statetrail import hashing
from statetrail.demo import demo_model, multiparty
from statetrail.hashing import canonical_bytes
from statetrail.ledger import Ledger
from statetrail.model import model_hash
from statetrail.registry import Descriptor, Registry, call_register_model

from conftest import ALICE, engine_for, make_world


# The encoder as it was before the fast path: walk every value into NFC,
# then dump. Kept verbatim as the reference `canonical_bytes` must match.
def reference_nfc(value):
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, dict):
        return {reference_nfc(k): reference_nfc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_nfc(v) for v in value]
    return value


def reference_canonical_bytes(value):
    return json.dumps(
        reference_nfc(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def outcome(encode, value):
    """The bytes, or the exception class when the value has no encoding."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:  # UnicodeEncodeError is a ValueError
        return type(exc)


ADVERSARIAL_CHARS = [
    "a", "e", "n", "t", "u", "A", "0", " ",
    '"', "\\", "\n", "\t", "\r", "\x00", "\x1f", "\x7f", "\u2028",
    "\u0301", "\u0308", "\u0323", "\u030a", "\u0327", "\u0345",  # combining marks
    "\u00e9", "\u00c5", "\u0144",  # precomposed
    "\u1100", "\u1161", "\u11a8", "\uac00",  # Hangul jamo and a syllable
    "\u0344", "\u0340", "\u212b", "\u2126", "\u0958", "\u2adc",  # composition exclusions
    "\u0b47", "\u0b3e",  # two starters that compose
    "\ud800",  # a lone surrogate has no UTF-8 encoding
]
# keys that differ, or not, only before NFC
COLLIDING_KEYS = ["\u00e9", "e\u0301", "\u00c5", "A\u030a", "\u212b", "\uac00",
                  "\u1100\u1161"]

strings = st.text(alphabet=st.sampled_from(ADVERSARIAL_CHARS), max_size=8)
keys = st.one_of(strings, st.sampled_from(COLLIDING_KEYS), st.integers(-3, 3))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), strings)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


class TestExactness:
    @settings(max_examples=200, deadline=None)
    @given(values)
    @example({"\u00e9": 1, "e\u0301": 2})
    @example({"e\u0301": 1, "\u00e9": 2})
    @example(["\n\u0301", "\\\u0301", '"\u0301', "\x1f\u0308", "\u0301"])
    @example({"\u212b": ["\u0344", "\u1100\u1161\u11a8"]})
    @example({1: "a", 10: "b", 2: "c"})
    @example({1: "a", "b": 2})
    @example(float("nan"))
    @example(float("inf"))
    @example({1, 2})
    @example(object())
    @example("caf\u00e9")
    @example(7)
    @example(None)
    def test_matches_walk_then_dump(self, value):
        assert outcome(canonical_bytes, value) == outcome(reference_canonical_bytes, value)

    @pytest.mark.parametrize("kind", [list, dict])
    def test_value_that_contains_itself_is_a_recursion_error(self, kind):
        value = kind()
        if kind is list:
            value.append(value)
        else:
            value["self"] = value
        with pytest.raises(RecursionError):
            canonical_bytes(value)


@pytest.fixture
def nfc_calls(monkeypatch):
    """Calls to `hashing.nfc`, the walk `canonical_bytes` falls back to."""
    calls = []
    walk = hashing.nfc

    def counted(value):
        calls.append(value)
        return walk(value)

    monkeypatch.setattr(hashing, "nfc", counted)
    return calls


class TestFastPath:
    def test_random_walk_never_walks(self, nfc_calls):
        world = make_world()
        engine = engine_for(world, ALICE)
        model = demo_model()
        engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
        state = engine.instantiate(model, Descriptor("i", "instance"), 1)
        nfc_calls.clear()
        trace = engine.random_walk(model, state, 50, seed=7)
        assert len(trace.steps) == 50
        assert nfc_calls == []

    def test_ledger_open_never_walks(self, tmp_path, nfc_calls):
        multiparty(parties=3, steps=50, seed=7, workdir=tmp_path)
        nfc_calls.clear()
        ledger = Ledger.open(tmp_path / "ledger.jsonl", Registry())
        assert ledger.height > 100
        assert nfc_calls == []

    def test_nfd_descriptor_name_walks_and_hashes_as_nfc(self, nfc_calls):
        hashes = {}
        for name in ("Caf\u00e9", "Cafe\u0301"):
            world = make_world()
            engine = engine_for(world, ALICE)
            model = demo_model()
            engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
            nfc_calls.clear()
            state = engine.instantiate(model, Descriptor("i", name), 1)
            hashes[name] = (state.instance_hash, len(nfc_calls))
        (nfc_hash, nfc_walks), (nfd_hash, nfd_walks) = hashes.values()
        assert nfc_walks == 0 and nfd_walks > 0
        assert nfd_hash == nfc_hash


class TestDepth:
    @pytest.mark.parametrize("value, expected", [
        (5, 0), ("[{", 0), ([], 1), ({}, 1), ((1, [2]), 2), ({"a": [1, {"b": []}]}, 4),
        ([[], [[[]]]], 4),
    ])
    def test_counts_nested_lists_and_objects(self, value, expected):
        assert hashing.depth(value) == expected

    def test_walks_any_nesting_without_a_deep_stack(self):
        value = []
        for _ in range(100_000):
            value = [value]
        assert hashing.depth(value) == 100_001
