"""The canonical encoder equals the encoder it replaced, byte for byte.

``canonical_json`` hands the encoding to ``json.dumps`` and walks the
document only to reject non-string dict keys.  The reference below is
the encoder it replaced: a Python walk that rebuilt the document as
plain JSON types, spelling a JSON path for every element, before the
same ``json.dumps`` call.  Every artifact ID and cell fingerprint in an
existing store was minted by the reference, so the two must agree on
every valid document and refuse the same invalid ones.
"""

from __future__ import annotations

import json
import math
from pathlib import PurePath, PurePosixPath, PureWindowsPath
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.store.canonical import canonical_json


def _reference_normalize(obj: Any, *, _path: str = "$") -> Any:
    """The replaced encoder's walk, kept verbatim as the reference."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float at {_path} cannot be canonicalized")
        return obj
    if isinstance(obj, PurePath):
        return obj.as_posix()
    if isinstance(obj, (list, tuple)):
        return [_reference_normalize(v, _path=f"{_path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"non-string key {key!r} at {_path}")
            out[key] = _reference_normalize(value, _path=f"{_path}.{key}")
        return out
    raise ValueError(f"type {type(obj).__name__} at {_path} cannot be canonicalized")


def _reference_json(obj: Any) -> str:
    return json.dumps(
        _reference_normalize(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]),
)
_PARTS = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    st.text(),  # non-ASCII included
    _PARTS.map(lambda parts: PurePosixPath(*parts)),
    _PARTS.map(lambda parts: PureWindowsPath(*parts)),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


def _holding(bad: st.SearchStrategy[Any]) -> st.SearchStrategy[Any]:
    """Valid documents with one value drawn from ``bad`` at any depth."""
    siblings = st.lists(_DOCS, max_size=2)
    return st.recursive(
        bad,
        lambda inner: st.one_of(
            st.tuples(siblings, inner, siblings, st.booleans()).map(
                lambda t: (tuple if t[3] else list)([*t[0], t[1], *t[2]])
            ),
            st.tuples(st.dictionaries(st.text(max_size=4), _DOCS, max_size=2), st.text(), inner).map(
                lambda t: {**t[0], t[1]: t[2]}
            ),
        ),
        max_leaves=4,
    )


@given(_DOCS)
def test_equals_reference_encoder(doc):
    assert canonical_json(doc) == _reference_json(doc)


@given(_holding(st.sampled_from([math.nan, math.inf, -math.inf])))
def test_non_finite_float_anywhere_raises(doc):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(doc)


@given(
    _holding(
        st.tuples(
            st.one_of(st.integers(), st.booleans(), st.none(), _FLOATS), _DOCS
        ).map(lambda kv: {kv[0]: kv[1]})
    )
)
def test_non_string_key_anywhere_raises_with_its_path(doc):
    with pytest.raises(ValueError) as reference:
        _reference_json(doc)
    with pytest.raises(ValueError) as ours:
        canonical_json(doc)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value).startswith("non-string key")


@given(_holding(st.sampled_from([1j, b"raw", {1, 2}, object()])))
def test_unsupported_type_anywhere_raises(doc):
    with pytest.raises(ValueError, match="cannot be canonicalized"):
        canonical_json(doc)
