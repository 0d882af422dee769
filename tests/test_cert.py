"""cert.dumps writes the bytes of json.dumps(obj, sort_keys=True, indent=2)."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chernlab.cert import dumps


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\x00", "\x1f\t\n\"\\", "é", " ", "\U0001f600", "\ud800"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT, st.floats(),
    st.integers(-5, 12), st.integers(), st.integers(-10**40, 10**40),
)
# int keys in numeric order differ from their text order ("10" < "2"); a
# bool key is an int key that json writes as "true" / "false"
INT_KEYS = st.one_of(st.sampled_from([2, 10, -1, 0]), st.integers(), st.booleans())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(INT_KEYS, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=4),
    )


DOCS = st.recursive(SCALARS, containers, max_leaves=24)


@given(DOCS)
@example({10: [1], 2: {"b": (), "a": {}}})
@example([[], {}, (), [0], {"k": None}, (True,)])
@example({True: 1, 0: False, -3: [10**30, -7]})
def test_dumps_matches_json(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{1, 2}, object(), [frozenset()], {"k": {"x": object()}},
                                 {(1, 2): 3}])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        dumps(doc)
