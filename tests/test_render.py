"""The CLI's ``csv`` and ``json`` writers agree byte for byte with the former hand-written ones."""

import argparse
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import cli
from reference_render import reference_csv, reference_json

# No table holds "\r", and Pythons from 3.12 quote it whatever the line terminator.
_TEXT = st.text(alphabet=st.one_of(st.sampled_from(',"\n'), st.characters(exclude_characters="\r")))
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())
_CELLS = st.one_of(
    _TEXT,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)
_KEYS = st.from_regex(r"[a-z_]{1,12}", fullmatch=True)


@st.composite
def _tables(draw):
    width = draw(st.integers(2, 5))
    return cli.Table(
        columns=[f"c{i}" for i in range(width)],
        rows=draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6)),
        summary=draw(st.dictionaries(_KEYS, _CELLS, max_size=4)),
    )


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_csv_writer_matches_the_reference(table):
    assert cli._render_csv(table) == reference_csv(table.columns, table.rows, table.summary)


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_json_writer_matches_the_reference(table):
    args = argparse.Namespace(subcommand="basis", p=2.5, cutoff=3)
    expected = reference_json(table.columns, table.rows, table.summary, cli._meta(args))
    assert cli._render_json(table, args) == expected
