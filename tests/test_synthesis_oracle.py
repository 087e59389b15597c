"""Synthesis against the per-entry references (tests/reference_synthesis.py).

:meth:`~repro.codesign.synthesis.TableSynthesizer.random_table` draws every
entry's choice in one ``generator.integers(counts)`` call.  That equals one
scalar ``integers(len(choices))`` call per entry, in ``(target, tile)``
order, only because NumPy draws broadcast bounds one element at a time,
which it does not document.  So on every bit generator NumPy ships, tables
drawn from the library and from the reference with equal generators must be
equal, and so must the draws that follow them.

:class:`~repro.codesign.synthesis.SynthesizedRouting` accepts a square
integer table in one NumPy pass and checks anything else entry by entry.
On lists, ragged and empty tables, integer arrays of every width, floats
and bools, it must keep the reference's table of Python ints, or raise the
reference's error.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given

from reference_synthesis import ReferenceSynthesizedRouting, ReferenceSynthesizer
from test_routing import SETTINGS, fabrics

from repro.codesign import SynthesizedRouting, TableSynthesizer
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.utils.errors import ConfigurationError

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def _assert_draws_match(topology, bit_generator, seed, tables=3):
    library = TableSynthesizer(topology)
    reference = ReferenceSynthesizer(topology)
    ours = np.random.Generator(bit_generator(seed))
    theirs = np.random.Generator(bit_generator(seed))
    for _ in range(tables):
        table = library.random_table(ours)
        assert table == reference.random_table(theirs)
        assert all(type(hop) is int for row in table for hop in row)
    assert ours.random() == theirs.random()
    assert ours.integers(1 << 40) == theirs.integers(1 << 40)


FABRICS = {
    "mesh-4x3": Mesh(4, 3),
    "mesh-6x6": Mesh(6, 6),
    "mesh-8x8": Mesh(8, 8),
    "torus-4x4": Torus(4, 4),
    # Every entry of a chain has one minimal next hop: all bounds are 1.
    "chain-5": Mesh(5, 1),
    "irregular-ring": IrregularTopology(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)], name="ring-5"
    ),
}


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_tables_and_next_draws_match(fabric, bit_generator):
    for seed in range(3):
        _assert_draws_match(FABRICS[fabric], bit_generator, seed)


def test_single_choice_entries_are_drawn():
    library = TableSynthesizer(FABRICS["chain-5"])
    assert set(library._counts.tolist()) == {1}
    counts = TableSynthesizer(FABRICS["mesh-4x3"])._counts.tolist()
    assert 1 in counts and max(counts) > 1


@SETTINGS
@given(
    topology=fabrics,
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_on_random_fabrics(topology, bit_generator, seed):
    try:
        TableSynthesizer(topology)
    except ConfigurationError:  # no seed routing certifies on this fabric
        assume(False)
    _assert_draws_match(topology, bit_generator, seed, tables=2)


INTEGER_DTYPES = (
    np.int8,
    np.int16,
    np.int32,
    np.int64,
    np.uint8,
    np.uint16,
    np.uint32,
    np.uint64,
)


def _square(entry, size):
    """Tables of *size* rows of *size* entries each."""
    row = st.lists(entry, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


@st.composite
def next_hop_inputs(draw):
    """Next-hop tables as callers pass them, valid or not."""
    size = draw(st.integers(min_value=0, max_value=6))
    low = -2 * size - 2
    if draw(st.booleans()):  # negative and in-range entries only
        entry = st.integers(min_value=low, max_value=max(size - 1, low))
    else:  # too-large ones too
        entry = st.one_of(
            st.integers(min_value=low, max_value=size + 2),
            st.sampled_from([2**31, 2**63, 2**70, -(2**70)]),
        )
    kind = draw(st.sampled_from(["list", "tuple", "ragged", "array", "float", "bool"]))
    if kind == "list":
        return draw(_square(entry, size))
    if kind == "tuple":
        return tuple(map(tuple, draw(_square(entry, size))))
    if kind == "ragged":
        return draw(st.lists(st.lists(entry, max_size=size + 1), max_size=6))
    if kind == "array":
        dtype = draw(st.sampled_from(INTEGER_DTYPES))
        low = max(int(np.iinfo(dtype).min), low)
        top = max(draw(st.sampled_from([size - 1, size + 2])), low)
        rows = draw(_square(st.integers(min_value=low, max_value=top), size))
        return np.array(rows, dtype=dtype).reshape(size, size)
    if kind == "float":
        rows = draw(_square(st.floats(min_value=-size - 2, max_value=size + 2), size))
    else:
        rows = draw(_square(st.booleans(), size))
    return np.array(rows).reshape(size, size) if draw(st.booleans()) else rows


def _table_or_error(build, next_hops):
    """``("table", next_hops)``, or ``("error", type, message)`` of the build."""
    try:
        return "table", build(next_hops).next_hops
    except Exception as error:  # every error must match, whatever its type
        return "error", type(error), str(error)


def _assert_checks_as_the_reference(next_hops):
    ours = _table_or_error(SynthesizedRouting, next_hops)
    assert ours == _table_or_error(ReferenceSynthesizedRouting, next_hops)
    if ours[0] == "table":
        assert all(type(hop) is int for row in ours[1] for hop in row)


@SETTINGS
@given(next_hops=next_hop_inputs())
def test_synthesized_routing_checks_as_the_reference(next_hops):
    _assert_checks_as_the_reference(next_hops)


@pytest.mark.parametrize(
    "next_hops",
    [
        [[-1, 1], [0, -1]],
        np.array([[0, 1], [0, 0]], dtype=np.uint8),
        [[-1, 2], [0, -1]],
        [[-1, 1], [0]],
        [],
        [[]],
        [[-1.0, 1.5], [0.0, -1.0]],
        [[False, True], [False, False]],
    ],
    ids=[
        "valid", "uint8", "too-large", "ragged", "empty", "empty-row", "float", "bool"
    ],
)
def test_synthesized_routing_cases(next_hops):
    _assert_checks_as_the_reference(next_hops)
