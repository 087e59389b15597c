"""Random tables against the per-entry reference (tests/reference_synthesis.py).

:meth:`~repro.codesign.synthesis.TableSynthesizer.random_table` draws every
entry's choice in one ``generator.integers(counts)`` call.  That equals one
scalar ``integers(len(choices))`` call per entry, in ``(target, tile)``
order, only because NumPy draws broadcast bounds one element at a time,
which it does not document.  So on every bit generator NumPy ships, tables
drawn from the library and from the reference with equal generators must be
equal, and so must the draws that follow them.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given

from reference_synthesis import ReferenceSynthesizer
from test_routing import SETTINGS, fabrics

from repro.codesign import TableSynthesizer
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
