"""Certification against the tuple-row reference (tests/reference_synthesis.py).

:meth:`~repro.codesign.synthesis.TableSynthesizer.certify` repairs on the
submitted table's next-hop array, finding each round's entries with one
gather over a witness mask, and returns the fallback's construction-time
certification instead of validating the fallback again.  On 4x4 and 6x6
meshes and a 4x4 torus, under both policies, it must give the reference's
:class:`~repro.codesign.synthesis.CertificationResult` field for field
(rows, report, flags, witness), or raise the reference's error.  Inputs are
the seed tables, random and mutated minimal tables, and random spanning
in-trees: the latter are not minimal, so a repair round can mix their
entries with the fallback's into a table whose walks loop.
"""

import functools
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from reference_synthesis import ReferenceCertifier
from test_routing import SETTINGS

from repro.codesign import CodesignParameters, CodesignSearch, TableSynthesizer
from repro.codesign import synthesis
from repro.codesign.synthesis import _POLICIES
from repro.core.mapping import Mapping
from repro.noc.platform import Platform
from repro.noc.routing import link_adjacency
from repro.noc.topology import Mesh, Torus
from repro.workloads.embedded import image_encoder

FABRICS = {
    "mesh-4x4": Mesh(4, 4),
    "mesh-6x6": Mesh(6, 6),
    "torus-4x4": Torus(4, 4),
}


@functools.lru_cache(maxsize=None)
def _gates(fabric):
    """The library's and the reference's synthesizer on *fabric*."""
    topology = FABRICS[fabric]
    return TableSynthesizer(topology), ReferenceCertifier(topology)


def _spanning_in_trees(topology, seed):
    """Per target, a random spanning in-tree over the links: any next hop
    that reaches the target, shortest or not."""
    rng = random.Random(seed)
    _, incoming = link_adjacency(topology)
    n = topology.num_tiles
    table = [[-1] * n for _ in range(n)]
    for target in range(n):
        reached = [target]
        seen = {target}
        while reached:
            head = reached.pop(rng.randrange(len(reached)))
            for tail in rng.sample(incoming[head], len(incoming[head])):
                if tail not in seen:
                    seen.add(tail)
                    table[target][tail] = head
                    reached.append(tail)
    return tuple(map(tuple, table))


def _tables(synthesizer, seed, mutations):
    rng = np.random.default_rng(seed)
    tables = list(synthesizer.seed_tables().values())
    tables += [synthesizer.random_table(rng) for _ in range(2)]
    tables += [synthesizer.mutate(table, rng, mutations) for table in tables]
    tables.append(_spanning_in_trees(synthesizer.topology, seed))
    return tables


def _outcome(gate, table, policy):
    """The result's fields, or the error's type and message."""
    try:
        result = gate.certify(table, policy)
    except Exception as error:  # every error must match, whatever its type
        return "error", type(error), str(error)
    rows = None if result.routing is None else result.routing.next_hops
    return "result", rows, result.report, result.certified, result.repaired, result.witness


def _assert_certifies_as_the_reference(fabric, tables, policy):
    library, reference = _gates(fabric)
    for table in tables:
        assert _outcome(library, table, policy) == _outcome(reference, table, policy)


@SETTINGS
@given(
    fabric=st.sampled_from(sorted(FABRICS)),
    seed=st.integers(min_value=0, max_value=2**31),
    mutations=st.integers(min_value=1, max_value=16),
    policy=st.sampled_from(_POLICIES),
)
def test_certify_matches_the_reference(fabric, seed, mutations, policy):
    _assert_certifies_as_the_reference(
        fabric, _tables(_gates(fabric)[0], seed, mutations), policy
    )


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_every_path_of_the_repair_is_compared(fabric):
    """Pinned draws reach a plain pass, repairs that certify within the
    rounds, falls back to the fallback table, and a round whose mixed
    table loops."""
    library, _ = _gates(fabric)
    tables = [t for seed in range(6) for t in _tables(library, seed, mutations=4)]
    _assert_certifies_as_the_reference(fabric, tables, "repair")
    outcomes = [_outcome(library, table, "repair") for table in tables]
    fallback = next(iter(library.seed_tables().values()))
    assert any(o[0] == "result" and not o[4] for o in outcomes)
    assert any(o[0] == "result" and o[4] and o[1] != fallback for o in outcomes)
    assert any(o[0] == "result" and o[4] and o[1] == fallback for o in outcomes)
    assert any(o[0] == "error" and "routing loop" in o[2] for o in outcomes)


def test_a_fallback_reuses_the_construction_time_certification(monkeypatch):
    library, _ = _gates("mesh-6x6")
    fallback = next(iter(library.seed_routings().values()))
    validated = []
    validate = synthesis.validate_deadlock_free

    def counting(topology, routing, raise_on_cycle=True):
        validated.append(routing)
        return validate(topology, routing, raise_on_cycle)

    monkeypatch.setattr(synthesis, "validate_deadlock_free", counting)
    result = library.certify(library.random_table(np.random.default_rng(31)))
    assert result.repaired and result.routing is fallback
    # The submitted table and every round's candidate; not the fallback.
    assert len(validated) == 1 + synthesis._MAX_REPAIR_ROUNDS
    assert all(routing is not fallback for routing in validated)


def test_a_search_takes_its_seeds_certified(monkeypatch):
    library, _ = _gates("mesh-4x4")
    seeds = library.seed_routings()
    certified = []
    certify = TableSynthesizer.certify

    def counting(self, *args, **kwargs):
        certified.append(args)
        return certify(self, *args, **kwargs)

    monkeypatch.setattr(TableSynthesizer, "certify", counting)
    cdcg = image_encoder()
    platform = Platform(mesh=FABRICS["mesh-4x4"])
    parameters = CodesignParameters(
        population_size=len(seeds), generations=1, table_mutation_rate=0.0
    )
    engine = CodesignSearch(cdcg, platform, parameters, synthesizer=library)
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=3)
    result = engine.search(initial=initial, rng=5)
    assert certified == []
    assert result.tables_certified == len(seeds)
    assert set(result.front_routings) <= set(seeds.values())
