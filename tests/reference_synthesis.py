"""Reference synthesis code, kept as an oracle.

:class:`ReferenceSynthesizer` carries, copied verbatim, the per-entry
:meth:`~repro.codesign.synthesis.TableSynthesizer.random_table` from before
it drew every entry's choice in one call.  It walks ``(target, tile)`` in
order and draws ``generator.integers(len(choices))`` once per entry with a
choice.  ``tests/test_synthesis_oracle.py`` draws from it and from the
library with equal generators and requires equal tables and equal draws
afterwards.

:class:`ReferenceSynthesizedRouting` carries, copied verbatim, the
per-entry check of :class:`~repro.codesign.synthesis.SynthesizedRouting`
from before a NumPy pass accepted square integer tables: ``int()`` and a
range check on every entry.  The same test file requires equal tables, or
equal errors, from both.

:class:`ReferenceCertifier` carries, copied verbatim, the tuple-row
:meth:`~repro.codesign.synthesis.TableSynthesizer.certify` from before it
repaired on the next-hop array and reused the fallback's construction-time
certification: each repair round reverts entry by entry on lists, and the
fallback is validated again whenever a repair falls back to it.  Two
references to library internals that are gone are replaced by public
equivalents: the fallback rows are the first seed table (the first seed
that certifies is the fallback), and each candidate goes through the
checking constructor rather than the unchecked ``_from_rows``, which built
an equal routing.  ``tests/test_certify_oracle.py`` requires equal
certification results from both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.codesign.synthesis import (
    _MAX_REPAIR_ROUNDS,
    _POLICIES,
    DEFAULT_POLICY,
    CertificationResult,
    NextHopTable,
    SynthesizedRouting,
    TableSynthesizer,
)
from repro.noc.deadlock import validate_deadlock_free
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng


class ReferenceSynthesizedRouting(SynthesizedRouting):
    """A :class:`SynthesizedRouting` whose table is checked entry by entry."""

    def __init__(self, next_hops: Sequence[Sequence[int]]) -> None:
        table = tuple(tuple(int(hop) for hop in row) for row in next_hops)
        if not table:
            raise ConfigurationError("next-hop table must not be empty")
        size = len(table)
        for target, row in enumerate(table):
            if len(row) != size:
                raise ConfigurationError(
                    f"next-hop row for target {target} has {len(row)} entries; "
                    f"expected one per tile ({size})"
                )
            for tile, hop in enumerate(row):
                if hop >= size:
                    raise ConfigurationError(
                        f"next hop {hop} of tile {tile} towards target "
                        f"{target} is outside the {size}-tile table"
                    )
        self._next_hops = table
        self._digest: Optional[str] = None


class ReferenceSynthesizer(TableSynthesizer):
    """A :class:`TableSynthesizer` whose random tables draw entry by entry."""

    def random_table(self, rng: RandomSource = None) -> NextHopTable:
        """A uniformly random minimal table (reachable by construction)."""
        generator = ensure_rng(rng)
        n = self.topology.num_tiles
        table: List[List[int]] = [[-1] * n for _ in range(n)]
        for target in range(n):
            for tile in range(n):
                if tile == target:
                    continue
                choices = self._choices[target][tile]
                if not choices:
                    continue
                table[target][tile] = choices[
                    int(generator.integers(len(choices)))
                ]
        return tuple(tuple(row) for row in table)


class ReferenceCertifier(TableSynthesizer):
    """A :class:`TableSynthesizer` whose gate repairs on tuple rows."""

    def certify(
        self, table: NextHopTable, policy: str = DEFAULT_POLICY
    ) -> CertificationResult:
        """Gate *table* through the deadlock validator before any pricing."""
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown certification policy {policy!r}; "
                f"expected one of {_POLICIES}"
            )
        routing = SynthesizedRouting(table)
        report = validate_deadlock_free(
            self.topology, routing, raise_on_cycle=False
        )
        if report.deadlock_free:
            return CertificationResult(
                routing=routing, report=report, certified=True, repaired=False
            )
        first_witness = report.cycle
        if policy == "reject":
            return CertificationResult(
                routing=None,
                report=report,
                certified=False,
                repaired=False,
                witness=first_witness,
            )
        fallback = next(iter(self.seed_tables().values()))
        assert fallback is not None  # constructor guarantees a fallback
        # Repair rounds only mix entries of two validated tables: the
        # submitted one as its routing normalised it, and the fallback.
        rows = [list(row) for row in routing.next_hops]
        targets = range(len(rows))
        for round_index in range(_MAX_REPAIR_ROUNDS):
            # An entry feeds a witness link (u, v) when it sends tile u to v;
            # only such entries that differ from the fallback revert.
            reverted = False
            for tile, hop in report.cycle:
                for target in targets:
                    if rows[target][tile] == hop != fallback[target][tile]:
                        rows[target][tile] = fallback[target][tile]
                        reverted = True
            if not reverted:
                # The witness survives on fallback entries alone; only the
                # full fallback (certified at construction) can clear it.
                rows = [list(row) for row in fallback]
            candidate = tuple(tuple(row) for row in rows)
            routing = SynthesizedRouting(candidate)
            report = validate_deadlock_free(
                self.topology, routing, raise_on_cycle=False
            )
            if report.deadlock_free:
                return CertificationResult(
                    routing=routing,
                    report=report,
                    certified=True,
                    repaired=True,
                    witness=first_witness,
                )
        # Witness-guided reverts are monotone (entries only ever move toward
        # the fallback) but a large mesh can surface more distinct cycles
        # than there are rounds; when the budget runs out, revert wholesale
        # to the fallback, which is certified by construction.
        routing = SynthesizedRouting(fallback)
        report = validate_deadlock_free(
            self.topology, routing, raise_on_cycle=False
        )
        if report.deadlock_free:
            return CertificationResult(
                routing=routing,
                report=report,
                certified=True,
                repaired=True,
                witness=first_witness,
            )
        return CertificationResult(  # pragma: no cover - defensive
            routing=None,
            report=report,
            certified=False,
            repaired=True,
            witness=first_witness,
        )
