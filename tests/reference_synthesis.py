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
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.codesign.synthesis import (
    NextHopTable,
    SynthesizedRouting,
    TableSynthesizer,
)
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
