"""Reference random tables: one ``integers`` call per table entry, kept as an oracle.

:class:`ReferenceSynthesizer` carries, copied verbatim, the per-entry
:meth:`~repro.codesign.synthesis.TableSynthesizer.random_table` from before
it drew every entry's choice in one call.  It walks ``(target, tile)`` in
order and draws ``generator.integers(len(choices))`` once per entry with a
choice.  ``tests/test_synthesis_oracle.py`` draws from it and from the
library with equal generators and requires equal tables and equal draws
afterwards.
"""

from __future__ import annotations

from typing import List

from repro.codesign.synthesis import NextHopTable, TableSynthesizer
from repro.utils.rng import RandomSource, ensure_rng


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
