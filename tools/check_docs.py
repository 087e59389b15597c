#!/usr/bin/env python
"""Documentation gate for CI: docstrings, intra-doc links and guide coverage.

Three checks, zero third-party dependencies:

1. **Docstring coverage** — every public module, class, function and public
   method reachable from the packages in :data:`PACKAGES` (the documented
   API surface of docs/api.md) must carry a docstring.  Public means: listed
   in ``__all__`` (for module members) or not underscore-prefixed (for
   methods of public classes); dunder methods and inherited members are
   exempt.

2. **Link integrity** — every relative markdown link in ``docs/*.md`` and
   ``README.md`` must point to an existing file, and fragment links
   (``path#anchor`` or ``#anchor``) must match a heading in the target file
   (GitHub-style slugs).

3. **Guide coverage** — one table, :data:`GUIDES`, says what each guide
   under ``docs/`` must contain: section headings naming its contracts,
   the symbols it must mention, and names enumerated from code (every
   search engine, topology, routing spec, repair knob and scenario event
   kind), so a new engine, knob or event cannot land undocumented.

Exits non-zero with a list of violations; run from the repository root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Packages whose public API must be fully documented.
PACKAGES = [
    "repro.eval",
    "repro.search",
    "repro.noc",
    "repro.service",
    "repro.scenario",
    "repro.codesign",
]

#: The guides directory.
DOCS_DIR = REPO_ROOT / "docs"

#: Markdown files whose relative links are verified.
DOC_FILES = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


# ----------------------------------------------------------------------
# Docstring coverage
# ----------------------------------------------------------------------
def _public_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    package_path = Path(package.__file__).parent
    for module_file in sorted(package_path.glob("*.py")):
        if module_file.stem.startswith("_"):
            continue
        yield importlib.import_module(f"{package_name}.{module_file.stem}")


def check_docstrings() -> list:
    problems = []
    for package_name in PACKAGES:
        for module in _public_modules(package_name):
            if not (module.__doc__ or "").strip():
                problems.append(f"{module.__name__}: missing module docstring")
            exported = getattr(module, "__all__", None)
            if exported is None:
                problems.append(f"{module.__name__}: missing __all__")
                continue
            for name in exported:
                member = getattr(module, name, None)
                if member is None:
                    problems.append(f"{module.__name__}.{name}: in __all__ but undefined")
                    continue
                if not (inspect.isclass(member) or inspect.isfunction(member)):
                    continue  # constants and aliases need no docstring
                if not (inspect.getdoc(member) or "").strip():
                    problems.append(f"{module.__name__}.{name}: missing docstring")
                if inspect.isclass(member):
                    problems.extend(_check_methods(module.__name__, member))
    return problems


def _check_methods(module_name: str, cls: type) -> list:
    problems = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        func = None
        if inspect.isfunction(member):
            func = member
        elif isinstance(member, (classmethod, staticmethod)):
            func = member.__func__
        elif isinstance(member, property):
            func = member.fget
        if func is None:
            continue
        if not (inspect.getdoc(func) or "").strip():
            problems.append(f"{module_name}.{cls.__name__}.{name}: missing docstring")
    return problems


# ----------------------------------------------------------------------
# Intra-doc links
# ----------------------------------------------------------------------
def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"[`*]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(markdown: str) -> set:
    return {_slugify(match) for match in _HEADING_RE.findall(markdown)}


def check_links() -> list:
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            problems.append(f"{doc.relative_to(REPO_ROOT)}: file missing")
            continue
        text = doc.read_text()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part).resolve() if path_part else doc
            label = f"{doc.relative_to(REPO_ROOT)} -> {target}"
            if path_part and not resolved.exists():
                problems.append(f"{label}: target does not exist")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in _anchors(resolved.read_text()):
                    problems.append(f"{label}: no heading for anchor #{fragment}")
    return problems


# ----------------------------------------------------------------------
# Guide coverage
# ----------------------------------------------------------------------
Names = Tuple[List[str], List[str]]


def _no_names() -> Names:
    return [], []


def _exported_subclasses(package, base: type) -> list:
    """The proper subclasses of *base* in *package*'s ``__all__``."""
    members = [getattr(package, name, None) for name in package.__all__]
    return [
        member
        for member in members
        if inspect.isclass(member) and issubclass(member, base) and member is not base
    ]


def _engine_names() -> Names:
    """Every exported search engine needs a heading naming its registry id."""
    import repro.search as search_package
    from repro.search.base import Searcher

    return [
        engine.name.lower()
        for engine in _exported_subclasses(search_package, Searcher)
    ], []


def _topology_names() -> Names:
    """Every exported topology needs a heading, every routing spec a mention."""
    import repro.noc as noc_package
    from repro.noc.routing import available_routings
    from repro.noc.topology import Topology

    topologies = [
        topology.__name__
        for topology in _exported_subclasses(noc_package, Topology)
    ]
    return topologies, [f"`{spec}`" for spec in available_routings()]


def _api_names() -> Names:
    """Every RepairPolicy knob needs a mention."""
    import dataclasses

    from repro.eval.repair import RepairPolicy

    return [], [f"`{knob.name}`" for knob in dataclasses.fields(RepairPolicy)]


def _event_names() -> Names:
    """Every scenario event kind needs a mention."""
    from repro.scenario.events import EVENT_TYPES

    return [], [f"`{kind}`" for kind in EVENT_TYPES]


class Guide(NamedTuple):
    """What one guide under ``docs/`` must contain."""

    #: File name under ``docs/``.
    path: str
    #: Needles some section heading must contain (see :func:`heading_matches`).
    headings: Tuple[str, ...] = ()
    #: Strings the guide's text must contain.
    symbols: Tuple[str, ...] = ()
    #: Names enumerated from code: ``() -> (heading needles, symbols)``.
    names: Callable[[], Names] = _no_names


#: Every guide gate, one row per guide.
GUIDES: Tuple[Guide, ...] = (
    Guide("search.md", headings=("nsga3", "codesign"), names=_engine_names),
    Guide(
        "topologies.md",
        symbols=("validate_deadlock_free",),
        names=_topology_names,
    ),
    Guide(
        "architecture.md",
        # The bounded-repair drift/resync contract, and the service and
        # dynamic-scenario data flows.
        headings=("bounded repair", "service", "scenario"),
    ),
    Guide(
        "api.md",
        symbols=("`repair`", "`ComparisonConfig.backend`"),
        names=_api_names,
    ),
    Guide(
        "service.md",
        headings=("store", "bit-identity", "comparisonconfig"),
        symbols=("ResultStore", "ServiceBackend"),
    ),
    Guide(
        "scenarios.md",
        headings=("event model", "fault", "determinism", "comparisonconfig"),
        symbols=(
            "ScenarioScript",
            "FabricManager",
            "RegionObjective",
            "ScenarioRunner",
            "validate_deadlock_free",
            "IrregularTopology.from_crg",
            "tests/scenario_harness.py",
        ),
        names=_event_names,
    ),
    Guide(
        "codesign.md",
        headings=("genome", "certification gate", "reference-point", "comparisonconfig"),
        symbols=(
            "SynthesizedRouting",
            "TableSynthesizer",
            "CodesignSearch",
            "register_synthesized",
            "validate_deadlock_free",
            "max_link_utilisation",
        ),
    ),
)


def heading_matches(heading: str, needle: str) -> bool:
    """Whether *heading* names *needle*.

    A lower-case needle matches in any case; a needle with capitals (a class
    name) must match as written.
    """
    return needle in (heading.lower() if needle.islower() else heading)


def requirements(guide: Guide) -> Names:
    """Every heading needle and symbol of *guide*, the names from code last."""
    heading_needles, symbols = guide.names()
    return [*guide.headings, *heading_needles], [*guide.symbols, *symbols]


def check_guides(docs_dir: Path = DOCS_DIR) -> list:
    """Every :data:`GUIDES` row against the guides in *docs_dir*."""
    problems = []
    for guide in GUIDES:
        label = f"docs/{guide.path}"
        path = docs_dir / guide.path
        if not path.exists():
            problems.append(f"{label}: file missing")
            continue
        text = path.read_text()
        headings = _HEADING_RE.findall(text)
        needles, symbols = requirements(guide)
        for needle in needles:
            if not any(heading_matches(heading, needle) for heading in headings):
                problems.append(f"{label}: no section heading names {needle!r}")
        for symbol in symbols:
            if symbol not in text:
                problems.append(f"{label}: {symbol} is never mentioned")
    return problems


def main() -> int:
    problems = check_docstrings() + check_links() + check_guides()
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "check_docs: all docstrings present, all intra-doc links resolve, "
        "every guide covers its contracts"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
