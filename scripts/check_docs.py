#!/usr/bin/env python3
"""Docs drift gate: links, a complete ARCHITECTURE map, live sweep specs.

Run from anywhere::

    python scripts/check_docs.py

Four checks, all cheap and all fatal on failure:

1. every relative markdown link in ``README.md`` and ``docs/*.md`` points
   at a file that exists (anchors are stripped; external URLs skipped);
2. every *public* module under ``src/repro/`` — any ``.py`` whose dotted
   path has no underscore-prefixed component — is mentioned by dotted name
   in ``docs/ARCHITECTURE.md``, so the package map cannot silently drift
   as modules are added;
3. every sweep spec referenced in ``docs/SWEEPS.md`` as a backticked
   ```` `sweep:<name>` ```` token resolves to a builtin spec that expands
   to a non-empty run matrix, so the sweeps guide cannot document a spec
   that no longer exists (and the builtins are smoke-expanded on every
   docs build);
4. the version in ``pyproject.toml`` equals ``repro.__version__``.

CI runs this in the ``docs`` job next to smoke-running every example.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SWEEP_REF = re.compile(r"`sweep:([A-Za-z0-9_-]+)`")
VERSION = re.compile(r'^(?:__)?version(?:__)? = "([^"]+)"', re.MULTILINE)


def doc_files() -> list[Path]:
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def check_links() -> list[str]:
    """Every relative markdown link must resolve from its document."""
    failures: list[str] = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            if not (doc.parent / path).resolve().exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {target}"
                )
    return failures


def public_modules() -> list[str]:
    """Dotted names of every public module under src/repro.

    A package's ``__init__.py`` maps to the package name itself; any path
    component starting with an underscore (``_util``, ``__pycache__``)
    makes the module private and exempt.
    """
    modules: set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if any(part.startswith("_") for part in parts):
            continue
        modules.add(".".join(parts))
    return sorted(modules)


def check_architecture_mentions() -> list[str]:
    """docs/ARCHITECTURE.md must name every public module.

    Word-boundary matching: a mention of ``repro.faults.election`` does
    not count as mentioning the ``repro.faults`` package itself, so parent
    packages cannot pass vacuously as substrings of their children.
    """
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    return [
        f"docs/ARCHITECTURE.md does not mention {module}"
        for module in public_modules()
        if not re.search(rf"(?<![\w.]){re.escape(module)}(?![\w.])", text)
    ]


def sweep_references() -> list[str]:
    """Spec names referenced as ```` `sweep:<name>` ```` in docs/SWEEPS.md."""
    sweeps_doc = ROOT / "docs" / "SWEEPS.md"
    if not sweeps_doc.exists():
        return []
    return sorted(set(SWEEP_REF.findall(sweeps_doc.read_text(encoding="utf-8"))))


def check_sweep_specs() -> list[str]:
    """Every documented sweep spec must exist and expand to a real matrix."""
    names = sweep_references()
    failures: list[str] = []
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.exceptions import ConfigurationError
        from repro.sweeps import BUILTIN_SWEEPS, get_sweep
    except Exception as exc:  # pragma: no cover - import plumbing broke
        return [f"docs/SWEEPS.md: cannot import repro.sweeps ({exc})"]
    if not names:
        failures.append(
            "docs/SWEEPS.md references no `sweep:<name>` specs; the sweeps "
            "guide must name the builtin specs it documents"
        )
    for name in names:
        if name not in BUILTIN_SWEEPS:
            failures.append(
                f"docs/SWEEPS.md references `sweep:{name}` but it is not a "
                f"builtin sweep (known: {sorted(BUILTIN_SWEEPS)})"
            )
            continue
        try:
            cells = get_sweep(name).expand()
        except ConfigurationError as exc:
            failures.append(f"docs/SWEEPS.md: `sweep:{name}` fails to expand ({exc})")
            continue
        if not cells:
            failures.append(
                f"docs/SWEEPS.md: `sweep:{name}` expands to an empty matrix"
            )
    return failures


def check_version() -> list[str]:
    """The package metadata and ``repro.__version__`` must agree."""
    found = {}
    for path in ("pyproject.toml", "src/repro/__init__.py"):
        match = VERSION.search((ROOT / path).read_text(encoding="utf-8"))
        found[path] = match.group(1) if match else None
    if len(set(found.values())) != 1 or None in found.values():
        return [
            "version drift: "
            + ", ".join(f"{path} says {version}" for path, version in found.items())
        ]
    return []


def main() -> int:
    failures = (
        check_links()
        + check_architecture_mentions()
        + check_sweep_specs()
        + check_version()
    )
    modules = public_modules()
    sweeps = sweep_references()
    links = sum(
        len(LINK.findall(doc.read_text(encoding="utf-8")))
        for doc in doc_files()
    )
    if failures:
        print(f"docs check FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"docs check ok: {links} links across {len(doc_files())} documents "
        f"resolve, all {len(modules)} public modules mentioned in "
        f"docs/ARCHITECTURE.md, {len(sweeps)} documented sweep spec(s) expand, "
        f"versions agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
