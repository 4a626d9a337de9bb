#!/usr/bin/env python3
"""Check that markdown cross-links in the documentation resolve.

Scans ``docs/*.md`` plus the top-level markdown files for:

* relative links — ``[text](OTHER.md)`` / ``[text](OTHER.md#anchor)``
  must point at an existing file (resolved against the containing
  file's directory), and an ``#anchor`` must match a heading in the
  target file (GitHub slugification: lowercase, spaces to dashes,
  punctuation stripped);
* in-page anchors — ``[text](#anchor)`` must match a heading in the
  same file;
* wiki-style references — ``[[NAME]]`` resolves to ``NAME.md`` next to
  the containing file.

External links (``http(s)://``, ``mailto:``) are ignored; fenced code
blocks and inline code spans are stripped before scanning so examples
can't produce false positives.

It also scans ``src/**/*.py`` for ``NAME.md`` mentions (docstrings,
comments, report notes): each must name an existing ``docs/NAME.md``
or repo-root ``NAME.md``.

Last, every backticked, fully qualified ``repro.…`` name in
``docs/*.md`` (outside fenced blocks) must resolve: the longest module
prefix imports, and ``getattr`` finds the rest, so a doc cannot keep
naming code that was deleted. This part imports the program, so run
the checker with ``PYTHONPATH=src``. The top-level markdown files are
not name-checked: CHANGES.md and ROADMAP.md are history.

Exits non-zero listing every broken link. Run from anywhere: paths
resolve relative to the repo root (this file's grandparent). CI runs
this in the fast job; ``tests/test_doc_links.py`` wraps it for the
local suite.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target captured up to the closing paren.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: ``[[NAME]]`` wiki-style reference.
_WIKI = re.compile(r"\[\[([^\]|#]+)(?:#([^\]|]+))?\]\]")
_FENCE = re.compile(r"^(```|~~~)")
_INLINE_CODE = re.compile(r"`[^`]*`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_EXTERNAL = ("http://", "https://", "mailto:")
#: A ``NAME.md`` mention in source, with any directory prefix dropped.
_SOURCE_MD = re.compile(r"([\w-]+)\.md\b")
#: A backticked ``repro.…`` name, optionally written as a call.
_QUALIFIED = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


def strip_code(text: str) -> str:
    """Drop fenced blocks and inline code spans, preserving line count
    (so reported line numbers match the source file)."""
    out = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            out.append("")
        elif in_fence:
            out.append("")
        else:
            out.append(_INLINE_CODE.sub("", line))
    return "\n".join(out)


def slugify(heading: str) -> str:
    """GitHub-style heading anchor: strip markup, lowercase, spaces to
    dashes, drop everything but word chars and dashes."""
    text = _INLINE_CODE.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower().replace(" ", "-")
    return re.sub(r"[^\w\-]", "", text)


def display(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:  # outside the repo (tests run on tmp dirs)
        return str(path)


def heading_anchors(path: Path) -> set[str]:
    anchors: set[str] = set()
    for line in strip_code(path.read_text(encoding="utf-8")).splitlines():
        match = _HEADING.match(line)
        if match:
            anchors.add(slugify(match.group(1)))
    return anchors


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    text = strip_code(path.read_text(encoding="utf-8"))

    def check_target(lineno: int, raw: str, target: str,
                     anchor: str | None) -> None:
        if target:
            dest = (path.parent / target).resolve()
            if not dest.is_file():
                errors.append(
                    f"{display(path)}:{lineno}: broken "
                    f"link {raw!r}: no such file {target!r}")
                return
        else:
            dest = path  # in-page anchor
        if anchor and dest.suffix == ".md":
            if anchor.lower() not in heading_anchors(dest):
                errors.append(
                    f"{display(path)}:{lineno}: broken "
                    f"anchor {raw!r}: no heading #{anchor} in "
                    f"{display(dest)}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _LINK.finditer(line):
            href = match.group(1)
            if href.startswith(_EXTERNAL):
                continue
            target, _, anchor = href.partition("#")
            check_target(lineno, match.group(0), target, anchor or None)
        for match in _WIKI.finditer(line):
            name, anchor = match.group(1).strip(), match.group(2)
            check_target(lineno, match.group(0), f"{name}.md", anchor)
    return errors


def check_source(path: Path, root: Path = REPO_ROOT) -> list[str]:
    """``NAME.md`` mentions in a source file that name no document:
    neither ``root/docs/NAME.md`` nor ``root/NAME.md`` exists."""
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _SOURCE_MD.finditer(line):
            name = f"{match.group(1)}.md"
            if not ((root / "docs" / name).is_file()
                    or (root / name).is_file()):
                errors.append(f"{display(path)}:{lineno}: cites "
                              f"{name}: no docs/{name} or {name}")
    return errors


def resolve(name: str) -> str | None:
    """``None`` when ``name`` resolves, else why it does not."""
    parts = name.split(".")
    for n in range(len(parts), 0, -1):
        module_name = ".".join(parts[:n])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is not None and module_name.startswith(exc.name):
                continue  # no such module: try a shorter prefix
            raise
        for attr in parts[n:]:
            if not hasattr(obj, attr):
                return f"no {attr!r} in {module_name}"
            obj = getattr(obj, attr)
            module_name += f".{attr}"
        return None
    return f"no module {parts[0]!r}"


def check_names(path: Path) -> list[str]:
    """Backticked ``repro.…`` names in a document that do not resolve."""
    errors: list[str] = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _QUALIFIED.finditer(line):
            why = resolve(match.group(1))
            if why is not None:
                errors.append(f"{display(path)}:{lineno}: names "
                              f"{match.group(1)}: {why}")
    return errors


def main() -> int:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    files = docs + sorted(p for p in REPO_ROOT.glob("*.md"))
    sources = sorted((REPO_ROOT / "src").rglob("*.py"))
    errors: list[str] = []
    for path in files:
        errors.extend(check_file(path))
    for path in docs:
        errors.extend(check_names(path))
    for path in sources:
        errors.extend(check_source(path))
    if errors:
        print(f"{len(errors)} broken doc link(s):", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"doc links ok ({len(files)} docs and {len(sources)} source "
          f"files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
