"""docs/OBSERVABILITY.md must describe exactly the metrics and events the
code declares.

The code side is an AST scan of ``src/repro``: every registry
declaration ``<x>.counter/.gauge/.histogram("uucs_...", ...)`` (name,
kind, unit, label names, site) and every ``<x>.emit("<event>", ...)``.
Private ``Histogram(...)`` objects that never join a registry are not
metric families and are out of scope.  The doc side is the "Metric
catalogue" and "Event schema" tables.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "OBSERVABILITY.md"

_KINDS = ("counter", "gauge", "histogram")


def _literal_arg(call: ast.Call, position: int, keyword: str):
    for kw in call.keywords:
        if kw.arg == keyword:
            return ast.literal_eval(kw.value)
    if len(call.args) > position:
        return ast.literal_eval(call.args[position])
    return None


def _scan_code():
    """``({family: [(kind, unit, labels, site)]}, {event: [site]})``."""
    families: dict[str, list] = {}
    events: dict[str, list] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            site = f"{path.relative_to(SRC)}:{node.lineno}"
            if node.func.attr in _KINDS and name.startswith("uucs_"):
                unit = _literal_arg(node, 2, "unit") or ""
                labels = tuple(_literal_arg(node, 3, "labelnames") or ())
                families.setdefault(name, []).append(
                    (node.func.attr, unit, labels, site)
                )
            elif node.func.attr == "emit":
                events.setdefault(name, []).append(site)
    return families, events


def _section(text: str, heading: str) -> str:
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _table_rows(section: str, header: str):
    """Cells of every row of the table whose header line is ``header``."""
    lines = section.splitlines()
    at = lines.index(header)
    rows = []
    for line in lines[at + 2:]:  # skip the header and |---| lines
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _ticked(cell: str) -> tuple[str, ...]:
    return tuple(re.findall(r"`([^`]+)`", cell))


def _scan_doc():
    """``({family: (kind, unit, labels)}, {event}, [duplicate rows])``."""
    text = DOC.read_text(encoding="utf-8")
    rows = _table_rows(
        _section(text, "Metric catalogue"),
        "| metric | kind | unit | labels | meaning |",
    )
    families: dict[str, tuple] = {}
    duplicates = []
    for cells in rows:
        (name,) = _ticked(cells[0])
        if name in families:
            duplicates.append(name)
        families[name] = (cells[1], cells[2], _ticked(cells[3]))
    event_rows = _table_rows(
        _section(text, "Event schema"), "| event | emitted by | fields |"
    )
    events = {_ticked(cells[0])[0] for cells in event_rows}
    return families, events, duplicates


CODE_FAMILIES, CODE_EVENTS = _scan_code()
DOC_FAMILIES, DOC_EVENTS, DOC_DUPLICATES = _scan_doc()


def test_scan_finds_the_known_declarations():
    # Guards the scanners themselves: an AST or table-format change that
    # made either side come back empty would pass every check below.
    assert len(CODE_FAMILIES) > 50 and len(DOC_FAMILIES) > 50
    assert {"span", "session.run"} <= set(CODE_EVENTS) & DOC_EVENTS


def test_every_family_has_one_declaration_site():
    repeated = {
        name: [site for *_, site in decls]
        for name, decls in CODE_FAMILIES.items()
        if len(decls) > 1
    }
    assert not repeated, f"declared at more than one site: {repeated}"


def test_every_declared_family_is_documented():
    missing = sorted(set(CODE_FAMILIES) - set(DOC_FAMILIES))
    assert not missing, f"declared but not in docs/OBSERVABILITY.md: {missing}"


def test_every_documented_family_is_declared():
    stale = sorted(set(DOC_FAMILIES) - set(CODE_FAMILIES))
    assert not stale, f"documented but never declared: {stale}"
    assert not DOC_DUPLICATES, f"documented twice: {DOC_DUPLICATES}"


@pytest.mark.parametrize("field, index", [("kind", 0), ("unit", 1), ("labels", 2)])
def test_declarations_match_the_doc(field, index):
    mismatched = {
        f"{name} ({decl[3]})": (decl[index], DOC_FAMILIES[name][index])
        for name, decls in CODE_FAMILIES.items()
        if name in DOC_FAMILIES
        for decl in decls
        if decl[index] != DOC_FAMILIES[name][index]
    }
    assert not mismatched, f"{field} differs (code, doc): {mismatched}"


def test_every_emitted_event_is_documented():
    missing = sorted(set(CODE_EVENTS) - DOC_EVENTS)
    assert not missing, f"emitted but not in the event schema: {missing}"


def test_every_documented_event_is_emitted():
    stale = sorted(DOC_EVENTS - set(CODE_EVENTS))
    assert not stale, f"documented but never emitted: {stale}"
