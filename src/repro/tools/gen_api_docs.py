"""Generate ``docs/API.md`` from the public docstrings of ``repro``.

Walks every public module under ``src/repro/``, extracts module, class,
method, and function docstrings, and emits one deterministic Markdown
reference.  Members with no docstring are rendered as *undocumented* --
the generated file doubles as a coverage report (ruff's D1xx rules
enforce zero such entries for ``repro.telemetry`` and
``repro.harness``; see ``pyproject.toml``).

CI runs ``--check``: the committed ``docs/API.md`` must match what this
script generates, so the reference can never go stale.

Usage::

    PYTHONPATH=src python -m repro.tools.gen_api_docs [--check]
        [--output docs/API.md]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
from typing import Any, List, Optional, Tuple

from repro.store import REPO_ROOT

DEFAULT_OUTPUT = REPO_ROOT / "docs" / "API.md"

HEADER = """\
# `repro` API reference

<!-- GENERATED FILE - DO NOT EDIT.
     Regenerate with:
         PYTHONPATH=src python -m repro.tools.gen_api_docs
     CI runs this with --check and fails when the file is stale. -->

Public modules, classes, and functions of the MIPS-X reproduction,
extracted from docstrings.  See [DESIGN.md](../DESIGN.md) for the
architecture and [OBSERVABILITY.md](OBSERVABILITY.md) for the telemetry
layer this reference documents under `repro.telemetry`.
"""

#: memory addresses in default-value reprs would make output
#: nondeterministic
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def public_modules(package: str = "repro") -> List[str]:
    """Sorted names of every public (non-underscore) module."""
    root = importlib.import_module(package)
    names = [package]
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        names.append(info.name)
    return sorted(names)


def _signature(obj: Any) -> str:
    """``inspect.signature`` text, sanitised for determinism."""
    try:
        text = str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"
    return _ADDRESS.sub(" at ...", text)


def _first_paragraph(doc: Optional[str]) -> str:
    """The docstring's first paragraph, joined to one line."""
    if not doc:
        return ""
    lines: List[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _doc_line(doc: Optional[str]) -> str:
    """One-line summary, or the *undocumented* coverage marker."""
    summary = _first_paragraph(doc)
    return summary if summary else "*undocumented*"


def _own_members(module: Any) -> List[Tuple[int, str, Any]]:
    """(source line, name, object) for public defs owned by ``module``.

    Re-exports (``__module__`` elsewhere) are skipped so every symbol is
    documented exactly once, in its defining module.
    """
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        try:
            line = inspect.getsourcelines(obj)[1]
        except (OSError, TypeError):
            line = 0
        members.append((line, name, obj))
    return sorted(members, key=lambda entry: (entry[0], entry[1]))


def _class_section(name: str, cls: type) -> List[str]:
    lines = [f"### class `{name}{_signature(cls)}`", "",
             _doc_line(cls.__doc__), ""]
    methods = []
    for attr_name, attr in sorted(vars(cls).items()):
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            doc = _doc_line(attr.fget.__doc__ if attr.fget else None)
            methods.append(f"- `{attr_name}` (property) -- {doc}")
        elif isinstance(attr, (staticmethod, classmethod)):
            fn = attr.__func__
            methods.append(f"- `{attr_name}{_signature(fn)}` -- "
                           f"{_doc_line(fn.__doc__)}")
        elif inspect.isfunction(attr):
            methods.append(f"- `{attr_name}{_signature(attr)}` -- "
                           f"{_doc_line(attr.__doc__)}")
    if methods:
        lines.extend(methods)
        lines.append("")
    return lines


def generate(package: str = "repro") -> str:
    """Render the full API reference Markdown document."""
    out: List[str] = [HEADER]
    undocumented = 0
    for module_name in public_modules(package):
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        out.append(_doc_line(module.__doc__))
        out.append("")
        for _, name, obj in _own_members(module):
            if inspect.isclass(obj):
                out.extend(_class_section(name, obj))
            else:
                out.append(f"### `{name}{_signature(obj)}`")
                out.append("")
                out.append(_doc_line(obj.__doc__))
                out.append("")
    text = "\n".join(out)
    undocumented = text.count("*undocumented*")
    coverage = ["---", "",
                f"*{undocumented} undocumented public member(s) remain "
                "(search for `*undocumented*` above; `repro.telemetry` "
                "and `repro.harness` are lint-enforced to zero by ruff "
                "D1xx).*", ""]
    return text + "\n".join(coverage)


def main(argv=None) -> int:
    """CLI entry: write ``docs/API.md`` or verify it is current."""
    parser = argparse.ArgumentParser(
        prog="gen_api_docs",
        description="generate docs/API.md from repro docstrings")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT, metavar="PATH",
                        help="target file (default: docs/API.md)")
    parser.add_argument("--check", action="store_true",
                        help="do not write; exit 1 if the file is stale")
    args = parser.parse_args(argv)

    text = generate()
    if args.check:
        if not args.output.exists():
            print(f"{args.output} does not exist -- run "
                  "`PYTHONPATH=src python -m repro.tools.gen_api_docs`",
                  file=sys.stderr)
            return 1
        if args.output.read_text() != text:
            print(f"{args.output} is stale -- regenerate with "
                  "`PYTHONPATH=src python -m repro.tools.gen_api_docs`",
                  file=sys.stderr)
            return 1
        print(f"{args.output} is current")
        return 0
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
