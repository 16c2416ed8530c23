"""One verdict per campaign report, shared by the CLI and the report gate.

Each campaign module has one ``verdict(payload) -> Verdict``: the
campaign command exits with its :func:`exit_code`, and ``check_results``
fails on any of its messages, so the two cannot disagree.  Every
campaign driver persists its report with :func:`write_report`, and the
gate reads it back with :func:`load_report`.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.store import write_json_atomic


@dataclasses.dataclass
class Verdict:
    """A report's messages in three lists: ``findings`` (exit 2),
    ``harness`` failures (exit 1), and ``incomplete`` or malformed
    report (exit 0, so a budgeted run can be resumed; the gate fails)."""

    findings: List[str] = dataclasses.field(default_factory=list)
    harness: List[str] = dataclasses.field(default_factory=list)
    incomplete: List[str] = dataclasses.field(default_factory=list)

    @property
    def messages(self) -> List[str]:
        """Every message, most severe first: what the gate fails on."""
        return self.findings + self.harness + self.incomplete


def exit_code(verdict: Verdict) -> int:
    """2 on any finding, else 1 on any harness failure, else 0."""
    if verdict.findings:
        return 2
    return 1 if verdict.harness else 0


def write_report(payload: Dict[str, Any], output,
                 default: pathlib.Path) -> None:
    """Durably write a campaign report to ``output`` (``default``, a
    path at the repository root, when ``output`` is empty) and record
    where it went as the payload's ``report_path``."""
    path = pathlib.Path(output) if output else default
    write_json_atomic(path, payload)
    payload["report_path"] = str(path)


def load_report(path, label: str, command: str
                ) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """Read a JSON object report: ``(payload, [])`` or ``(None, [why])``,
    where ``why`` names the file by ``label`` and the writing ``command``."""
    path = pathlib.Path(path)
    if not path.exists():
        return None, [f"{label} {path} does not exist (run `{command}`)"]
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        return None, [f"{label} {path} is not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return None, [f"{label} {path}: top level must be an object, "
                      f"got {type(payload).__name__}"]
    return payload, []
