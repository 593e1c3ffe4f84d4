"""Deterministic JSON certificates for the command-line checks.

A certificate is a plain JSON object with sorted keys: tool version, the
command and its inputs, one result block per check (status PASS, FAIL, or
UNDECIDED plus a structured payload), and the caveat list.  All rationals
are rendered ``a/b`` (or ``a``), all polynomials in the canonical term
order, and collections are sorted before rendering, so byte-identical runs
produce byte-identical certificates.

Each checker's report renders its own payload (``to_payload``); the two
table blocks, which identify a table by its hash, are rendered here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from . import __version__

if TYPE_CHECKING:
    from .annihilation import FiniteLieAlgebra
    from .conformal import ConformalAlgebra

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


@dataclass
class CheckResult:
    name: str
    status: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class Certificate:
    command: str
    inputs: dict[str, Any]
    results: list[CheckResult] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)
    tool_version: str = __version__

    def add(self, name: str, status: str, payload: dict[str, Any] | None = None) -> None:
        self.results.append(CheckResult(name, status, payload or {}))

    def check(self, name: str, ok: bool, payload: dict[str, Any]) -> None:
        """Add a result that passes exactly when ``ok``."""
        self.add(name, PASS if ok else FAIL, payload)

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == FAIL for r in self.results) else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool": "confal",
            "tool_version": self.tool_version,
            "command": self.command,
            "inputs": self.inputs,
            "results": [
                {"name": r.name, "status": r.status, "payload": r.payload}
                for r in self.results
            ],
            "caveats": list(self.caveats),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def conformal_table_hash(alg: ConformalAlgebra) -> str:
    data = {
        f"{i},{j}": {str(k): str(v) for k, v in sorted(entry.items())}
        for (i, j), entry in sorted(alg.structure.items())
    }
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def lie_table_hash(alg: FiniteLieAlgebra) -> str:
    data = {
        f"{x}|{y}": {label: str(c)} for (x, y), (label, c) in sorted(alg.table.items())
    }
    blob = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def structure_table(alg: ConformalAlgebra) -> dict[str, Any]:
    """Payload of the ``structure_table`` block: the table's identity and hash."""
    return {
        "algebra": alg.name,
        "window": alg.window,
        "policy": alg.policy.value,
        "sha256": conformal_table_hash(alg),
    }


def bracket_table(alg: FiniteLieAlgebra, expanded: bool) -> dict[str, Any]:
    """Payload of the ``bracket_table`` block: the table's identity and hash.

    A mode expansion (``expanded``) also states that the closed form agreed,
    which :func:`~confal.annihilation.build_annihilation` enforces, and how
    many pairs lost a product to the window.
    """
    payload: dict[str, Any] = {
        "algebra": alg.name,
        "basis_size": len(alg.basis),
        "sha256": lie_table_hash(alg),
    }
    if expanded:
        payload["closed_form_cross_check"] = "agreed"
        payload["truncated_pairs"] = len(alg.truncated_pairs)
    return payload
