"""Deterministic JSON certificates for the command-line checks.

A certificate is a plain JSON object with sorted keys: tool version, the
command and its inputs, one result block per check (status PASS, FAIL, or
UNDECIDED plus a structured payload), and the caveat list.  All rationals
are rendered ``a/b`` (or ``a``), all polynomials in the canonical term
order, and collections are sorted before rendering, so byte-identical runs
produce byte-identical certificates.

Each checker's report renders its own payload (``to_payload``); the two
table blocks, which identify a table by its hash, are rendered here.  A
table hash is the SHA-256 of the table as ``json.dumps(data,
sort_keys=True)`` would write it, rows in the string order of their keys;
the rows are rendered and fed to the digest a chunk at a time, so no copy
of the table and no whole JSON blob is ever built.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import TYPE_CHECKING, Any, ClassVar, Iterable

from . import __version__

if TYPE_CHECKING:
    from .annihilation import FiniteLieAlgebra
    from .conformal import ConformalAlgebra

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


class CheckResult:
    __slots__ = ("name", "status", "payload")

    def __init__(self, name: str, status: str, payload: dict[str, Any] | None = None) -> None:
        self.name = name
        self.status = status
        self.payload = {} if payload is None else payload


class Certificate:
    """A command's inputs, results and caveats; the version is ``__version__``."""

    __slots__ = ("command", "inputs", "results", "caveats")

    tool_version: ClassVar[str] = __version__

    def __init__(
        self,
        command: str,
        inputs: dict[str, Any],
        results: list[CheckResult] | None = None,
        caveats: list[str] | None = None,
    ) -> None:
        self.command = command
        self.inputs = inputs
        self.results = [] if results is None else results
        self.caveats = [] if caveats is None else caveats

    def add(self, name: str, status: str, payload: dict[str, Any] | None = None) -> None:
        self.results.append(CheckResult(name, status, payload))

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


#: What ``json.dumps`` writes for a string: the string quoted and escaped.
_quote = json.encoder.encode_basestring_ascii

#: Rows hashed per digest update.
_CHUNK = 2048


def _table_hash(rows: Iterable[str]) -> str:
    """SHA-256 of a JSON object given as its rows ``"key": value``, streamed.

    ``rows`` are rendered as ``json.dumps`` renders them and come in the
    string order of their keys, so the bytes hashed are those of
    ``json.dumps(obj, sort_keys=True)``.  They are fed a joined chunk at a
    time: neither the object nor the blob is ever whole.
    """
    # Imported here: only the subcommands that hash a table pay for OpenSSL.
    import hashlib

    digest = hashlib.sha256()
    rows = iter(rows)
    opening = "{"
    while chunk := list(islice(rows, _CHUNK)):
        digest.update(f"{opening}{', '.join(chunk)}".encode())
        opening = ", "
    digest.update(b"}" if opening == ", " else b"{}")
    return digest.hexdigest()


def conformal_table_hash(alg: ConformalAlgebra) -> str:
    """Hash of the rows ``"i,j": {"k": "poly", ...}``, each object in key order."""
    def row(key: str, entry: dict[int, Any]) -> str:
        pairs = sorted((str(k), str(v)) for k, v in entry.items())
        return f"{_quote(key)}: {{{', '.join(f'{_quote(k)}: {_quote(v)}' for k, v in pairs)}}}"

    return _table_hash(row(key, entry) for key, entry in sorted(
        (f"{i},{j}", entry) for (i, j), entry in alg.structure.items()))


def lie_table_hash(alg: FiniteLieAlgebra) -> str:
    """Hash of the rows ``"x|y": {"target": "c"}``, in the string order of ``x|y``.

    No label contains ``|``, so that order is the order of ``x|`` and then
    of ``y``: the rows come from a walk of the basis in those two orders, and
    no key is built for a pair the table lacks.
    """
    table = alg.table
    inner = sorted(alg.basis)
    return _table_hash(
        f"{_quote(f'{x}|{y}')}: {{{_quote(entry[0])}: {_quote(str(entry[1]))}}}"
        for x in sorted(alg.basis, key=lambda label: f"{label}|")
        for y in inner
        if (entry := table.get((x, y)))
    )


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
