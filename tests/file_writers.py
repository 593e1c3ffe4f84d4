"""Writers of the algebra and module file formats that ``confal.serialize`` reads.

The command line only reads files; the tests write them, to round-trip
tables through the reader and to hand the CLI files of known content.
"""

import json
from typing import Any

from confal.conformal import ConformalAlgebra, LambdaValue
from confal.modules import KIND_FREE, KIND_SCALAR_DEL, ConformalModule
from confal.poly import render_combo


def _render_table(table: dict[tuple[int, int], LambdaValue]) -> dict[str, dict[str, str]]:
    """A pair-keyed table as ``"i,j"`` -> rendered entry, zero entries left out."""
    rendered = ((f"{i},{j}", render_combo(entry)) for (i, j), entry in sorted(table.items()))
    return {key: entry for key, entry in rendered if entry}


def algebra_to_dict(alg: ConformalAlgebra) -> dict[str, Any]:
    return {
        "format": "confal-algebra",
        "name": alg.name,
        "window": alg.window,
        "policy": alg.policy.value,
        "generators": list(alg.gen_names),
        "structure": _render_table(alg.structure),
    }


def module_to_dict(mod: ConformalModule) -> dict[str, Any]:
    if mod.alpha is not None:
        return {
            "format": "confal-module",
            "kind": KIND_SCALAR_DEL,
            "rank": mod.rank,
            "alpha": str(mod.alpha),
        }
    return {
        "format": "confal-module",
        "kind": KIND_FREE,
        "rank": mod.rank,
        "action": _render_table(mod.action),
    }


def save_json(path: str, data: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
