"""Chain files and report files.

Chains are stored as human-readable JSON carrying the ambient dimension,
chain dimension, group spec, simplices with group payloads, and optional
generator metadata.  Floats are emitted in Python's shortest round-trip
representation, so parse(emit(chain)) reproduces the chain bit-exactly.

Reports pair a plot-ready CSV table with a JSON summary that echoes the
command, the configuration and the seed; identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .chains import PolyChain
from .groups import GroupSpec

__all__ = [
    "chain_to_dict",
    "dict_to_chain",
    "save_chain",
    "load_chain",
    "write_report",
]

FORMAT_VERSION = 1


def _group_to_dict(spec: GroupSpec) -> dict:
    out = {"tag": spec.tag}
    if spec.tag == "cantor":
        out["depth"] = spec.depth
    return out


def _group_from_dict(d: dict) -> GroupSpec:
    return GroupSpec(d["tag"], d.get("depth"))


def chain_to_dict(chain: PolyChain, metadata: dict | None = None) -> dict:
    cantor = chain.group.tag == "cantor"
    simplices = [
        {"vertices": verts, "coeff": row if cantor else row[0]}
        for verts, row in zip(chain.verts.tolist(), chain.payload.tolist())
    ]
    out = {
        "version": FORMAT_VERSION,
        "ambient": chain.n,
        "dim": chain.m,
        "group": _group_to_dict(chain.group),
        "simplices": simplices,
    }
    if metadata is not None:
        out["metadata"] = metadata
    return out


def dict_to_chain(data: dict) -> tuple[PolyChain, dict]:
    """The chain and metadata of a parsed chain file.  A missing field
    raises ``ValueError`` naming it, and the simplex it is missing from."""
    try:
        if data.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported chain file version {data.get('version')!r}")
        spec = _group_from_dict(data["group"])
        items = data["simplices"]
        chain = PolyChain(
            data["ambient"],
            data["dim"],
            spec,
            verts=np.array([item["vertices"] for item in items], dtype=float),
            payload=np.array([item["coeff"] for item in items]),
        )
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(_missing_field(data) or f"malformed chain file: {err!r}") from err
    return chain, data.get("metadata", {})


def _missing_field(data) -> str | None:
    """Which field of a chain file is missing, or held by a part that is
    not a JSON object."""
    if not isinstance(data, dict):
        kinds = {list: "an array", str: "a string", int: "a number", float: "a number", bool: "a boolean"}
        return f"a chain file holds a JSON object, not {kinds.get(type(data), 'null')}"
    parts = [("chain file", data, ("group", "simplices", "ambient", "dim")), ("chain file's 'group'", data.get("group"), ("tag",))]
    items = data.get("simplices")
    parts += [(f"simplex {i} of the chain file", item, ("vertices", "coeff")) for i, item in enumerate(items if isinstance(items, list) else [])]
    for name, part, keys in parts:
        for key in keys:
            if not isinstance(part, dict) or key not in part:
                return f"{name} has no {key!r} field"
    return None


def save_chain(path: str, chain: PolyChain, metadata: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(chain_to_dict(chain, metadata), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_chain(path: str) -> tuple[PolyChain, dict]:
    with open(path) as fh:
        return dict_to_chain(json.load(fh))


def _stringify(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_report(
    out_dir: str,
    name: str,
    command: str,
    config: dict,
    rows: list[dict],
    summary: dict,
) -> tuple[str, str]:
    """Write ``<name>.csv`` (table) and ``<name>.json`` (summary).

    Deterministic: keys sorted, floats via exact round-trip repr.
    Returns the two paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    buf = io.StringIO()
    if rows:
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _stringify(v) for k, v in row.items()})
    with open(csv_path, "w") as fh:
        fh.write(buf.getvalue())
    payload = {"command": command, "config": config, "summary": summary}
    with open(json_path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
