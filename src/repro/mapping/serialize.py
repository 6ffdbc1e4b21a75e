"""JSON (de)serialisation for workloads, architectures and mappings.

Lets users persist discovered mappings, ship them to a code generator, or
diff them across scheduler versions.  The format is a plain nested-dict
schema (stable keys, no pickling) so other tools can parse it.

The parsers are the one reader behind serve job specs, CLI ``.json``
configs, :func:`load_mapping` and journal replay, so they hold one rule:
integer fields (dims, capacities, fanouts, ``mac_width``,
``mac_word_bits``, index strides) must be JSON integers and energy and
bandwidth fields JSON numbers — never bools or strings, never a
truncated float.  A ``null`` keeps its documented meaning (an unbounded
capacity, an infinite bandwidth); anything else raises a ``ValueError``
naming the field.
"""

from __future__ import annotations

import json
from typing import Any

from ..arch.spec import Architecture, ComponentSpec, MemoryLevel
from ..workloads.expression import IndexExpr, TensorRef, Workload
from .mapping import LevelMapping, Mapping

SCHEMA_VERSION = 1


def _json_int(value: Any, field: str) -> int:
    """``value`` when it is a JSON integer (``true`` is not 1 and ``2.5``
    is not 2), else a ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_number(value: Any, field: str) -> float:
    """``value`` when it is a JSON number, else a ValueError naming
    ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return value


def _bandwidth(value: Any, field: str) -> float:
    """A bandwidth field: ``null`` (or absent) means infinite."""
    return float("inf") if value is None else _json_number(value, field)


def _component(doc: Any, where: str) -> ComponentSpec:
    """A level's ``component`` object: ``kind`` a string, sizes JSON
    integers and energies JSON numbers, else a ValueError naming the
    level and the field."""
    where = f"{where} component"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    if not isinstance(doc.get("kind"), str):
        raise ValueError(f"{where} kind must be a string, "
                         f"got {doc.get('kind')!r}")
    for key in ("capacity_bytes", "word_bits", "banks", "entries"):
        if key in doc:
            _json_int(doc[key], f"{where} {key}")
    for key in ("read_energy", "write_energy"):
        if key in doc:
            _json_number(doc[key], f"{where} {key}")
    return ComponentSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def workload_to_dict(workload: Workload) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "name": workload.name,
        "dims": dict(workload.dims),
        "tensors": [
            {
                "name": t.name,
                "role": t.role,
                "is_output": t.is_output,
                "indices": [
                    {"dims": list(e.dims), "stride": e.stride}
                    for e in t.indices
                ],
            }
            for t in workload.tensors
        ],
    }


def workload_from_dict(data: dict[str, Any]) -> Workload:
    dims = data["dims"]
    if not isinstance(dims, dict):
        raise ValueError(f"workload dims must be an object, got {dims!r}")
    for dim, size in dims.items():
        _json_int(size, f"workload dim {dim!r}")
    tensors = []
    for entry in data["tensors"]:
        indices = tuple(
            IndexExpr(tuple(e["dims"]), stride=_json_int(
                e.get("stride", 1),
                f"tensor {entry['name']!r} index stride"))
            for e in entry["indices"]
        )
        tensors.append(TensorRef(
            entry["name"], indices,
            is_output=entry.get("is_output", False),
            role=entry.get("role", ""),
        ))
    return Workload(data["name"], dims, tensors)


# ---------------------------------------------------------------------------
# architectures
# ---------------------------------------------------------------------------

def architecture_to_dict(arch: Architecture) -> dict[str, Any]:
    """Serialise an architecture.

    Technology-retargeting metadata (``tech``, ``mac_word_bits``, level
    ``component``/``link``/``link_bandwidth``) is emitted only when
    non-default, so documents written by older versions of this schema
    round-trip unchanged and old readers ignore nothing.
    """
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": arch.name,
        "mac_energy": arch.mac_energy,
        "mac_width": arch.mac_width,
        "levels": [],
    }
    if arch.tech != "cmos45":
        doc["tech"] = arch.tech
    if arch.mac_word_bits is not None:
        doc["mac_word_bits"] = arch.mac_word_bits
    for lvl in arch.levels:
        entry: dict[str, Any] = {
            "name": lvl.name,
            "capacity_words": (dict(lvl.capacity_words)
                               if lvl.capacity_words is not None
                               else None),
            "fanout": lvl.fanout,
            "fanout_shape": (list(lvl.fanout_shape)
                             if lvl.fanout_shape else None),
            "read_energy": lvl.read_energy,
            "write_energy": lvl.write_energy,
            "network_energy": lvl.network_energy,
            "read_bandwidth": _bw(lvl.read_bandwidth),
            "write_bandwidth": _bw(lvl.write_bandwidth),
        }
        if lvl.component is not None:
            entry["component"] = lvl.component.to_dict()
        if lvl.link != "noc":
            entry["link"] = lvl.link
        if lvl.link_bandwidth != float("inf"):
            entry["link_bandwidth"] = lvl.link_bandwidth
        doc["levels"].append(entry)
    return doc


def _bw(value: float) -> float | None:
    return None if value == float("inf") else value


def architecture_from_dict(data: dict[str, Any]) -> Architecture:
    levels = []
    for entry in data["levels"]:
        where = f"level {entry['name']!r}"
        capacity = entry["capacity_words"]
        if capacity is not None:
            if not isinstance(capacity, dict):
                raise ValueError(f"{where} capacity_words must be an object "
                                 f"or null, got {capacity!r}")
            for role, words in capacity.items():
                _json_int(words, f"{where} capacity_words[{role!r}]")
        shape = entry.get("fanout_shape")
        if shape is not None and not isinstance(shape, list):
            raise ValueError(f"{where} fanout_shape must be a list or null, "
                             f"got {shape!r}")
        component = entry.get("component")
        levels.append(MemoryLevel(
            name=entry["name"],
            capacity_words=capacity,
            fanout=_json_int(entry.get("fanout", 1), f"{where} fanout"),
            fanout_shape=(tuple(_json_int(n, f"{where} fanout_shape")
                                for n in shape) if shape else None),
            read_energy=_json_number(entry.get("read_energy", 0.0),
                                     f"{where} read_energy"),
            write_energy=_json_number(entry.get("write_energy", 0.0),
                                      f"{where} write_energy"),
            network_energy=_json_number(entry.get("network_energy", 0.0),
                                        f"{where} network_energy"),
            read_bandwidth=_bandwidth(entry.get("read_bandwidth"),
                                      f"{where} read_bandwidth"),
            write_bandwidth=_bandwidth(entry.get("write_bandwidth"),
                                       f"{where} write_bandwidth"),
            component=(_component(component, where)
                       if component is not None else None),
            link=entry.get("link", "noc"),
            link_bandwidth=_bandwidth(entry.get("link_bandwidth"),
                                      f"{where} link_bandwidth"),
        ))
    word_bits = data.get("mac_word_bits")
    return Architecture(
        data["name"], levels,
        mac_energy=_json_number(data.get("mac_energy", 1.0), "mac_energy"),
        mac_width=_json_int(data.get("mac_width", 1), "mac_width"),
        tech=data.get("tech", "cmos45"),
        mac_word_bits=(None if word_bits is None
                       else _json_int(word_bits, "mac_word_bits")),
    )


# ---------------------------------------------------------------------------
# mappings
# ---------------------------------------------------------------------------

def mapping_to_dict(mapping: Mapping) -> dict[str, Any]:
    """Serialise a mapping together with its workload and architecture so a
    single document fully reproduces an evaluation."""
    return {
        "schema": SCHEMA_VERSION,
        "workload": workload_to_dict(mapping.workload),
        "architecture": architecture_to_dict(mapping.arch),
        "levels": [
            {
                "temporal": [[d, f] for d, f in lvl.temporal],
                "spatial": [[d, f] for d, f in lvl.spatial],
            }
            for lvl in mapping.levels
        ],
    }


def mapping_from_dict(data: dict[str, Any]) -> Mapping:
    workload = workload_from_dict(data["workload"])
    arch = architecture_from_dict(data["architecture"])
    levels = [
        LevelMapping(
            temporal=tuple((d, f) for d, f in entry["temporal"]),
            spatial=tuple((d, f) for d, f in entry["spatial"]),
        )
        for entry in data["levels"]
    ]
    return Mapping(workload, arch, levels)


def save_mapping(mapping: Mapping, path: str) -> None:
    """Write a mapping document to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(mapping_to_dict(mapping), handle, indent=2)


def load_mapping(path: str) -> Mapping:
    """Load a mapping document written by :func:`save_mapping`."""
    with open(path, encoding="utf-8") as handle:
        return mapping_from_dict(json.load(handle))
