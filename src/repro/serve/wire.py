"""JSON wire codec for cache seeds and computed entries.

The local :class:`~repro.serve.fleet.WorkerFleet` ships task payloads
to pool processes by pickle, so the seed a task receives and the
entries it returns — ``(fingerprint, CostResult)`` pairs, where a
fingerprint is a nest of tuples/scalars that may embed a frozen
:class:`~repro.sparse.spec.SparsitySpec` — never leave the Python
object world.  A remote worker talks HTTP/JSON, so those objects need
an exact, reversible JSON form.

The codec is value-preserving, not merely structural:

* JSON floats round-trip exactly in Python (``repr``-based emit, exact
  parse), so decoded :class:`~repro.model.cost.CostResult`\\ s compare
  equal to the originals bit for bit;
* tuples are tagged (``{"__t__": [...]}``) so decoding restores
  hashable fingerprint keys, never lists;
* dataclass leaves (:class:`SparsitySpec`, :class:`TensorSparsity`,
  the density models, :class:`CostResult`) are tagged by kind and
  rebuilt through their constructors, so invariants (canonical entry
  order, validation) re-apply on decode.

Entry lists travel grouped: ``[[prefix, [[suffix, cost], ...]], ...]``,
one group per maximal run of consecutive entries whose keys share
``key[:2]``.  Mapping fingerprints lead with ``(workload_fp, arch_fp)``
and a seed is filtered on exactly that pair
(:meth:`~repro.serve.cache.SharedEvalCache.seed_for`), as are the
entries one task computes, so each list is a single group and the two
fingerprints — most of a key's bytes — cross the wire once per list
instead of once per entry.

Decoding is strict: every malformed node, group or row raises
:class:`WireError` (never a bare ``TypeError``/``ValueError``), and a
decoded entry always has a hashable tuple key and a :class:`CostResult`
with numeric fields, so nothing a peer sends can make the shared cache
unusable.

A :class:`CostResult` that carries ``accesses`` cannot be shipped (the
engine's cache never stores one — ``keep_accesses`` is a report-path
flag); :func:`encode_entries` simply drops such an entry, which is
always sound because the shared cache is a pure accelerator.
"""

from __future__ import annotations

import dataclasses
import reprlib
from typing import Any, Iterable

from ..model.cost import CostResult
from ..sparse.density import Banded, Dense, Uniform
from ..sparse.spec import SparsitySpec, TensorSparsity

_SCALARS = frozenset({type(None), bool, int, float, str})
_DENSITY_KINDS = {cls.__name__: cls for cls in (Dense, Uniform, Banded)}
_COST_FIELDS = tuple(f.name for f in dataclasses.fields(CostResult)
                     if f.name != "accesses")
_COST_NUMBERS = ("energy_pj", "cycles", "compute_energy", "noc_energy",
                 "chip2chip_energy", "utilization")


class WireError(ValueError):
    """A document the codec cannot encode or decode."""


def _encode_dataclass(value: Any) -> dict:
    return {f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)}


def encode_value(value: Any) -> Any:
    """Encode one fingerprint/result value into JSON-safe form."""
    kind = type(value)
    # Exact-type fast paths first: fingerprints are mostly scalars and
    # tuples, and this function runs once per node of every entry.
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return {"__t__": [encode_value(v) for v in value]}
    if isinstance(value, (bool, int, float, str)):  # e.g. numpy.float64
        return value
    if isinstance(value, tuple):
        return {"__t__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__l__": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {"__m__": [[encode_value(k), encode_value(v)]
                          for k, v in value.items()]}
    if isinstance(value, CostResult):
        if value.accesses is not None:
            raise WireError("CostResult with accesses is not shippable")
        return {"__cost__": {name: encode_value(getattr(value, name))
                             for name in _COST_FIELDS}}
    if isinstance(value, SparsitySpec):
        return {"__sparsity__": encode_value(value.entries)}
    if isinstance(value, TensorSparsity):
        return {"__tensor_sparsity__": _encode_dataclass(value)}
    if type(value).__name__ in _DENSITY_KINDS:
        return {"__density__": [type(value).__name__,
                                _encode_dataclass(value)]}
    raise WireError(f"cannot encode {type(value).__name__} for the wire")


def _kind(node: Any) -> str:
    return "null" if node is None else type(node).__name__


def _array(node: Any, what: str) -> list:
    if type(node) is not list:
        raise WireError(f"{what} must be an array, got {_kind(node)}")
    return node


def _pair(node: Any, what: str) -> list:
    if type(node) is not list or len(node) != 2:
        raise WireError(f"{what} must be a 2-element array, got "
                        f"{reprlib.repr(node)}")
    return node


def _construct(cls: type, fields: Any) -> Any:
    """Rebuild a dataclass leaf through its constructor (validation
    errors become :class:`WireError`)."""
    if type(fields) is not dict:
        raise WireError(f"{cls.__name__} fields must be an object, "
                        f"got {_kind(fields)}")
    kwargs = {name: decode_value(v) for name, v in fields.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise WireError(f"bad {cls.__name__}: {error}") from None


def decode_value(doc: Any) -> Any:
    """Inverse of :func:`encode_value`; a malformed node raises
    :class:`WireError`."""
    kind = type(doc)
    if kind in _SCALARS:
        return doc
    if kind is list:
        # Bare arrays never leave encode_value; reject rather than
        # guess tuple-vs-list (hashability of keys depends on it).
        raise WireError("untagged array in wire document")
    if kind is not dict or len(doc) != 1:
        raise WireError(f"malformed wire node: {reprlib.repr(doc)}")
    (tag, body), = doc.items()
    if tag == "__t__":
        return tuple([decode_value(v) for v in _array(body, tag)])
    if tag == "__l__":
        return [decode_value(v) for v in _array(body, tag)]
    if tag == "__m__":
        mapping = {}
        for pair in _array(body, tag):
            key, value = _pair(pair, "__m__ entry")
            key, value = decode_value(key), decode_value(value)
            try:
                mapping[key] = value
            except TypeError:
                raise WireError(f"unhashable __m__ key {_kind(key)}"
                                ) from None
        return mapping
    if tag == "__cost__":
        return _construct(CostResult, body)
    if tag == "__sparsity__":
        return _construct(SparsitySpec, {"entries": body})
    if tag == "__tensor_sparsity__":
        return _construct(TensorSparsity, body)
    if tag == "__density__":
        name, fields = _pair(body, tag)
        if type(name) is not str or name not in _DENSITY_KINDS:
            raise WireError(f"unknown density model {name!r}")
        return _construct(_DENSITY_KINDS[name], fields)
    raise WireError(f"unknown wire tag {tag!r}")


def _decode_key(doc: Any, what: str) -> tuple:
    key = decode_value(doc)
    if type(key) is not tuple:
        raise WireError(f"{what} decodes to {_kind(key)}, not a tuple")
    try:
        hash(key)
    except TypeError:
        raise WireError(f"{what} is not hashable") from None
    return key


def _decode_cost(doc: Any) -> CostResult:
    cost = decode_value(doc)
    if type(cost) is not CostResult:
        raise WireError(f"entry value decodes to {_kind(cost)}, "
                        f"not a CostResult")
    for name in _COST_NUMBERS:
        if type(getattr(cost, name)) not in (int, float):
            raise WireError(f"CostResult.{name} is not a number")
    if (type(cost.valid) is not bool or cost.accesses is not None
            or type(cost.violations) is not list
            or any(type(v) is not str for v in cost.violations)
            or type(cost.level_energy) is not dict
            or any(type(k) is not str or type(v) not in (int, float)
                   for k, v in cost.level_energy.items())):
        raise WireError("CostResult has a field of the wrong type")
    return cost


def encode_entries(entries: Iterable[tuple[Any, Any]]) -> list:
    """Encode ``(fingerprint, CostResult)`` pairs into the grouped form
    ``[[prefix, [[suffix, cost], ...]], ...]`` (``prefix = key[:2]``,
    ``suffix = key[2:]``).  Entries that cannot cross the wire
    (``accesses`` attached) are dropped — sound, because the shared
    cache is a pure accelerator."""
    groups: list = []
    rows: list = []
    head: Any = None  # keys are tuples, so None never matches a prefix
    for key, result in entries:
        if type(key) is not tuple:
            raise WireError(f"entry keys must be tuples, got {_kind(key)}")
        if not isinstance(result, CostResult):
            raise WireError(f"entry values must be CostResults, got "
                            f"{_kind(result)}")
        if result.accesses is not None:
            continue
        prefix = key[:2]
        if prefix != head:
            head = prefix
            rows = []
            groups.append([encode_value(prefix), rows])
        rows.append([encode_value(key[2:]), encode_value(result)])
    return groups


def decode_entries(doc: Any) -> list[tuple[Any, Any]]:
    """Inverse of :func:`encode_entries`: the ``(key, CostResult)``
    pairs, in order.  Any malformed group or row raises
    :class:`WireError` naming where it is."""
    entries: list[tuple[Any, Any]] = []
    group = row = None
    try:
        for group, node in enumerate(_array(doc, "entry list")):
            row = None
            prefix_doc, rows = _pair(node, "entry group")
            prefix = _decode_key(prefix_doc, "prefix")
            for row, item in enumerate(_array(rows, "entry rows")):
                suffix_doc, cost_doc = _pair(item, "entry row")
                entries.append((prefix + _decode_key(suffix_doc, "suffix"),
                                _decode_cost(cost_doc)))
    except WireError as error:
        where = ("" if group is None else f"group {group}: " if row is None
                 else f"group {group}, row {row}: ")
        raise WireError(f"{where}{error}") from None
    return entries
