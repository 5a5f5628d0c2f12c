"""JSON reading and writing for every object the tool exchanges.

Schemas; `parse_object` reads the three top-level ones, by shape:

  element      per-hyperfield scalar encodings (see element_to_json)
  FVector      {"hyperfield": id, "entries": {label: element, ...}}, only
               inside a signature, whose hyperfield it must repeat if it
               names one
  signature    {"hyperfield": id, "ground_set": [...], "circuits": [FVector, ...]}
  GP function  {"hyperfield": id, "ground_set": [...], "rank": r,
                "values": [{"subset": [...], "value": element}, ...]}
  dual pair    {"circuits": signature, "cocircuits": signature}

A signature is read into, and written from, its classes' tables of
payloads (`CircuitSignature._payloads`), and a GP function its table of
values by basis mask (`GPFunction._table`), both through each family's
`encode` and `decode`; elements are built only for the classes of a
witness.

Each reader makes one pass over its object.  A GP function's table is
built straight from its values: one {label: bit} lookup per label checks
membership and ground order and builds the basis mask, which finds a
repeated subset.  A signature's classes take one {label string:
position} lookup per entry.  Each distinct payload spelling is decoded
once per function or signature (`_decoded`), keyed by type and value,
since `true`, `1` and `1.0` hash alike but need not decode alike.  The first bad field
names the error, in the order of a walk that checks each value in turn
(its shape, labels, a repeated subset, its payload), then the rank, then
the size and ground order of each subset, then that some value is
nonzero; that walk, and the signature's, are the test oracles.

`serialize` writes a top-level GP function straight from its table
(`_gp_text`), the text `json.dumps(..., indent=2)` writes for its schema;
every other object, a function inside a report included, goes through
`to_jsonable` and `json.dumps`.

Output is canonical: subsets and supports in ground order, entry maps in
ground order, two-space indentation.  Parsing is tolerant about scalar
spellings (ints where strings are canonical, either fraction or decimal
forms) but strict about structure, and errors name the offending field.
Ground labels may be JSON strings or numbers; entry-map keys are always
strings and are matched back to labels by their string form.
"""

from __future__ import annotations

import json
import re
import warnings
from fractions import Fraction

from .circuits import CircuitSignature
from .errors import InputError
from .gp import Classification, GPFunction, _positions, _subset_table
from .hyperfields import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, HFElement, Hyperfield, gf)
from .vectors import FVector, GroundSet, _table

_NAMED = {str(hf): hf for hf in (KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE,
                                   PHASE_PLAIN, RATIONALS)}


def hyperfield_from_id(text, where: str = "hyperfield") -> Hyperfield:
    if not isinstance(text, str):
        raise InputError(f"{where}: expected a hyperfield id string, got {text!r}")
    key = text.strip().lower()
    if key in _NAMED:
        return _NAMED[key]
    match = re.fullmatch(r"gf\((\d+)\)", key) or re.fullmatch(r"gf(\d+)", key)
    if match:
        try:
            return gf(int(match.group(1)))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
    raise InputError(f"{where}: unknown hyperfield id {text!r}")


# -- scalars ---------------------------------------------------------------


def element_to_json(el: HFElement):
    """The canonical JSON form of one scalar.

    Krasner and sign: the integer.  Finite fields: the residue integer.
    Tropical: exact decimal string when one exists, else "p/q".
    Triangle: the shortest roundtripping decimal string.  Phase: 0 for
    zero, {"angle": radians} otherwise.  Rationals: "p/q" (or "p").
    """
    return el.hyperfield.encode(el.value)


def _payload_from_json(hf: Hyperfield, raw, where: str):
    """The payload `hf.decode` reads from raw; its errors as InputError."""
    try:
        return hf.decode(raw)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{where}: {exc}") from None


# what `_decoded` returns for a spelling of zero
_ZERO = object()


def _decoded(hf: Hyperfield, memo: dict, raw, where: str):
    """The payload raw spells, or `_ZERO`, decoded once per spelling in
    one object: `memo` is keyed by type and value, since `true`, `1` and
    `1.0` hash alike but need not decode alike.  An unhashable spelling
    (a phase {"angle": x}) is decoded every time."""
    try:
        return memo[type(raw), raw]
    except KeyError:
        key = type(raw), raw
    except TypeError:
        key = None
    a = _payload_from_json(hf, raw, where)
    if a == hf.zero_payload:
        a = _ZERO
    if key is not None:
        memo[key] = a
    return a


# -- ground sets and labels --------------------------------------------------


def _parse_ground(raw, where: str) -> GroundSet:
    if not isinstance(raw, list) or not raw:
        raise InputError(f"{where}: expected a nonempty list of labels")
    for i, label in enumerate(raw):
        if isinstance(label, bool) or not isinstance(label, (str, int)):
            raise InputError(f"{where}[{i}]: labels must be strings or integers")
    if len({str(label) for label in raw}) != len(raw):
        raise InputError(f"{where}: labels collide as strings")
    return GroundSet(raw)


# -- vectors ------------------------------------------------------------------


def _table_to_json(hf: Hyperfield, ground: GroundSet, table: dict) -> dict:
    """The FVector schema of a {position: payload} table in ground order."""
    labels, encode = ground.labels, hf.encode
    return {"hyperfield": str(hf),
            "entries": {str(labels[i]): encode(a) for i, a in table.items()}}


# -- top-level objects ---------------------------------------------------------


def signature_to_json(sig: CircuitSignature) -> dict:
    return {
        "hyperfield": str(sig.hyperfield),
        "ground_set": list(sig.ground.labels),
        "circuits": [_table_to_json(sig.hyperfield, sig.ground, table)
                     for table in sig._payloads],
    }


def signature_from_json(raw, where: str = "signature") -> CircuitSignature:
    """The signature of a JSON object, its classes read in one pass: one
    {label string: position} lookup per entry, zeros left out, each
    distinct payload spelling decoded once."""
    for field in ("hyperfield", "ground_set", "circuits"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ground = _parse_ground(raw["ground_set"], f"{where}.ground_set")
    circuits_raw = raw["circuits"]
    if not isinstance(circuits_raw, list):
        raise InputError(f"{where}.circuits: expected a list")
    positions = {str(label): i for i, label in enumerate(ground.labels)}
    spelled, memo, tables = raw["hyperfield"], {}, []
    for k, item in enumerate(circuits_raw):
        spot = f"{where}.circuits[{k}]"
        if not isinstance(item, dict) or "entries" not in item:
            raise InputError(f"{spot}: expected an object with an 'entries' field")
        if "hyperfield" in item and item["hyperfield"] != spelled:
            inner = hyperfield_from_id(item["hyperfield"], f"{spot}.hyperfield")
            if inner is not hf:
                raise InputError(f"{spot}.hyperfield: {item['hyperfield']!r} does "
                                 f"not match the enclosing {hf}")
        entries = item["entries"]
        if not isinstance(entries, dict):
            raise InputError(f"{spot}.entries: expected an object")
        table, last, ordered = {}, -1, True
        for key, value in entries.items():
            i = positions.get(key)
            if i is None:
                raise InputError(f"{spot}.entries.{key}: not a ground set label")
            a = _decoded(hf, memo, value, f"{spot}.entries.{key}")
            if a is not _ZERO:
                table[i] = a
                ordered, last = ordered and i > last, i
        tables.append(table if ordered else dict(sorted(table.items())))
    sig = CircuitSignature._from_tables(hf, ground, tables)
    if sig.dropped:
        warnings.warn(f"{where}: {sig.dropped} duplicate projective class(es) dropped")
    return sig


def gp_to_json(phi: GPFunction) -> dict:
    """The GP function schema, for a function inside a report."""
    labels, encode, table = phi.ground.labels, phi.hyperfield.encode, phi._table
    return {
        "hyperfield": str(phi.hyperfield),
        "ground_set": list(labels),
        "rank": phi.rank,
        "values": [{"subset": [labels[i] for i in positions], "value": encode(table[mask])}
                   for positions, mask in sorted((_positions(m), m) for m in table)],
    }


def gp_from_json(raw, where: str = "gp") -> GPFunction:
    """The function of a JSON object, its {basis mask: payload} table
    built in one pass over the values.  One {label: bit} lookup per label
    checks membership and ground order and builds the mask, which finds
    a repeated subset; each distinct payload spelling is decoded once.
    A subset that is not a rank-set in ground order is named after the
    pass, as is a rank out of range, since the per-value errors come
    first: the shape of a value, its labels, a repeated subset and its
    payload, in the order of the values."""
    for field in ("hyperfield", "ground_set", "rank", "values"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ground = _parse_ground(raw["ground_set"], f"{where}.ground_set")
    rank = raw["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InputError(f"{where}.rank: expected an integer")
    items = raw["values"]
    if not isinstance(items, list):
        raise InputError(f"{where}.values: expected a list")
    bit = {label: 1 << i for i, label in enumerate(ground.labels)}
    memo, table = {}, {}
    # the subsets that are not rank-sets in ground order, as label tuples
    # for the repeat check, and the first of them
    odd, first_odd = set(), None
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "subset" not in item or "value" not in item:
            raise InputError(f"{where}.values[{i}]: expected {{'subset': ..., 'value': ...}}")
        subset, mask, last, canonical = item["subset"], 0, 0, False
        try:
            if not isinstance(subset, list):
                raise TypeError
            for x in subset:
                b = bit[x]
                if b <= last:  # out of ground order or repeated
                    if not all(y in bit for y in subset):
                        raise KeyError
                    break
                mask |= b
                last = b
            else:
                canonical = len(subset) == rank
        except (KeyError, TypeError):
            raise InputError(f"{where}.values[{i}].subset: not a list of ground labels") from None
        if canonical:
            repeated = mask in table
        else:
            key = tuple(subset)
            repeated = key in odd
            odd.add(key)
            if first_odd is None:
                first_odd = key
        if repeated:
            raise InputError(f"{where}.values[{i}].subset: duplicate subset {subset}")
        a = _decoded(hf, memo, item["value"], f"{where}.values[{i}].value")
        if canonical:
            table[mask] = a
    try:
        if first_odd is not None or not 1 <= rank <= len(ground):
            # raises on the rank, else on first_odd, as the constructor does
            _subset_table(hf, ground, rank, {first_odd: None})
        return GPFunction._from_table(hf, ground, rank, {
            m: a for m, a in table.items() if a is not _ZERO})
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


# -- generic encoding of reports and witnesses --------------------------------


def to_jsonable(obj):
    """Recursively encode library objects for report output.

    Scalars carry their per-hyperfield encoding; vectors, signatures and
    functions use their schemas; sets come out sorted.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, HFElement):
        return element_to_json(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, FVector):
        return _table_to_json(obj.hyperfield, obj.ground, _table(obj))
    if isinstance(obj, CircuitSignature):
        return signature_to_json(obj)
    if isinstance(obj, GPFunction):
        return gp_to_json(obj)
    if isinstance(obj, Classification):
        return {"verdict": obj.verdict, "witness": to_jsonable(obj.witness)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted((to_jsonable(x) for x in obj), key=lambda x: str(x))
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if hasattr(obj, "as_json"):
        return to_jsonable(obj.as_json())
    return repr(obj)


def _gp_text(phi: GPFunction) -> str:
    """The GP function schema as `json.dumps(..., indent=2)` writes it,
    straight from the table: the values in the lex order of their ground
    positions, each label and each distinct payload encoded once."""
    dumps, encode = json.dumps, phi.hyperfield.encode
    labels = [dumps(label) for label in phi.ground.labels]
    spelled, items = {}, []
    for positions, mask in sorted((_positions(m), m) for m in phi._table):
        a = phi._table[mask]
        value = spelled.get((type(a), a))
        if value is None:
            value = encode(a)
            # a phase unit is {"angle": radians}, anything else a scalar
            value = spelled[type(a), a] = "{" + ",".join([
                f"\n        {dumps(k)}: {dumps(x)}" for k, x in value.items()
            ]) + "\n      }" if isinstance(value, dict) else dumps(value)
        items.append('    {\n      "subset": [\n        '
                     + ",\n        ".join([labels[i] for i in positions])
                     + '\n      ],\n      "value": ' + value + "\n    }")
    return ('{\n  "hyperfield": ' + dumps(str(phi.hyperfield))
            + ',\n  "ground_set": [\n    ' + ",\n    ".join(labels)
            + '\n  ],\n  "rank": ' + dumps(phi.rank)
            + ',\n  "values": [\n' + ",\n".join(items) + "\n  ]\n}")


def serialize(obj) -> str:
    """Canonical JSON text for any serializable object: a GP function
    written from its table (`_gp_text`), anything else through
    `to_jsonable` and `json.dumps(..., indent=2)`."""
    if isinstance(obj, GPFunction):
        return _gp_text(obj)
    return json.dumps(to_jsonable(obj), indent=2)


# -- shape dispatch -------------------------------------------------------------


def parse_object(raw, where: str = "input"):
    """Build the GP function, dual pair or signature a JSON value
    describes, by shape."""
    if not isinstance(raw, dict):
        raise InputError(f"{where}: expected a JSON object")
    if "values" in raw and "rank" in raw:
        return gp_from_json(raw, where)
    if "cocircuits" in raw and "circuits" in raw:
        return (signature_from_json(raw["circuits"], f"{where}.circuits"),
                signature_from_json(raw["cocircuits"], f"{where}.cocircuits"))
    if "circuits" in raw:
        return signature_from_json(raw, where)
    raise InputError(f"{where}: shape matches no known schema")


def read_json(text: str, where: str = "input"):
    """The JSON value of the text; InputError naming `where` for text that
    is not JSON, nests too deeply for the decoder, or spells an integer
    past Python's digit limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{where}: JSON nested too deeply") from None
    except ValueError as exc:  # json.JSONDecodeError, or an int too long
        raise InputError(f"{where}: invalid JSON ({exc})") from None


def parse_text(text: str, where: str = "input"):
    return parse_object(read_json(text, where), where)
