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
from .gp import Classification, GPFunction
from .hyperfields import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, HFElement, Hyperfield, gf)
from .vectors import FVector, GroundSet

_NAMED = {str(hf): hf for hf in (KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE,
                                   PHASE_PLAIN, RATIONALS)}


def hyperfield_to_id(hf: Hyperfield) -> str:
    return str(hf)


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
    return el.hyperfield.to_json(el)


def element_from_json(hf: Hyperfield, raw, where: str) -> HFElement:
    try:
        return hf.from_json(raw)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: {exc}") from None


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


def _is_label_list(raw, labels: set) -> bool:
    """Whether `raw` is a JSON list of members of `labels`."""
    if not isinstance(raw, list):
        return False
    try:
        return set(raw) <= labels
    except TypeError:  # a JSON list or object inside is unhashable
        return False


def _label_lookup(ground: GroundSet) -> dict:
    return {str(label): label for label in ground}


# -- vectors ------------------------------------------------------------------


def fvector_to_json(v: FVector) -> dict:
    entries = {str(label): element_to_json(v.entries[label])
               for label in v.ground if label in v.entries}
    return {"hyperfield": hyperfield_to_id(v.hyperfield), "entries": entries}


def fvector_from_json(raw, hf: Hyperfield, ground: GroundSet,
                      where: str) -> FVector:
    if not isinstance(raw, dict) or "entries" not in raw:
        raise InputError(f"{where}: expected an object with an 'entries' field")
    if "hyperfield" in raw:
        inner = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
        if inner is not hf:
            raise InputError(f"{where}.hyperfield: {raw['hyperfield']!r} does "
                             f"not match the enclosing {hyperfield_to_id(hf)}")
    entries_raw = raw["entries"]
    if not isinstance(entries_raw, dict):
        raise InputError(f"{where}.entries: expected an object")
    lookup = _label_lookup(ground)
    entries = {}
    for key, value in entries_raw.items():
        if key not in lookup:
            raise InputError(f"{where}.entries.{key}: not a ground set label")
        entries[lookup[key]] = element_from_json(hf, value,
                                                 f"{where}.entries.{key}")
    return FVector(hf, ground, entries)


# -- top-level objects ---------------------------------------------------------


def signature_to_json(sig: CircuitSignature) -> dict:
    return {
        "hyperfield": hyperfield_to_id(sig.hyperfield),
        "ground_set": list(sig.ground.labels),
        "circuits": [fvector_to_json(v) for v in sig.classes],
    }


def signature_from_json(raw, where: str = "signature") -> CircuitSignature:
    for field in ("hyperfield", "ground_set", "circuits"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ground = _parse_ground(raw["ground_set"], f"{where}.ground_set")
    circuits_raw = raw["circuits"]
    if not isinstance(circuits_raw, list):
        raise InputError(f"{where}.circuits: expected a list")
    vectors = [fvector_from_json(item, hf, ground, f"{where}.circuits[{i}]")
               for i, item in enumerate(circuits_raw)]
    sig = CircuitSignature(hf, ground, vectors, dedup=True)
    if len(sig.classes) != len(vectors):
        warnings.warn(f"{where}: {len(vectors) - len(sig.classes)} duplicate "
                      "projective class(es) dropped", stacklevel=2)
    return sig


def gp_to_json(phi: GPFunction) -> dict:
    pos = phi.ground.index
    keys = sorted(phi.values, key=lambda k: tuple(map(pos, k)))
    return {
        "hyperfield": hyperfield_to_id(phi.hyperfield),
        "ground_set": list(phi.ground.labels),
        "rank": phi.rank,
        "values": [{"subset": list(k), "value": element_to_json(phi.values[k])}
                   for k in keys],
    }


def gp_from_json(raw, where: str = "gp") -> GPFunction:
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
    labels = set(ground.labels)
    values = {}
    for i, item in enumerate(items):
        spot = f"{where}.values[{i}]"
        if not isinstance(item, dict) or "subset" not in item or "value" not in item:
            raise InputError(f"{spot}: expected {{'subset': ..., 'value': ...}}")
        subset = item["subset"]
        if not _is_label_list(subset, labels):
            raise InputError(f"{spot}.subset: not a list of ground labels")
        key = tuple(subset)
        if key in values:
            raise InputError(f"{spot}.subset: duplicate subset {subset}")
        values[key] = element_from_json(hf, item["value"], f"{spot}.value")
    try:
        return GPFunction(hf, ground, rank, values)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def dual_pair_from_json(raw, where: str = "pair"):
    for field in ("circuits", "cocircuits"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    return (signature_from_json(raw["circuits"], f"{where}.circuits"),
            signature_from_json(raw["cocircuits"], f"{where}.cocircuits"))


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
        return fvector_to_json(obj)
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


def serialize(obj) -> str:
    """Canonical JSON text for any serializable object."""
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
        return dual_pair_from_json(raw, where)
    if "circuits" in raw:
        return signature_from_json(raw, where)
    raise InputError(f"{where}: shape matches no known schema")


def parse_text(text: str, where: str = "input"):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: invalid JSON ({exc})") from None
    return parse_object(raw, where)
