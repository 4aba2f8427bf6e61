"""Typed reading of the seven JSON documents the toolkit takes in: scenes,
poses, COCO keypoints and the COCO name mapping, topology manifests, dataset
registries and sample plans. Their readers take every node through read(),
naming it in their own words, so a malformed node raises one DocumentError
that says which node it is and what was expected there. Their own checks
(a limb closing a cycle, probabilities that do not sum to 1) raise it too,
so a caller catches one type whichever document it reads."""
from __future__ import annotations

import re
import sys
import typing
from dataclasses import is_dataclass
from typing import Mapping


class DocumentError(ValueError):
    """A JSON document holds a node no stage can use."""


# The Python types that stand for each JSON kind.
_TYPES = {dict: Mapping, list: (list, tuple), str: str, int: int, bool: bool}
_ID_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _error(where, problem) -> DocumentError:
    return DocumentError(f"{': '.join(map(str, where))}: {problem}")


def read(value, kind, *where):
    """value read as kind, or DocumentError naming the node by where, a path
    of words joined by ': '. kind is dict (a JSON object), list, str, int or
    bool, float (finite, returned as float), an Enum (returned as the member
    whose value it is), a dataclass (see from_json), tuple[k1, k2] (a list of
    that length), or list[k], frozenset[k] or tuple[k, ...] of a list of k."""
    if kind in _TYPES:
        if isinstance(value, _TYPES[kind]) and (kind is bool or not isinstance(value, bool)):
            return value
        expected = "object" if kind is dict else kind.__name__
    elif kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # False for NaN, and exact for an int too large for a float.
            if abs(value) <= sys.float_info.max:
                return float(value)
            raise _error(where, f"{value!r} is not a finite number")
        expected = "float"
    elif (origin := typing.get_origin(kind)) is None:
        if is_dataclass(kind):
            return from_json(kind, value, *where)
        for member in kind:  # an Enum
            if value == member.value:
                return member
        expected = f"one of {[m.value for m in kind]}"
    else:
        args = typing.get_args(kind)
        if origin is not tuple or args[-1] is Ellipsis:
            return origin(read(v, args[0], *where, i) for i, v in enumerate(read(value, list, *where)))
        if isinstance(value, (list, tuple)) and len(value) == len(args):
            return tuple(read(v, k, *where) for v, k in zip(value, args))
        expected = f"a list of {len(args)}"
    raise _error(where, f"expected {expected}, got {value!r}")


def read_at_least(value, kind, low, *where):
    """read(value, kind, *where), where kind is int or a tuple of ints, each
    of which must be at least low."""
    out = read(value, kind, *where)
    if min(out if isinstance(out, tuple) else (out,)) < low:
        raise _error(where, f"expected at least {low}, got {value!r}")
    return out


def id_keys(obj, *where) -> dict:
    """obj, a JSON object keyed by integer ids, as {id: value}. Each key
    must be the canonical decimal of its id ("7", not "07", " 7" or "7_0"),
    so no two keys of one object can name the same id."""
    out = {}
    for key, value in read(obj, dict, *where).items():
        if not (isinstance(key, str) and _ID_KEY.fullmatch(key)):
            raise _error(where, f"key {key!r} is not a canonical decimal id")
        out[int(key)] = value
    return out


def from_json(cls, doc, *where):
    """The dataclass cls built by keyword from a JSON object, so cls declares
    the keys, their kinds (see read) and their defaults. A missing, unknown
    or ill-typed key, or a value cls rejects, raises DocumentError."""
    out = dict(read(doc, dict, *where))
    for key, kind in typing.get_type_hints(cls).items():
        if key in out:
            out[key] = read(out[key], kind, *where, f"bad {key!r}")
    try:
        return cls(**out)
    except (TypeError, ValueError) as exc:  # a missing or unknown key, or a value cls rejects
        raise _error(where, exc) from None
