"""What a JSON input may contain.

Structured inputs reach hierkit as parsed JSON (the command line parses
the text once), and every decoding site states its fields with these
helpers.  A wrong shape, a missing or undeclared field, or an integer
outside its range is a ValueError naming the field.  An integer is a
JSON integer: a bool, a float or a string is refused, never converted.
"""

from __future__ import annotations

# Declared (lo, hi) ranges.  Each upper limit is a guard chosen from
# measured run times; README lists them with their reasons.
POSET_POINTS = (0, 20)  # a poset's n, and `gen --n`
ALPHABET = (2, 8)
BOUND = (1, 1024)  # rows a pinf model examines
CLAUSE_ELEMENT = (0, 1023)  # elements in a clauses model's rows
POINT_ELEMENT = (0, 65535)  # core elements of a pn, pinf or clauses point
ROUNDS = (0, 1000)
BAIRE_BUDGET = (1, 20_000)
STAGE_BUDGET = (1, 1024)  # transform --budget and --max-budget
AUDIT_POINTS = (1, 6)  # 7 points: 8.1-8.6 s for 284,434 subsets, too near 10 s
AUDIT_DEPTH = (0, 16)
GEN_COUNT = (0, 1000)


def integer(value, what, lo=0, hi=None):
    """A JSON integer in lo..hi (unbounded above when hi is None)."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    if value < lo or (hi is not None and value > hi):
        limits = "at least %d" % lo if hi is None else "between %d and %d" % (lo, hi)
        raise ValueError("%s must be %s, got %d" % (what, limits, value))
    return value


def list_of(value, what, item=None, size=None):
    """A JSON list, each entry decoded by `item` when given, of exactly
    `size` entries when given."""
    if type(value) is not list:
        raise ValueError("%s must be a list, got %r" % (what, value))
    if size is not None and len(value) != size:
        raise ValueError("%s must have %d entries, got %d" % (what, size, len(value)))
    return value if item is None else [item(v) for v in value]


def fields(value, what, required=(), optional=None):
    """The values of a JSON object's declared fields: the required ones
    in order, then the optional ones (a dict of defaults).  A missing
    required field or an undeclared one is refused."""
    optional = optional or {}
    if type(value) is not dict:
        raise ValueError("%s must be an object, got %r" % (what, value))
    for key in value:
        if key not in required and key not in optional:
            raise ValueError("%s has no field %r" % (what, key))
    for key in required:
        if key not in value:
            raise ValueError("%s needs a %r field" % (what, key))
    return [value[k] for k in required] + [value.get(k, d) for k, d in optional.items()]


def tagged(value, what, kinds):
    """(kind, field values) of a JSON object whose "kind" is a key of
    `kinds`, which maps each kind to its (required, optional) fields."""
    kind = value.get("kind") if type(value) is dict else None
    if type(kind) is not str or kind not in kinds:
        raise ValueError("unknown %s kind in %r" % (what, value))
    required, optional = kinds[kind]
    return kind, fields(value, "%s %s" % (kind, what), ("kind",) + required, optional)[1:]
