"""Report writing: the one JSON form of every value a report prints.  A
bulky value is held pre-written by a writer made for its shape, an int list
by bytes.translate with no Python work per value, and _dumps splices it in.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter

from .graph import _INT, QCycle
from .numerics import HilbertSeries


@cache
def _digit_planes():
    """Three translation tables of 256 bytes: byte v to the hundreds, the
    tens and the ones digit of v right-aligned in three places, a space
    where v has no such digit; built on the first call of json_list_text."""
    texts = [b"%3d" % v for v in range(256)]
    return tuple(bytes(text[k] for text in texts) for k in range(3))


def json_list_text(values):
    """json.dumps(values, separators=(",", ":")) for a list of ints, byte
    for byte.  A list whose values all fit a byte is packed into a
    bytearray, and the text laid out four bytes per value, a comma and
    three digit places: the packed bytes translated to each digit plane
    fill every fourth byte, and one more translate deletes the spaces of
    the digits a value lacks.  json.dumps writes any other list."""
    try:
        packed = bytearray(values)
    except ValueError:  # a value below 0 or above 255
        return json.dumps(values, separators=(",", ":"))
    if not packed:
        return "[]"
    text = bytearray(b",") * (4 * len(packed) + 1)
    text[0], text[-1] = 0x5B, 0x5D  # "[" for the first comma, then "]"
    for k, plane in enumerate(_digit_planes(), 1):
        text[k::4] = packed.translate(plane)
    return text.translate(None, b" ").decode()


class _Prewritten:
    """A bulky report value held as its JSON text, byte for byte what
    json.dumps(value, sort_keys=True, separators=(",", ":")) writes, from a
    writer made for its shape: vertex maps, graphs and int lists.  It
    equals its plain value, which value() reads back."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def value(self):
        return json.loads(self.text)

    def __eq__(self, other):
        return self.value() == other


def series_fields(series, prefix=""):
    """The report keys of a series: the numerator's dense coefficients and
    the denominator's factors under prefix, and the formatted series.  The
    coefficients are pre-written run by run from the terms, ",0" per zero,
    with no dense list."""
    runs = []
    last = -1
    for n, c in series.terms:
        runs += ",0" * (n - last - 1), ",%d" % c
        last = n
    return {prefix + "numerator": _Prewritten("[%s]" % "".join(runs)[1:]),
            prefix + "denominator_factors": list(series.denominator_factors),
            "series": series.format()}


_AS_IS = frozenset((int, bool, str, type(None), list))  # report values written as they are


def exact_json(value):
    """JSON form of an exact value: a Fraction becomes the string "p/q" (or
    "p" when integral); ints and None pass through."""
    return str(value) if isinstance(value, Fraction) else value


@lru_cache(maxsize=64)
def _json_map_template(n):
    """(template, getter) of the JSON text of an n-vertex map: json.dumps
    writes the keys in sorted-string order, "0", "1", "10", "100", ..., so
    the template holds one %s per value in that order, and getter lists the
    values in it."""
    order = sorted(range(n), key=str)
    return ("{%s}" % ",".join(['"%d":%%s' % i for i in order]),
            itemgetter(*order) if n > 1 else tuple)


def json_map_text(values):
    """The vertex-id-keyed map {"0": v_0, "1": v_1, ...} of exact values as
    json.dumps(..., sort_keys=True, separators=(",", ":")) writes it, byte
    for byte, with no dict built: the values, ints and Fractions, fill a
    template of their vertex count, an integral one as a JSON int."""
    template, getter = _json_map_template(len(values))
    if not set(map(type, values)) <= _INT:
        values = [v if type(v) is int else v.numerator if v.denominator == 1
                  else '"%s"' % v for v in values]
    return template % getter(values)


def report_value(value):
    """One report field's JSON value, by its type: ints, bools, strings,
    None and lists as they are, a tuple as the list of its items' values, a
    Fraction as its exact_json, a QCycle as its pre-written vertex map, and
    anything else, a nested report, as its to_json_dict()."""
    kind = type(value)
    if kind in _AS_IS:
        return value
    if kind is tuple:
        return list(map(report_value, value))
    if kind is QCycle:
        return _Prewritten(json_map_text(value.coeffs))
    if kind is Fraction:
        return exact_json(value)
    return value.to_json_dict()


def report_json(report, **keys):
    """The JSON dict of a Record, written from its _fields: each
    field's report_value under its name, or under the key that keys gives
    it; a HilbertSeries field X writes the keys of series_fields(X, "X_")."""
    out = {}
    for name in report._fields:
        value = getattr(report, name)
        if type(value) is HilbertSeries:
            out.update(series_fields(value, name + "_"))
        else:
            out[keys.get(name, name)] = report_value(value)
    return out


def _seifert_json(seifert):
    """The invariant as bci and graph print it; the arms are written from
    the runs, one pair's text repeated per run, so no arm is listed."""
    arms = ",".join(",".join(["[%d,%d]" % arm] * k) for arm, k in seifert.arm_runs)
    return {"g": seifert.g, "c0": seifert.c0, "arms": _Prewritten("[%s]" % arms)}


# the stand-in for a pre-written value in _dumps, and its JSON text
_HELD = "\x00"
_HELD_JSON = json.dumps(_HELD)


def _dumps(obj):
    """Compact JSON with sorted keys.  json.dumps calls its default hook on
    each pre-written value, at any depth and in output order; the hook keeps
    the value's text and writes a placeholder, and each text is spliced in
    where its placeholder landed: the same bytes as json.dumps of the plain
    report, without encoding a bulky value item by item."""
    held = []

    def hold(value):
        if type(value) is not _Prewritten:
            raise TypeError("%s is not JSON serializable" % type(value).__name__)
        held.append(value.text)
        return _HELD

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=hold)
    if not held:
        return text
    pieces = text.split(_HELD_JSON)
    # a report string equal to the placeholder would add a piece
    if len(pieces) != len(held) + 1:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          default=_Prewritten.value)
    out = [pieces[0]]
    for value, piece in zip(held, pieces[1:]):
        out += (value, piece)
    return "".join(out)


def _text_lines(report, keys):
    out = []
    for k in keys:
        v = report[k]
        if isinstance(v, (dict, list, _Prewritten)):
            v = _dumps(v)
        out.append("%s: %s" % (k, v))
    return "\n".join(out) + "\n"
