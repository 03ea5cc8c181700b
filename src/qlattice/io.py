"""JSON wire formats: context files, word literals and weight tables.

A context file describes the commutation graph:

    {"vertices": [{"name": "a", "factor": "Z"},
                  {"name": "v", "factor": {"artin": {"generators": ["s","t"],
                                                     "m": [[1,3],[3,1]]}}}],
     "edges": [["a", "v"]]}

A word literal is an array of syllables: an integer for a Z vertex, a
positive word string or a {"num": ..., "den": ...} fraction for an Artin
vertex, e.g. [["a", 2], ["v", "sts"], ["v", {"num": "s", "den": "t"}]].
"""

from __future__ import annotations

import json
import sys

from .graph import CommutationGraph


class LiteralError(ValueError):
    """Malformed context/word/weight input."""


def graph_from_json(doc):
    vertices = doc.get("vertices") if isinstance(doc, dict) else None
    if not (isinstance(vertices, list) and vertices):
        raise LiteralError("context must be an object with a nonempty 'vertices' list")
    pairs = []
    for entry in vertices:
        try:
            name, factor = entry["name"], entry["factor"]
        except (TypeError, KeyError) as exc:
            raise LiteralError(f"bad vertex entry {entry!r}") from exc
        if not (isinstance(name, str) and name):
            raise LiteralError(f"vertex names must be nonempty strings, not {name!r}")
        pairs.append((name, factor))
    edges = doc.get("edges", [])
    try:
        return CommutationGraph(pairs, edges)
    except (ValueError, KeyError) as exc:
        raise LiteralError(str(exc)) from exc
    except TypeError as exc:  # a name, factor or edge list of the wrong JSON type
        raise LiteralError(f"malformed context: {exc}") from exc


def load_graph(path):
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def parse_element(graph, vertex, raw):
    ops = graph.ops.get(vertex)
    if ops is None:
        raise LiteralError(f"unknown vertex {vertex!r}")
    if ops.kind == "Z":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise LiteralError(f"vertex {vertex!r} takes an integer, got {raw!r}")
        return raw
    try:
        if isinstance(raw, str):
            return ops.element(ops.monoid.parse_word(raw))
        if isinstance(raw, dict) and set(raw) <= {"num", "den"}:
            num, den = raw.get("num", ""), raw.get("den", "")
            if isinstance(num, str) and isinstance(den, str):
                return ops.element(ops.monoid.parse_word(num), ops.monoid.parse_word(den))
    except ValueError as exc:  # an unknown generator name
        raise LiteralError(str(exc)) from exc
    raise LiteralError(f"bad Artin element literal {raw!r}")


def parse_word(graph, literal):
    """Word literal -> canonical NormalWord."""
    if isinstance(literal, str):
        literal = json.loads(literal)
    if not isinstance(literal, list):
        raise LiteralError("a word literal is a JSON array of syllables")
    syllables = []
    for item in literal:
        if not (isinstance(item, list) and len(item) == 2):
            raise LiteralError(f"bad syllable {item!r}")
        vertex, raw = item
        element = parse_element(graph, vertex, raw)
        if graph.ops[vertex].is_identity(element):
            raise LiteralError(f"trivial syllable {item!r}")
        syllables.append(graph._syllable(vertex, element))
    return graph.reduce(syllables)


def element_to_json(graph, vertex, element):
    if graph.ops[vertex].kind == "Z":
        return element
    if element.den:
        return {"num": "".join(element.num), "den": "".join(element.den)}
    return "".join(element.num)


def word_to_json(graph, x):
    return [
        [s.vertex, element_to_json(graph, s.vertex, s.element)]
        for s in x.syllables
    ]


def parse_weights(graph, literal):
    """{"label": weight} -> {generator label: float weight}, validated."""
    if isinstance(literal, str):
        literal = json.loads(literal)
    if not isinstance(literal, dict) or not literal:
        raise LiteralError("weights must be a nonempty JSON object")
    labels = graph.generator_labels()
    out = {}
    for label, weight in literal.items():
        if label not in labels:
            raise LiteralError(f"unknown generator label {label!r}")
        # int and float compare exactly, so this also keeps out integer
        # literals that float() cannot convert
        if type(weight) not in (int, float) or not 0 <= weight <= sys.float_info.max:
            raise LiteralError(f"weight for {label!r} must be finite and nonnegative")
        out[label] = float(weight)
    return out
