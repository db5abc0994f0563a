"""The canonical text of a model file, read straight into preorder arrays.

``forest.serialize_model`` writes compact ASCII JSON with its keys in a fixed
order, so a model's trees are one preorder stream of events: a split's
``{"f":D,"t":NUM,"l":``, its ``,"r":`` and its closing ``}``, a leaf's
``{"v":NUM}``, and a ``,`` between trees.  :func:`read_canonical` finds and
checks those events with bytes and numpy operations and converts the numbers
with JSON's own parser, building no dict per node (the approach of Treelite,
Cho & Li, SysML 2018).  It accepts only text that ``json.loads`` and the
model's checks accept, and gives the same arrays; anything else, including
every error, is left to them.
"""

from __future__ import annotations

import json

import numpy as np

# serialize_model writes these header keys in this order, then the trees.
_HEADER_KEYS = ["version", "target_kind", "vsr_tag", "hyperparams"]
_TREES_KEY = b',"trees":['
_NUMBER_BYTES = b"0123456789+-.eE"
# Event kinds (the five keys, "}", ","), each key letter's kind, and the byte
# before a key's quote by kind.
_F, _T, _L, _R, _V, _END, _SEP = range(1, 8)
_KEY_KIND = np.zeros(256, np.uint8)
_KEY_KIND[np.frombuffer(b"ftlrv", np.uint8)] = (_F, _T, _L, _R, _V)
_KEY_START = np.array([-1, *b"{,,,{"], np.int16)
# json.loads gives up on nesting near the recursion limit; deeper trees are
# left to it, so that both readers agree.
FAST_DEPTH = 100


def _no_integers(text: str):
    raise ValueError(f"{text} is an integer; serialize_model writes floats")


def _events(body: bytes) -> tuple | None:
    """The position and kind of each key, "}" and "," between trees in the
    canonical text of a tree list, and the keys' colons, checked to be the
    only bytes there outside numbers; None where they are not."""
    b = np.frombuffer(body, np.uint8)
    marks = b == ord(":")
    marks |= b == ord("}")
    marks[:-1] |= (b[:-1] == ord(",")) & (b[1:] == ord("{"))  # the "," between two trees
    at = np.flatnonzero(marks)  # any other "," must be a key's first byte
    byte = b[at]
    k = np.uint8(_SEP) - (byte == ord("}")).view(np.uint8)  # _END is _SEP - 1
    colon = np.flatnonzero(byte == ord(":"))  # each ends a key such as '{"f":' or ',"t":'
    key = at[colon]
    if not key.size or key[0] < 4:
        return None
    kind = _KEY_KIND[b[key - 2]]
    if not ((b[key - 1] == ord('"')) & (b[key - 3] == ord('"'))
            & (b[key - 4] == _KEY_START[kind])).all():
        return None
    k[colon] = kind
    split = k == _F
    # A node comes first and "}" last; "t" comes after "f" and "l" after "t",
    # each only there, and "}" after "v"; and keys and events hold the only
    # bytes that are not number bytes.
    if not ((split[0] or k[0] == _V) and k[-1] == _END
            and (split[:-1] == (k[1:] == _T)).all() and ((k[:-1] == _T) == (k[1:] == _L)).all()
            and ((k[:-1] != _V) | (k[1:] == _END)).all()
            and len(body.translate(None, _NUMBER_BYTES)) == 5 * key.size + np.count_nonzero(k > _V)):
        return None
    return at, k, key


def _numbers(body: bytes, at: np.ndarray, k: np.ndarray, key: np.ndarray) -> np.ndarray | None:
    """The numbers after the "t" and "v" keys, one per node in preorder, read
    as a JSON list: the keys, events and feature digits become spaces, and the
    colon before each number a comma.  A number out of its place ("}5",
    '"v":}', a two-digit feature) leaves two numbers with no comma between
    them or a comma with none, which json.loads rejects."""
    text = bytearray(body)
    text += b"]"
    chars = np.frombuffer(text, np.uint8)
    for shift in range(5):
        chars[key - shift] = ord(" ")
    chars[at.compress(k > _V)] = ord(" ")
    chars[at.compress(k == _F) + 1] = ord(" ")
    numbered = at.compress((k == _T) | (k == _V))
    chars[numbered] = ord(",")
    chars[numbered[0]] = ord("[")
    try:  # JSON's own number grammar and conversion, as json.loads reads the whole text
        return np.array(json.loads(text, parse_int=_no_integers))
    except ValueError:
        return None


def _read_trees(body: bytes, n_features: int) -> tuple | None:
    """``(feature, threshold, right, roots, deepest)`` for the canonical text
    of a tree list, the bytes between its brackets: preorder arrays in which a
    leaf links to itself and keeps its value in ``threshold``, as the
    model's checks build them, and the deepest leaf's depth.  None where the
    text is not exactly canonical or has a feature index of ``n_features``
    or more."""
    events = _events(body)
    if events is None:
        return None
    at, k, key = events
    threshold = _numbers(body, at, k, key)
    if threshold is None or not np.isfinite(threshold).all():
        return None
    digit = np.frombuffer(body, np.uint8)[at.compress(k == _F) + 1] - np.uint8(ord("0"))  # wraps
    keep = (k != _T) & (k != _L)
    keep[1:] &= k[:-1] != _V  # a leaf's "}" belongs to the leaf
    tok = k.compress(keep)  # each node's first event, each split's "r" and "}", and the ","
    split, leaf, close, to_right = tok == _F, tok == _V, tok == _END, tok == _R
    step = split.view(np.int8) - close.view(np.int8)
    depth = np.cumsum(step, dtype=np.intp)  # after each event
    start = split | leaf
    opens = split | to_right | (tok == _SEP)
    # A node starts after "[", "l", "r" and "," and nowhere else, and ","
    # only separates whole trees.
    if not ((digit < n_features).all() and start[0] and not opens[-1]
            and (start[1:] == opens[:-1]).all() and depth.max() <= FAST_DEPTH
            and ((tok != _SEP) | (depth == 0)).all()):
        return None
    # Sorted stably by the depth inside the split they belong to, the splits'
    # events must run "f", "r", "}" over and over: each split has one "r"
    # between its own "f" and "}", and every "}" closes an "f".
    inner = np.flatnonzero(split | to_right | close)
    if inner.size % 3:
        return None
    level = (depth + close)[inner].astype(np.uint8)  # radix-sorted
    triples = inner[np.argsort(level, kind="stable")].reshape(-1, 3)
    if not (tok[triples] == (_F, _R, _END)).all():
        return None
    node = np.cumsum(start, dtype=np.intp) - 1  # each node's preorder index
    right = np.arange(node[-1] + 1)
    if threshold.size != right.size:  # as where the text holds no number: "[ ]"
        return None
    right[node[triples[:, 0]]] = node[triples[:, 1] + 1]
    feature = np.zeros(right.size, np.intp)
    feature[node.compress(split)] = digit
    roots = node.compress(start & (depth == step))  # depth 0 before them
    return feature, threshold, right, roots, int(depth.compress(leaf).max())


def read_canonical(data: bytes | str, n_features: int) -> tuple[dict, tuple] | None:
    """The header and :func:`_read_trees` arrays of ``data``, if ``data`` is
    exactly the text ``serialize_model`` writes, provenance keys after the
    trees and trailing whitespace aside; else None.  The header is as parsed:
    the caller checks its fields."""
    if not data.isascii():
        return None
    text = data.encode("ascii") if isinstance(data, str) else data
    cut = text.find(_TREES_KEY)
    end = text.find(b"]", cut)
    if cut < 0 or end < 0:
        return None
    head, body, tail = text[:cut] + b"}", text[cut + len(_TREES_KEY):end], text[end + 1:]
    del text  # the body holds all that is left to read; a copy of str data costs memory
    more = tail[:1] == b","
    try:
        header, extra = json.loads(head), json.loads(b"{" + (tail[1:] if more else tail))
        canonical = json.dumps(header, separators=(",", ":")).encode() == head
    except (ValueError, RecursionError):
        return None
    # A key the tail repeats would override the one before it in json.loads.
    if (not canonical or list(header) != _HEADER_KEYS
            or bool(extra) != more or not extra.keys().isdisjoint([*_HEADER_KEYS, "trees"])):
        return None
    arrays = _read_trees(body, n_features)
    return None if arrays is None else (header, arrays)
