"""The input vocabulary shared by scenario files, ConfigMap documents and
injector policy files: YAML loading and typed, located field reads.

Every malformed field raises a ``ValidationError`` whose path names it.
Keyed readers take ``(data, key, where, default)``: ``where`` locates the
mapping ``data``, a bad value is reported at ``where.key``, and a missing
key without a default at ``where``. A null value reads as absent only where
the default is None.

``load`` builds documents straight from the YAML parser's events: plain
YAML (untagged, unanchored collections and string, integer, float, boolean
and null scalars) needs no node graph. Anything else goes through PyYAML's
composer and constructor, so it loads, or fails, exactly as ``yaml.load``
with ``YamlLoader`` does.
"""

from __future__ import annotations

import yaml

from .errors import AddrParseError, ValidationError
from .net_types import MAX_SEGMENTS, parse_addr, parse_prefix, parse_v6

# libyaml where PyYAML has it: the same objects, several times faster.
YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
REQUIRED = object()
_VERSION = {"v4": 4, "v6": 6}
_STR = "tag:yaml.org,2002:str"
_SCALARS = {f"tag:yaml.org,2002:{name}" for name in ("int", "float", "bool", "null")}
_NO_KEY = object()


def load(text: str, where: str, every: bool = False):
    """The YAML document in ``text``; with ``every``, the list of all of them."""
    try:
        docs = _plain_documents(text, every)
        if docs is not None:
            return docs if every else docs[0]
        if every:
            return list(yaml.load_all(text, Loader=YamlLoader))
        return yaml.load(text, Loader=YamlLoader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a constructor's, e.g. "0b_"
        raise ValidationError(f"not valid YAML: {exc}", path=where) from None


def _plain_documents(text: str, every: bool):
    """The documents of ``text`` built straight from the parser's events, or
    None at the first event that plain YAML lacks: an anchor, alias or
    explicit tag, a tag other than str/int/float/bool/null (merge keys,
    timestamps), a value its constructor refuses, a collection as a mapping
    key, or, unless ``every``, other than one document. A parser error
    raised here is the one the composer would raise at the same event. The
    loop keeps an explicit stack, so depth is not bounded by recursion.
    """
    loader = YamlLoader(text)
    resolve, constructors = loader.resolve, loader.yaml_constructors
    docs, tags = [], {}  # tags: plain value -> its resolved tag
    stack = [[docs, _NO_KEY]]  # open collections: [object, pending mapping key]
    while True:
        event = loader.get_event()
        kind = type(event)
        if kind is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                return None
            value = event.value
            if not event.implicit[0]:
                tag = _STR  # quoted, or a block scalar
            elif (tag := tags.get(value)) is None:
                tag = tags[value] = resolve(yaml.ScalarNode, value, event.implicit)
            if tag != _STR:
                if tag not in _SCALARS:
                    return None
                try:
                    value = constructors[tag](loader, yaml.ScalarNode(tag, value))
                except ValueError:  # such as "0b_", which resolves as an int
                    return None
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if event.anchor is not None or event.tag is not None:
                return None
            value = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            stack.pop()
            continue
        elif kind is yaml.DocumentStartEvent:
            if docs and not every:
                return None
            continue
        elif kind is yaml.StreamEndEvent:
            return docs if docs or every else None
        elif kind is yaml.AliasEvent:
            return None
        else:  # the stream's start, a document's end
            continue
        top = stack[-1]
        container, key = top
        if type(container) is list:
            container.append(value)
        elif key is _NO_KEY:
            if kind is not yaml.ScalarEvent:
                return None
            top[1] = value
        else:
            container[key] = value
            top[1] = _NO_KEY
        if kind is not yaml.ScalarEvent:
            stack.append([value, _NO_KEY])


def mapping(value, what: str, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a mapping", path=where)
    return value


def section(data: dict, key: str, where: str, kind: type = list):
    """The list (or with ``kind=dict``, mapping) at ``key``; absent or null reads empty."""
    value = data.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "a mapping"
        raise ValidationError(f"{key!r} must be {noun}", path=f"{where}.{key}")
    return value


def entries(data: dict, key: str, where: str):
    """``(path, entry)`` per entry of the list at ``key``; each must be a mapping."""
    for i, entry in enumerate(section(data, key, where)):
        if not isinstance(entry, dict):
            raise ValidationError(f"entry {entry!r} is not a mapping", path=f"{where}.{key}[{i}]")
        yield f"{where}.{key}[{i}]", entry


def get(data: dict, key: str, where: str, default=REQUIRED):
    """``data[key]``, or ``default``; a located ValidationError if neither exists."""
    value = data.get(key, default)
    if value is REQUIRED:
        raise ValidationError(f"missing {key!r}", path=where)
    return value


def _typed(data: dict, key: str, where: str, default, kind: type, noun: str):
    value = get(data, key, where, default)
    if value is None and default is None:
        return None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{key} {value!r} is not {noun}", path=f"{where}.{key}")
    return value


def string(data: dict, key: str, where: str, default=REQUIRED):
    return _typed(data, key, where, default, str, "a string")


def boolean(data: dict, key: str, where: str, default=REQUIRED):
    return _typed(data, key, where, default, bool, "a boolean")


def integer(data: dict, key: str, where: str, default=REQUIRED, low=None, high=None):
    """An integer, never a boolean, within ``[low, high]`` where given."""
    value = _typed(data, key, where, default, int, "an integer")
    if value is not None and (
        (low is not None and value < low) or (high is not None and value > high)
    ):
        bound = (f"is below {low}" if high is None else f"is above {high}" if low is None
                 else f"is outside [{low}, {high}]")
        raise ValidationError(f"{key} {value} {bound}", path=f"{where}.{key}")
    return value


def one_of(value, allowed, what: str, where: str):
    """``value`` if it is in ``allowed`` (a choice or a reference), else a
    located ValidationError."""
    if value not in allowed:
        raise ValidationError(f"unknown {what} {value!r}", path=where)
    return value


def unique(value, seen: set, what: str, where: str):
    """``value``, added to ``seen``; a located ValidationError if already there."""
    if value in seen:
        raise ValidationError(f"duplicate {what} {value!r}", path=where)
    seen.add(value)
    return value


def present(value, key: str, where: str, why: str):
    """``value``; a ValidationError at ``where.key`` if another setting needs it and it is None."""
    if value is None:
        raise ValidationError(f"missing {key!r}, needed {why}", path=f"{where}.{key}")
    return value


def _parsed(parse, value, family, what: str, path: str):
    """``parse(str(value))``, which must be of ``family`` unless it is None."""
    try:
        parsed = parse(str(value))
    except AddrParseError as exc:
        raise ValidationError(str(exc), path=path) from None
    if family is not None and parsed.version != _VERSION[family]:
        raise ValidationError(f"{parsed} is not an IPv{_VERSION[family]} {what}", path=path)
    return parsed


def address(data: dict, key: str, where: str, family: str = "v6", default=REQUIRED):
    value = data.get(key, default)
    if value is REQUIRED or (value is None and default is None):
        return get(data, key, where, default)  # None, or the missing-key error
    if family == "v4":
        return _parsed(parse_addr, value, family, "address", f"{where}.{key}")
    try:  # inline: the hot path of every document's policies
        return parse_v6(str(value))
    except AddrParseError as exc:
        raise ValidationError(str(exc), path=f"{where}.{key}") from None


def prefix(data: dict, key: str, where: str, family=None):
    """A prefix of ``family``, or of either family if it is None."""
    return _parsed(parse_prefix, get(data, key, where), family, "prefix", f"{where}.{key}")


def segment_count(count: int, path: str) -> None:
    """A located ValidationError unless an SRH can hold ``count`` segments."""
    if count > MAX_SEGMENTS:
        raise ValidationError(f"{count} segments, more than the {MAX_SEGMENTS} an SRH holds",
                              path=path)


def addresses(data: dict, key: str, where: str) -> tuple:
    """The segment list at ``key``: 1 to ``MAX_SEGMENTS`` IPv6 addresses."""
    values = data.get(key)
    if not values or not isinstance(values, list):
        section(data, key, where)  # raises unless the list is absent or empty
        raise ValidationError(f"empty {key}", path=f"{where}.{key}")
    segment_count(len(values), f"{where}.{key}")
    try:
        return tuple(map(parse_v6, map(str, values)))
    except AddrParseError:  # the same values fail again, each at its own path
        return tuple(_parsed(parse_v6, value, None, "address", f"{where}.{key}[{i}]")
                     for i, value in enumerate(values))
