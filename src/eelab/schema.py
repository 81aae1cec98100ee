"""Config keys declared once, on dataclass fields: JSON path, range, default, override flag.

A field's annotation names the JSON type its value is coerced to.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import asdict, field, fields

#: a key's range: (what a value must do, completing "<key> must ...", predicate)
POSITIVE = ("be positive", lambda v: v > 0)
_TYPES = {"float": ((int, float), "be a finite number"), "int": (int, "be an integer"),
          "bool": (bool, "be true or false"), "str": (str, "be a non-empty string")}


class ConfigError(ValueError):
    """Invalid configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid config:\n  - " + "\n  - ".join(violations))
        self.violations = violations


def key(default, path: str | None = "", within: tuple | None = None, *, coerce=None,
        render: bool = True, flag: str | None = None):
    """A field read from ``path`` ("": the field's name; None: not in the file).

    ``coerce(value, path)`` reads a key that holds an object; ``flag`` names
    the ``--flag`` and ``EEL_FLAG`` overrides.
    """
    meta = {"path": path, "within": within, "coerce": coerce, "render": render, "flag": flag}
    if default == {}:
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def _bad(source: str, what: str, value) -> ConfigError:
    return ConfigError([f"{source} must {what}, got {value!r}"])


def _coerce(kind: str, value, source: str):
    """``value`` as the annotation ``kind`` names; a pair keeps its numbers as written."""
    if kind.endswith(" | None"):
        return None if value is None else _coerce(kind[:-7], value, source)
    if kind.startswith("tuple["):
        item, rest = kind[6:-1].split(", ")
        if not isinstance(value, (list, tuple)) or not value or rest != "..." and len(value) != 2:
            raise _bad(source, "be a non-empty list" if rest == "..." else "be two numbers", value)
        items = tuple(_coerce(item, x, f"{source}[{i}]") for i, x in enumerate(value))
        return items if rest == "..." else tuple(value)
    if kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, _TYPES[kind][0])
            or value == "" or kind == "float" and not abs(value) <= sys.float_info.max):
        raise _bad(source, _TYPES[kind][1], value)
    return float(value) if kind == "float" else value


def read_value(f, value, source: str):
    """``value`` coerced for field ``f`` and checked against its range."""
    value, within = _coerce(f.type, value, source), f.metadata["within"]
    if within is not None and value is not None and not within[1](value):
        raise _bad(source, within[0], list(value) if isinstance(value, tuple) else value)
    return value


def declared(cls) -> dict:
    """JSON path -> field, for every key of ``cls`` read from a file."""
    return {f.metadata["path"] or f.name: f for f in fields(cls)
            if f.metadata.get("path") is not None}


def read_keys(cls, obj, where: str = "") -> dict:
    """Coerced values of the keys of ``cls`` that ``obj`` (at config path ``where``)
    holds, by field name; ConfigError lists every unknown key and bad value."""
    decl, base = declared(cls), where + "." if where else ""
    values: dict = {}
    violations: list[str] = []

    def walk(node, prefix: str) -> None:
        group = f"config {base}{prefix}".rstrip(". ")
        if not isinstance(node, dict):
            violations.append(f"{group} must be an object, got {node!r}")
            return
        for name, value in node.items():
            path, f = prefix + str(name), decl.get(prefix + str(name))
            try:
                if f is not None and f.metadata["coerce"]:
                    values[f.name] = f.metadata["coerce"](value, base + path)
                elif f is not None:
                    values[f.name] = read_value(f, value, f"config {base}{path}")
                elif any(p.startswith(path + ".") for p in decl):
                    walk(value, path + ".")
                else:
                    violations.append(f"{group} has unknown key {str(name)!r}")
            except ConfigError as exc:
                violations.extend(exc.violations)

    walk(obj, "")
    if violations:
        raise ConfigError(violations)
    return values


def override(obj, args, env) -> None:
    """Set each key that has a flag from ``args.<flag>``, else ``env["EEL_<FLAG>"]``.

    Empty text counts as absent; other text is read as the file would hold it
    (an integer, or a comma-separated list) and checked like it.
    """
    for f in fields(obj):
        if (flag := f.metadata.get("flag")) is None:
            continue
        value, source = getattr(args, flag, None), f"--{flag}"
        if value in (None, ""):
            value, source = env.get(f"EEL_{flag.upper()}"), f"EEL_{flag.upper()}"
        if value in (None, ""):
            continue
        if isinstance(value, str) and f.type == "int":
            with suppress(ValueError):
                value = int(value)
        elif isinstance(value, str) and f.type.startswith("tuple["):
            value = [part.strip() for part in value.split(",") if part.strip()]
        setattr(obj, f.name, read_value(f, value, source))


def render(obj) -> dict:
    """The rendered keys of dataclass ``obj`` as nested JSON."""
    out: dict = {}
    values = asdict(obj)
    for path, f in declared(type(obj)).items():
        if f.metadata["render"]:
            *groups, leaf = path.split(".")
            node = out
            for g in groups:
                node = node.setdefault(g, {})
            node[leaf] = values[f.name]
    return out
