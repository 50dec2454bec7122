"""Flat key-value run configuration with dotted section names.

Format, one binding per line::

    # comment
    grid.dims = 32 32
    channel.1.kind = kl

Chosen over nested formats so configs diff line-by-line. Values are plain
strings; typed accessors convert on demand and report the offending line on
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class RunConfig:
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)  # key -> source line
    # every key an accessor has looked up, so that a run can name the keys it never read
    read: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def has(self, key: str) -> bool:
        return key in self.values

    def _get(self, key: str, default, parse, what: str = "", must=None):
        """``parse`` the value of ``key``, or return ``default`` when it is absent;
        a ValueError from ``parse`` is reported as "is not <what>".  A present
        value must pass ``must``, a ``(test, rule)`` pair, if one is given, else
        it is reported as "must <rule>"."""
        self.read.add(key)
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        text = self.values[key]
        try:
            value = parse(text)
        except ValueError:
            raise ConfigError(f"{key} = {text!r} is not {what}", self.lines.get(key)) from None
        if must is not None and not must[0](value):
            raise ConfigError(f"{key} = {text} must {must[1]}", self.lines.get(key))
        return value

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._get(key, default, str)

    def get_int(self, key: str, default: int | None = None, must=None) -> int:
        return self._get(key, default, int, "an integer", must)

    def get_float(self, key: str, default: float | None = None, must=None) -> float:
        return self._get(key, default, float, "a number", must)

    def get_ints(self, key: str, default: tuple | None = None, must=None) -> tuple[int, ...]:
        parse = lambda t: tuple(map(int, t.split()))
        return self._get(key, default, parse, "a list of integers", must)

    def get_floats(self, key: str, default: tuple | None = None, must=None) -> tuple[float, ...]:
        parse = lambda t: tuple(map(float, t.split()))
        return self._get(key, default, parse, "a list of numbers", must)

    def get_choice(self, key: str, choices: tuple[str, ...], default: str | None = None) -> str:
        # tuple.index raises the ValueError for a value outside ``choices``
        what = "one of " + ", ".join(choices)
        return self._get(key, default, lambda t: choices[choices.index(t)], what)

    def dump(self) -> str:
        """Canonical sorted rendering, used to echo the resolved config."""
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in cfg.values:
            raise ConfigError(f"duplicate key {key!r} (first at line {cfg.lines[key]})", lineno)
        cfg.values[key] = value
        cfg.lines[key] = lineno
    schema = cfg.get_int("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema version {schema} (this build reads {SCHEMA_VERSION})",
            cfg.lines.get("schema"),
        )
    return cfg


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
