"""Flat key=value run configuration files.

One `key = value` pair per line; '#' starts a comment; unknown and repeated
keys are rejected.  `ranks` is a comma list of block widths; `R`, when
present, must match its length.  `reg` is one of none | nonneg |
ridge:<lam>; `eta` is a float or none.  A file parses straight into the
`SolverConfig` it describes, so its values are checked once, by that
constructor.
"""

from __future__ import annotations

from .model import RankVector
from .prox import Regularizer
from .solver import SolverConfig


def _parse_reg(val: str) -> Regularizer:
    kind, _, lam = val.partition(":")
    return Regularizer(kind, float(lam) if lam else 0.0)


# file key -> (parse, format), in the order serialize_config writes them
_KEYS = {
    "ranks": (
        lambda v: RankVector(tuple(int(x) for x in v.split(","))),
        lambda r: ",".join(str(x) for x in r.L),
    ),
    "estimator": (str, str),
    "t": (int, str),
    "alpha0": (float, repr),
    "beta0": (float, repr),
    "eta": (
        lambda v: None if v.lower() == "none" else float(v),
        lambda e: "none" if e is None else repr(e),
    ),
    "B": (int, str),
    "epochs": (int, str),
    "seed": (int, str),
    "reg": (_parse_reg, lambda r: f"ridge:{r.lam!r}" if r.kind == "ridge" else r.kind),
    "mode_policy": (str, str),
    "sarah_q": (int, str),
}


class ConfigError(ValueError):
    pass


def scan_lines(text: str):
    """Yield (line number, key, value) for each `key = value` line, 1-based,
    skipping comments and blank lines; a line without `=` or a key given
    twice is a ConfigError naming its line (and the first one)."""
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} already given on line {first_line[key]}"
            )
        first_line[key] = lineno
        yield lineno, key, val


def parse_config(text: str) -> SolverConfig:
    return config_from_lines(scan_lines(text))


def config_from_lines(lines) -> SolverConfig:
    """The SolverConfig of scanned `(line number, key, value)` triples."""
    values: dict[str, object] = {}
    r_declared = None
    for lineno, key, val in lines:
        if key != "R" and key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "R":
                r_declared = int(val)
            else:
                values[key] = _KEYS[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if "ranks" not in values:
        raise ConfigError("missing required key 'ranks'")
    if r_declared is not None and r_declared != values["ranks"].R:
        raise ConfigError(
            f"R={r_declared} contradicts ranks of length {values['ranks'].R}"
        )
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_config(cfg: SolverConfig) -> str:
    lines = [f"{key} = {fmt(getattr(cfg, key))}" for key, (_, fmt) in _KEYS.items()]
    lines.append(f"R = {cfg.ranks.R}")
    return "\n".join(lines) + "\n"
