"""Flat key=value run configuration files.

One `key = value` pair per line; '#' starts a comment; unknown and repeated
keys are rejected.  `ranks` is a comma list of block widths; `R`, when
present, must match its length.  `reg` is one of none | nonneg |
ridge:<lam>.  A file parses straight into the `SolverConfig` it describes,
so its values are checked once, by that constructor.
"""

from __future__ import annotations

from .model import RankVector
from .prox import RegularizerSpec
from .solver import SolverConfig


def _parse_reg(val: str) -> RegularizerSpec:
    kind, _, lam = val.partition(":")
    return RegularizerSpec.uniform(kind, float(lam) if lam else 0.0)


def _format_reg(spec: RegularizerSpec) -> str:
    r = spec.modes[0]
    if any(m != r for m in spec.modes):
        raise ValueError("per-mode regularizers have no config-file form")
    return f"ridge:{r.lam!r}" if r.kind == "ridge" else r.kind


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
    "eta": (float, repr),
    "B": (int, str),
    "epochs": (int, str),
    "seed": (int, str),
    "reg": (_parse_reg, _format_reg),
    "mode_policy": (str, str),
    "sarah_q": (int, str),
    "gamma_diag": (
        lambda v: None if v.lower() == "none" else float(v),
        lambda g: "none" if g is None else repr(g),
    ),
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> SolverConfig:
    values: dict[str, object] = {}
    r_declared = None
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key != "R" and key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} already given on line {first_line[key]}"
            )
        first_line[key] = lineno
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
