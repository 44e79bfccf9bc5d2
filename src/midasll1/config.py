"""Flat key=value run configuration files.

One `key = value` pair per line; '#' starts a comment; unknown keys are
rejected.  `ranks` is a comma list of block widths; `R`, when present, must
match its length.  `reg` is one of none | nonneg | ridge:<lam>.  Values are
checked once, at parse time, by building the `SolverConfig` they describe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .model import RankVector
from .prox import RegularizerSpec
from .solver import SolverConfig


@dataclass
class RunConfig:
    ranks: tuple[int, ...]
    estimator: str = "saga"
    t: int = 3
    alpha0: float = 0.3
    beta0: float = 0.8
    eta: float = 0.1
    B: int = 0          # 0 -> 2 * max L_r
    epochs: int = 200
    seed: int = 0
    reg: str = "nonneg"
    mode_policy: str = "uniform"
    sarah_q: int = 0    # 0 -> one epoch of mode-n updates
    gamma_diag: float | None = None  # None -> Lyapunov diagnostic disabled

    def to_solver_config(self) -> SolverConfig:
        kind, _, lam = self.reg.partition(":")
        reg = RegularizerSpec.uniform(kind, float(lam) if lam else 0.0)
        return SolverConfig(
            ranks=RankVector(self.ranks),
            estimator=self.estimator,
            t=self.t,
            alpha0=self.alpha0,
            beta0=self.beta0,
            eta=self.eta,
            B=self.B,
            epochs=self.epochs,
            seed=self.seed,
            mode_policy=self.mode_policy,
            reg=reg,
            sarah_q=self.sarah_q,
            gamma_diag=self.gamma_diag,
        )


_INT_KEYS = {"t", "B", "epochs", "seed", "sarah_q", "R"}
_FLOAT_KEYS = {"alpha0", "beta0", "eta"}
_STR_KEYS = {"estimator", "reg", "mode_policy"}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    r_declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        try:
            if key == "ranks":
                values["ranks"] = tuple(int(v) for v in val.split(","))
            elif key == "R":
                r_declared = int(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key == "gamma_diag":
                values[key] = None if val.lower() == "none" else float(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if "ranks" not in values:
        raise ConfigError("missing required key 'ranks'")
    if r_declared is not None and r_declared != len(values["ranks"]):
        raise ConfigError(
            f"R={r_declared} contradicts ranks of length {len(values['ranks'])}"
        )
    cfg = RunConfig(**values)
    try:
        cfg.to_solver_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "ranks":
            v = ",".join(str(x) for x in v)
        elif v is None:
            v = "none"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    lines.append(f"R = {len(cfg.ranks)}")
    return "\n".join(lines) + "\n"
