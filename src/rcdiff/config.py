"""Run configuration: plain-text dotted key-value files with a hard schema.

Format, one assignment per line::

    # comment
    world.D = 64
    sweep.a = 0, 1, 2, 4, 8, 16

Unknown keys are errors (typo protection), values are validated against the
schema below, and omitted keys take defaults that reproduce the desk-scale
simulation study: D=64, d=16, identity latent covariance, off-support
coefficient 5, 8192 labeled and 65536 unlabeled samples, ridge weight 1,
pseudo-label noise 1/sqrt(D), and a 5-seed sweep over a target grid
{0, 1, 2, 4, 8, 16}.  The diffusion schedule and the target grid are not
prescribed by the study and are documented artifact choices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .io import a_tag, sha256_text
from .oracle import DiffusionSchedule
from .regression import default_nu
from .score_model import TrainConfig


# key -> (type, default, description); [int] and [float] are lists of that type.
SCHEMA = {
    "world.D": (int, 64, "ambient dimension"),
    "world.d": (int, 16, "latent dimension"),
    "world.sigma_diag": ([float], [], "latent covariance diagonal ([] = identity)"),
    "world.offsupport_coeff": (float, 5.0, "off-support reward coefficient"),
    "world.offsupport_sign": (str, "penalty", "penalty | bonus"),
    "data.n1": (int, 65536, "unlabeled sample count"),
    "data.n2": (int, 8192, "labeled sample count"),
    "data.noise_sigma": (float, 0.1, "label noise std in [0, 1)"),
    "reward.lambda": (float, 1.0, "ridge weight"),
    "reward.nu": (str, "auto", "pseudo-label noise std ('auto' = 1/sqrt(D))"),
    "schedule.T": (float, 10.0, "terminal diffusion time"),
    "schedule.t0": (float, 0.01, "early-stop time"),
    "schedule.eta": (float, 0.01, "backward step size"),
    "score.variant": (str, "mlp", "mlp | covering | oracle (closed form, no training)"),
    "score.hidden": ([int], [128, 128], "mlp hidden widths"),
    "score.batch_size": (int, 64, "training batch size"),
    "score.epochs": (int, 10, "training epochs"),
    "score.learning_rate": (float, 3e-3, "Adam learning rate"),
    "score.lr_decay": (float, 0.7, "per-epoch learning-rate factor"),
    "sample.n": (int, 2048, "generated points per cell"),
    "sweep.a": ([float], [0.0, 1.0, 2.0, 4.0, 8.0, 16.0], "target values"),
    "sweep.seeds": ([int], [0, 1, 2, 3, 4], "root seeds"),
    "metrics.n_ref": (int, 20000, "reference draws for the mean in e2"),
    "out.dir": (str, "runs/default", "output directory"),
}


def _typed(key: str, value, text: bool = False):
    """``value`` as ``key``'s declared type: parsed from config-file ``text``,
    or checked when given directly (a float also takes an int; a bool is
    neither).  Floats come back as finite ``float``, lists as ``list``."""
    kind = SCHEMA[key][0]
    listed = isinstance(kind, list)
    item = kind[0] if listed else kind
    if text:
        value = [item(v) for v in value.replace(",", " ").split()] if listed else item(value)
    items = value if listed else [value]
    if (listed and not isinstance(items, (list, tuple))) or any(
            isinstance(x, bool) or not isinstance(x, (int, float) if item is float else item)
            for x in items):
        raise ConfigError(f"{key} has a value of the wrong type: {value!r}")
    if item is float:
        items = [float(x) for x in items]
        # nan and inf pass the range checks of _validate and fail only at run time.
        if not np.all(np.isfinite(items)):
            raise ConfigError(f"{key} must be finite")
    return list(items) if listed else items[0]


def parse_config_text(text: str) -> dict:
    """Parse and validate a config file body into a flat key -> value dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _typed(key, val, text=True)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


@dataclass(frozen=True)
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        resolved = {k: default for k, (_, default, _) in SCHEMA.items()}
        for k, v in self.values.items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown key {k!r}")
            resolved[k] = v
        # Equal values get equal digests: 10 and 10.0, (0, 2) and [0.0, 2.0],
        # and a reward.nu of "0.1250" and "0.125".
        resolved = {k: _typed(k, v) for k, v in resolved.items()}
        self._validate(resolved)
        if resolved["reward.nu"] != "auto":
            resolved["reward.nu"] = repr(float(resolved["reward.nu"]))
        object.__setattr__(self, "values", resolved)

    @staticmethod
    def _validate(v: dict) -> None:
        if not 1 <= v["world.d"] <= v["world.D"]:
            raise ConfigError("need 1 <= world.d <= world.D")
        if v["world.sigma_diag"]:
            if len(v["world.sigma_diag"]) != v["world.d"]:
                raise ConfigError("world.sigma_diag length must equal world.d")
            if min(v["world.sigma_diag"]) <= 0 or max(v["world.sigma_diag"]) > 1:
                raise ConfigError("world.sigma_diag entries must lie in (0, 1]")
        for key in ("data.n1", "data.n2", "sample.n", "metrics.n_ref"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be at least 1")
        if v["world.offsupport_coeff"] < 0:
            raise ConfigError("world.offsupport_coeff must be nonnegative")
        if v["world.offsupport_sign"] not in ("penalty", "bonus"):
            raise ConfigError("world.offsupport_sign must be penalty or bonus")
        if not 0 <= v["data.noise_sigma"] < 1:
            raise ConfigError("data.noise_sigma must lie in [0, 1)")
        if v["reward.nu"] != "auto":
            try:
                nu = float(v["reward.nu"])
            except ValueError as exc:
                raise ConfigError("reward.nu must be 'auto' or a number") from exc
            if not 0 < nu < np.inf:
                raise ConfigError("reward.nu must be positive and finite")
        if v["reward.lambda"] < 0:
            raise ConfigError("reward.lambda must be nonnegative")
        # The labeled features span only the d-dimensional support and n2
        # rows, so an unregularized fit is singular unless both fill the space.
        if v["reward.lambda"] == 0 and min(v["world.d"], v["data.n2"]) < v["world.D"]:
            raise ConfigError("reward.lambda = 0 needs world.d = world.D <= data.n2")
        if v["score.variant"] not in ("covering", "mlp", "oracle"):
            raise ConfigError("score.variant must be covering, mlp or oracle")
        hidden = v["score.hidden"]
        if not 1 <= len(hidden) <= 3 or min(hidden) < 1:
            raise ConfigError("score.hidden must be 1 to 3 positive widths")
        # Values that collide would overwrite each other's artifacts; targets
        # collide when their file tags do (1 and 1.0000001 both tag as "1").
        for key, conv in (("sweep.a", a_tag), ("sweep.seeds", int)):
            if not v[key]:
                raise ConfigError(f"{key} must be nonempty")
            if len({conv(x) for x in v[key]}) != len(v[key]):
                raise ConfigError(f"{key} has duplicate values")
        if min(v["sweep.seeds"]) < 0:
            raise ConfigError("sweep.seeds must be nonnegative")
        try:
            DiffusionSchedule(v["schedule.T"], v["schedule.t0"], v["schedule.eta"])
            TrainConfig(batch_size=v["score.batch_size"], epochs=v["score.epochs"],
                        learning_rate=v["score.learning_rate"],
                        lr_decay=v["score.lr_decay"])
        except Exception as exc:
            raise ConfigError(f"invalid schedule or training settings: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def nu(self) -> float:
        if self.values["reward.nu"] == "auto":
            return default_nu(self.values["world.D"])
        return float(self.values["reward.nu"])

    @property
    def sigma(self):
        diag = self.values["world.sigma_diag"]
        return np.diag(diag) if diag else None

    def schedule(self) -> DiffusionSchedule:
        return DiffusionSchedule(
            self.values["schedule.T"], self.values["schedule.t0"],
            self.values["schedule.eta"],
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            batch_size=self.values["score.batch_size"],
            epochs=self.values["score.epochs"],
            learning_rate=self.values["score.learning_rate"],
            lr_decay=self.values["score.lr_decay"],
            seed=seed,
        )

    def digest(self) -> str:
        return sha256_text(json.dumps(self.values, sort_keys=True))


def load_config(path=None) -> RunConfig:
    """Load a UTF-8 config file; ``None`` gives the documented defaults."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return RunConfig(values=parse_config_text(text))


def describe_schema() -> str:
    lines = ["known keys (key = default  # description):"]
    for key, (_, default, desc) in SCHEMA.items():
        lines.append(f"  {key} = {default}  # {desc}")
    return "\n".join(lines)
