"""Flat `key = value` run configuration.

One namespace covers the model hyperparameters, the training loop, the data
split, and the output location. Unknown keys are rejected by name. A run's
fully-resolved config is rendered back to the same format and written next
to its outputs, so any run can be reproduced from that file alone.
"""

import hashlib
import math
from dataclasses import fields, make_dataclass
from typing import Literal, get_args, get_origin

from .model import HyperParams
from .trainer import TrainConfig


def _as_bool(s):
    low = str(s).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _as_opt_int(s):
    low = str(s).strip().lower()
    if low in ("", "none"):
        return None
    return int(s)


def _as_finite(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {s!r}")
    return v


def _as_threshold(s):
    s = str(s).strip()
    if s == "adaptive":
        return s
    return _as_finite(s)


# value parser per declared field type; a Literal type takes one of its values
_PARSERS = {int: int, float: _as_finite, str: str, bool: _as_bool,
            int | None: _as_opt_int, float | str: _as_threshold}


def _parse(tp, s):
    """The value of declared type `tp` written as the config string `s`."""
    if get_origin(tp) is Literal:
        s = str(s).strip()
        if s not in get_args(tp):
            raise ValueError(f"expected {' or '.join(get_args(tp))}, got {s!r}")
        return s
    return _PARSERS[tp](s)


def _cutoffs(s):
    """Sorted distinct cutoffs of a comma list of positive ints such as '20,50'."""
    toks = [tok.strip() for tok in str(s).split(",") if tok.strip()]
    for tok in toks:
        if not tok.isdigit() or int(tok) < 1:
            raise ValueError(f"expected a comma list of positive ints, got {tok!r}")
    if not toks:
        raise ValueError("cutoffs is empty")
    return tuple(sorted({int(tok) for tok in toks}))


def _check_holdout_frac(v):
    if not 0.0 < v < 1.0:
        raise ValueError(f"must be in (0, 1), got {v!r}")


def _check_ratio(v):
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"must be in [0, 1], got {v!r}")


def _check_seed(v):
    if v < 0:
        raise ValueError(f"must be >= 0, got {v}")


def _check_diag_k(v):
    if v is not None and v < 2:
        raise ValueError(f"must be none or >= 2, got {v}")


# range checks of parsed values, by key; a failed check names its key in resolve
_CHECKS = {"seed": _check_seed, "train_ratio": _check_ratio,
           "valid_ratio": _check_ratio, "test_ratio": _check_ratio,
           "holdout_frac": _check_holdout_frac, "cutoffs": _cutoffs,
           "diag_k": _check_diag_k}


class _RunConfigMethods:
    """What a RunConfig builds from its keys; the keys are declared below."""

    def _build(self, cls, **extra):
        """cls built from this config's same-named fields, plus `extra`."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name not in extra}
        return cls(**shared, **extra)

    def hyperparams(self):
        return self._build(HyperParams)

    def train_config(self, checkpoint_path="", log_path=""):
        return self._build(TrainConfig, checkpoint_path=checkpoint_path,
                           log_path=log_path)

    def split_kwargs(self):
        return dict(
            ratios=(self.train_ratio, self.valid_ratio, self.test_ratio),
            seed=self.seed, min_interactions=self.min_interactions,
            holdout_frac=self.holdout_frac,
        )

    def cutoff_list(self):
        return _cutoffs(self.cutoffs)


def _keys_of(cls, skip=()):
    return [(f.name, f.type, f.default) for f in fields(cls) if f.name not in skip]


# Key order (data, model, training, evaluation) is render order, so it is part
# of config_hash. The model and training keys are the fields of HyperParams and
# TrainConfig; `seed` is a data key, and the CLI sets the two output paths.
RunConfig = make_dataclass("RunConfig", [
    ("dataset", str, ""),
    ("output_dir", str, "run"),
    ("seed", int, 0),
    ("train_ratio", float, 0.8),
    ("valid_ratio", float, 0.1),
    ("test_ratio", float, 0.1),
    ("min_interactions", int, 5),
    ("holdout_frac", float, 0.2),
    *_keys_of(HyperParams),
    *_keys_of(TrainConfig, skip=("seed", "checkpoint_path", "log_path")),
    ("cutoffs", str, "20,50"),
    ("diag_k", int | None, None),
    ("diag_init", Literal["kmeanspp", "user_interests"], "kmeanspp"),
], bases=(_RunConfigMethods,), namespace={"__module__": __name__})

_KEY_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_text(text, source="<config>"):
    """Flat `key = value` lines into a raw string dict; comments start with #."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}: line {lineno}: expected `key = value`, "
                             f"got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ValueError(f"{source}: line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{source}: line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def apply_overrides(raw, overrides):
    """--set key=value pairs; later overrides win, unknown keys rejected."""
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = value.strip()
    return out


def resolve(raw):
    """Typed RunConfig from raw strings; casting and range errors name the key."""
    kwargs = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _parse(_KEY_TYPES[key], value)
            if key in _CHECKS:
                _CHECKS[key](kwargs[key])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path, overrides=()):
    with open(path, encoding="utf-8") as fh:
        raw = parse_config_text(fh.read(), source=path)
    return resolve(apply_overrides(raw, overrides))


def default_config(overrides=()):
    return resolve(apply_overrides({}, overrides))


def _format_value(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render(config):
    """Fully-resolved config back in flat form, stable field order."""
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def config_hash(config):
    """Short digest of the resolved config; goes into report records."""
    return hashlib.sha256(render(config).encode("utf-8")).hexdigest()[:12]
