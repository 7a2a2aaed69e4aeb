"""Run configuration: the single documented layer of numeric defaults.

Every tunable knob lives in one of three dataclasses
(ClusterConfig, ExtractParams, EnhanceParams) composed into RunConfig.
Values resolve with precedence: explicit CLI flag > JSON config file >
dataclass default, and are checked once, when the RunConfig is built.
"""

import dataclasses
import json
import multiprocessing
import sys
import typing
from dataclasses import dataclass, field, replace

from .clustering import DEFAULT_SEED, METHOD_EM, METHOD_KMEANS, ClusterConfig
from .errors import ConfigurationError, FormatError, ValidationError
from .pipeline import ExtractParams
from .preprocess import EnhanceParams

FORMULA_STANDARD = "standard"
FORMULA_PAPER_UNION = "paper-union"
DICE_FORMULAS = (FORMULA_STANDARD, FORMULA_PAPER_UNION)
METHODS = (METHOD_EM, METHOD_KMEANS)


def _check_type(key: str, value, ftype):
    """Return ``value`` if it fits the field annotation ``ftype``, else raise.

    Booleans are not accepted as numbers, ints are accepted (and converted)
    where a float is expected, NaN and infinities are not, and a list is
    accepted for a tuple.
    """
    if typing.get_origin(ftype) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_check_type(key, v, typing.get_args(ftype)[0]) for v in value)
        expected = f"a list of {typing.get_args(ftype)[0].__name__}"
    elif ftype is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:  # not NaN, an infinity or a huge int
                return float(value)
            expected = "a finite number"
        else:
            expected = "a number"
    else:
        if isinstance(value, ftype) and not (ftype is int and isinstance(value, bool)):
            return value
        expected = ftype.__name__
    raise ConfigurationError(f"config key {key!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """All settings of one run, checked on construction.

    ``seed`` and ``strict`` are set here only: construction copies them into
    ``cluster.seed`` and ``extract.strict``, where the stages read them.
    """

    method: str = METHOD_EM
    seed: int = DEFAULT_SEED
    dice_formula: str = FORMULA_STANDARD
    strict: bool = False
    loo: bool = False
    jobs: int = 1
    cluster_background: bool = False
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    extract: ExtractParams = field(default_factory=ExtractParams)
    enhance: EnhanceParams = field(default_factory=EnhanceParams)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        for key, allowed in (("method", METHODS), ("dice_formula", DICE_FORMULAS)):
            if getattr(self, key) not in allowed:
                raise ConfigurationError(
                    f"config key {key!r} must be one of {', '.join(allowed)}, "
                    f"got {getattr(self, key)!r}"
                )
        if self.jobs < 1:
            raise ConfigurationError(f"config key 'jobs' must be >= 1, got {self.jobs}")
        if self.jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"config key 'jobs' must be 1 on this platform, which cannot fork "
                f"worker processes; got {self.jobs}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"config key 'seed' must be >= 0, got {self.seed}")
        if self.cluster.k != 5:
            raise ConfigurationError(
                f"config key 'cluster.k' must be 5, since the tumor map reads "
                f"classes 5 and 4; got {self.cluster.k}"
            )
        object.__setattr__(self, "cluster", replace(self.cluster, seed=self.seed))
        object.__setattr__(self, "extract", replace(self.extract, strict=self.strict))


_NESTED = {"cluster": ClusterConfig, "extract": ExtractParams, "enhance": EnhanceParams}
_TOP_LEVEL = {f.name for f in dataclasses.fields(RunConfig)} - set(_NESTED)


def _build_section(section: str, values: dict):
    cls = _NESTED[section]
    types_by_name = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(values) - set(types_by_name)
    if unknown:
        raise ConfigurationError(
            f"unknown {section} config key(s): {', '.join(sorted(unknown))}"
        )
    shadowed = sorted(set(values) & _TOP_LEVEL)
    if shadowed:
        raise ConfigurationError(
            f"config key '{section}.{shadowed[0]}' is not allowed; "
            f"set {shadowed[0]!r} at the top level"
        )
    checked = {
        key: _check_type(f"{section}.{key}", value, types_by_name[key])
        for key, value in values.items()
    }
    try:
        return cls(**checked)
    except ValidationError as exc:
        raise ConfigurationError(f"config section {section!r}: {exc}") from exc


def load_config_file(path) -> dict:
    """The JSON object in ``path``, read as UTF-8 with or without a BOM."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"malformed config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"config file {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    return payload


def build_run_config(file_cfg: dict | None = None, flags: dict | None = None) -> RunConfig:
    """Resolve a RunConfig from defaults, a config file dict, and CLI flags.

    ``flags`` entries with value None are treated as "not given". Nested
    flag keys use dotted names, e.g. ``extract.bbox_margin``.
    """
    merged: dict = {section: {} for section in _NESTED}
    for key, value in (file_cfg or {}).items():
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ConfigurationError(f"config section {key!r} must be an object")
            merged[key].update(value)
        else:
            merged[key] = value
    for key, value in (flags or {}).items():
        if value is not None:
            section, _, name = key.rpartition(".")
            (merged[section] if section else merged)[name] = value
    unknown = set(merged) - _TOP_LEVEL - set(_NESTED)
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for section in _NESTED:
        merged[section] = _build_section(section, merged[section])
    return RunConfig(**merged)
