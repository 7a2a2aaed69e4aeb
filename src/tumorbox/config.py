"""Run configuration: the single documented layer of numeric defaults.

Every tunable knob lives in one of two dataclasses
(ClusterConfig, ExtractParams) composed into RunConfig.
Values resolve with precedence: explicit CLI flag > JSON config file >
dataclass default, and are checked once, when the RunConfig is built.
``extract``, ``eval`` and ``atlas build`` read a config file; ``phantom``
reads none (its cases come from its flags).
"""

import dataclasses
import sys
import typing
from dataclasses import dataclass, field, replace

from .clustering import DEFAULT_SEED, METHOD_EM, METHOD_KMEANS, ClusterConfig
from .errors import ConfigurationError, ValidationError
from .pipeline import ExtractParams

METHODS = (METHOD_EM, METHOD_KMEANS)


def _check_type(key: str, value, ftype):
    """Return ``value`` if it fits the field annotation ``ftype``, else raise.

    Booleans are not accepted as numbers, ints are accepted (and converted)
    where a float is expected, NaN and infinities are not, and a list of any
    length is accepted for a ``tuple[int, ...]``.
    """
    if typing.get_origin(ftype) is tuple:
        item = typing.get_args(ftype)[0]
        if isinstance(value, (list, tuple)):
            return tuple(_check_type(key, v, item) for v in value)
        expected = f"a list of {item.__name__}"
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
    ``cluster.k`` is not a setting: it is pinned to 5 for the tumor map.
    """

    method: str = METHOD_EM
    seed: int = DEFAULT_SEED
    strict: bool = False
    loo: bool = False
    jobs: int = 1
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    extract: ExtractParams = field(default_factory=ExtractParams)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        if self.method not in METHODS:
            raise ConfigurationError(
                f"config key 'method' must be one of {', '.join(METHODS)}, got {self.method!r}"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"config key 'jobs' must be >= 1, got {self.jobs}")
        if self.jobs > 1:
            # Imported here: only forked workers need it, and every CLI
            # start-up would pay for it.
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                raise ConfigurationError(
                    f"config key 'jobs' must be 1 on this platform, which cannot fork "
                    f"worker processes; got {self.jobs}"
                )
        if self.seed < 0:
            raise ConfigurationError(f"config key 'seed' must be >= 0, got {self.seed}")
        object.__setattr__(self, "cluster", replace(self.cluster, seed=self.seed, k=5))
        object.__setattr__(self, "extract", replace(self.extract, strict=self.strict))


_NESTED = {"cluster": ClusterConfig, "extract": ExtractParams}
_TOP_LEVEL = {f.name for f in dataclasses.fields(RunConfig)} - set(_NESTED)


def _build_section(section: str, values: dict):
    shadowed = sorted(set(values) & _TOP_LEVEL)
    if shadowed:
        raise ConfigurationError(
            f"config key '{section}.{shadowed[0]}' is not allowed; "
            f"set {shadowed[0]!r} at the top level"
        )
    if section == "cluster" and "k" in values:
        raise ConfigurationError(
            "config key 'cluster.k' is not allowed; it is always 5, since the tumor map reads classes 5 and 4"
        )
    cls = _NESTED[section]
    types_by_name = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(values) - set(types_by_name)
    if unknown:
        raise ConfigurationError(f"unknown {section} config key(s): {', '.join(sorted(unknown))}")
    checked = {key: _check_type(f"{section}.{key}", value, types_by_name[key]) for key, value in values.items()}
    try:
        return cls(**checked)
    except ValidationError as exc:
        raise ConfigurationError(f"config section {section!r}: {exc}") from exc


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
