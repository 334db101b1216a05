"""System parameters, their derived quantities, and their validation.

All core computation works with the linear-scale average SNR lambda_s;
dB enters only at the CLI boundary via db_to_linear / linear_to_db.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .channel import largest_unit_draw
from .errors import InvalidAntennaCount, InvalidRange, IoError


@dataclass(frozen=True)
class ModulationParams:
    """Constants (alpha, beta) of the conditional SER map alpha*Q(sqrt(beta*gamma))."""

    alpha_mod: float = 1.0
    beta_mod: float = 2.0


BPSK = ModulationParams(alpha_mod=1.0, beta_mod=2.0)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable system configuration, checked by validate_config when built:
    an invalid value raises InvalidAntennaCount or InvalidRange.

    n_a, n_b: antenna counts at the two nodes (>= 2 each).
    lambda_s: linear-scale average SNR (> 0).
    eta:      residual self-interference coefficient in [0, 1);
              the average INR is eta * lambda_s.
    w:        weight of the A->B direction, in (0, 1).
    """

    n_a: int
    n_b: int
    lambda_s: float
    eta: float
    w: float
    modulation: ModulationParams = field(default_factory=lambda: BPSK)

    def __post_init__(self):
        validate_config(self)
        for name in ("n_a", "n_b"):  # plain ints: exact integer arithmetic, one cache key per size
            object.__setattr__(self, name, int(getattr(self, name)))

    @property
    def nn(self) -> int:
        return self.n_a * self.n_b

    @property
    def lambda_i(self) -> float:
        """The average INR, eta * lambda_s."""
        return self.eta * self.lambda_s

    @property
    def scale(self) -> float:
        """1/(lambda_i + 1), in (0, 1]: an SNR times scale is its obtainable
        SINR, an order-preserving map."""
        return 1.0 / (self.lambda_i + 1.0)


def validate_config(raw: SystemConfig) -> SystemConfig:
    """Check all invariants; returns the config unchanged when valid."""
    if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (raw.n_a, raw.n_b)):
        raise InvalidAntennaCount(f"need a whole number of at least 2 antennas per node, "
                                  f"got n_a={raw.n_a}, n_b={raw.n_b}")
    top = largest_unit_draw(raw.n_a, raw.n_b)  # lambda_s * top is the largest draw
    if not (0 < raw.lambda_s and raw.lambda_s * top < math.inf):
        raise InvalidRange(f"lambda_s must be positive, with lambda_s * {top:.6g} finite, "
                           f"got {raw.lambda_s}")
    if not 0 <= raw.eta < 1:
        raise InvalidRange(f"eta must lie in [0, 1), got {raw.eta}")
    if not 0 < raw.w < 1:
        raise InvalidRange(f"w must lie in (0, 1), got {raw.w}")
    if not all(0 < v < math.inf for v in (raw.modulation.alpha_mod, raw.modulation.beta_mod)):
        raise InvalidRange(f"modulation constants must be positive and finite, got {raw.modulation}")
    return raw


def db_to_linear(x_db: float) -> float:
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise InvalidRange(f"{x_db} dB overflows a float on the linear scale") from None


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise InvalidRange(f"cannot convert nonpositive value {x} to dB")
    return 10.0 * math.log10(x)


_CONFIG_KEYS = {"n_a", "n_b", "lambda_s", "snr_db", "eta", "w", "alpha_mod", "beta_mod"}


def load_config(path: str) -> SystemConfig:
    """Read a SystemConfig from a flat key-value text file.

    Lines look like ``key = value``; '#' starts a comment.  Either
    ``lambda_s`` (linear) or ``snr_db`` may be given for the average SNR.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidRange(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise InvalidRange(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidRange(f"{path}:{lineno}: repeated key {key!r}")
        try:
            values[key] = float(val)
        except ValueError:
            raise InvalidRange(f"{path}:{lineno}: {key} must be a number, got {val.strip()!r}") from None

    if "snr_db" in values and "lambda_s" in values:
        raise InvalidRange("give either lambda_s or snr_db, not both")
    if "snr_db" in values:
        values["lambda_s"] = db_to_linear(values.pop("snr_db"))
    for required in ("n_a", "n_b", "lambda_s", "eta", "w"):
        if required not in values:
            raise InvalidRange(f"missing config key {required!r}")

    for count in ("n_a", "n_b"):
        if not values[count].is_integer():
            raise InvalidRange(f"{count} must be a whole number, got {values[count]}")

    mod = BPSK
    if "alpha_mod" in values or "beta_mod" in values:
        mod = ModulationParams(
            alpha_mod=values.get("alpha_mod", BPSK.alpha_mod),
            beta_mod=values.get("beta_mod", BPSK.beta_mod),
        )
    return SystemConfig(
        n_a=int(values["n_a"]),
        n_b=int(values["n_b"]),
        lambda_s=values["lambda_s"],
        eta=values["eta"],
        w=values["w"],
        modulation=mod,
    )
