"""Random potentials indexed by edges of the integer height axis.

The environment is a family (omega_k) indexed by integers k, where k
stands for the height-axis edge {k, k+1}.  A lattice edge whose endpoint
heights are z and z+1 feels omega_z.  Only a finite window [lo, hi] of
indices is ever materialized; values outside raise.

Draws are counter-based: the value at index k depends only on
(model, draw, k), never on the window requested, so enlarging or
shifting a window reproduces the same values on the overlap.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Potential",
    "PotentialModel",
    "parse_model",
    "sample_potential",
    "shift_even",
    "c_omega",
    "enumerate_potentials",
]

# Counter positions for index k start at k + 2^62, keeping every index of
# practical size inside the Philox counter range on both sides of zero.
_POSITION_OFFSET = 1 << 62


@dataclass(frozen=True)
class Potential:
    """Realized finite potential values on the index window [lo, hi]."""

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (self.hi - self.lo + 1,):
            raise ValueError(
                f"window [{self.lo}, {self.hi}] needs "
                f"{self.hi - self.lo + 1} values, got shape {arr.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(
                f"potential on window [{self.lo}, {self.hi}] has the "
                f"non-finite value {arr[bad[0]]} at index {self.lo + bad[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def value(self, k: int) -> float:
        if not self.lo <= k <= self.hi:
            raise IndexError(
                f"index {k} outside potential window [{self.lo}, {self.hi}]"
            )
        return float(self.values[k - self.lo])

    def values_at(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and (ks.min() < self.lo or ks.max() > self.hi):
            raise IndexError(
                f"indices outside potential window [{self.lo}, {self.hi}]"
            )
        return self.values[ks - self.lo]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Potential)
            and self.window == other.window
            and np.array_equal(self.values, other.values)
        )


_MODEL_RE = re.compile(
    r"^(?P<kind>zero|uniform|twopoint)"
    r"(?::(?P<pname>[ab])=(?P<pval>[-+0-9.eE]+))?$"
)


@dataclass(frozen=True)
class PotentialModel:
    """A distribution over potentials plus its base seed.

    kinds: 'zero' (omega = 0), 'uniform' (iid Uniform[-b, b]), and
    'twopoint' (iid +-a with probability 1/2 each).
    """

    kind: str
    param: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform", "twopoint"):
            raise ValueError(f"unknown potential model kind {self.kind!r}")
        if self.kind == "zero":
            if self.param != 0.0:
                raise ValueError("zero model takes no parameter")
        elif not (self.param > 0 and math.isfinite(self.param)):
            raise ValueError(
                f"{self.kind} model needs a positive finite parameter, "
                f"got {self.param}"
            )
        if not 0 <= int(self.seed) < 2**63:
            raise ValueError(f"seed must be a nonnegative int64, got {self.seed}")

    def with_seed(self, seed: int) -> "PotentialModel":
        return PotentialModel(self.kind, self.param, seed)

    def spec_string(self) -> str:
        if self.kind == "zero":
            return "zero"
        letter = "b" if self.kind == "uniform" else "a"
        return f"{self.kind}:{letter}={self.param:g}"

    @property
    def bound(self) -> float:
        """Almost-sure bound on |omega|; also equals c_omega's ceiling."""
        return 0.0 if self.kind == "zero" else float(self.param)


def parse_model(text: str, seed: int = 0) -> PotentialModel:
    """Parse 'zero', 'uniform:b=<float>', or 'twopoint:a=<float>'."""
    m = _MODEL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse potential model {text!r}")
    kind = m.group("kind")
    pname, pval = m.group("pname"), m.group("pval")
    if kind == "zero":
        if pname is not None:
            raise ValueError("zero model takes no parameter")
        return PotentialModel("zero", 0.0, seed)
    expected = "b" if kind == "uniform" else "a"
    if pname != expected:
        raise ValueError(
            f"{kind} model takes parameter {expected}=, got {text!r}"
        )
    return PotentialModel(kind, float(pval), seed)


def _uniform_words(model: PotentialModel, draw: int, lo: int, hi: int) -> np.ndarray:
    """iid Uniform[0,1) at indices lo..hi, counter-addressed.

    One 64-bit Philox word per index; the stream is keyed by
    (seed, draw) and positioned at the absolute index of ``lo``, so the
    value at any index is independent of the window bounds.  Philox
    advances in 4-word counter blocks, so position = block * 4 + offset.
    """
    if draw < 0:
        raise ValueError(f"draw must be >= 0, got {draw}")
    key = np.random.SeedSequence(entropy=(int(model.seed), int(draw)))
    bitgen = np.random.Philox(key=key.generate_state(2, np.uint64))
    blocks, within = divmod(_POSITION_OFFSET + lo, 4)
    bitgen.advance(blocks)
    gen = np.random.Generator(bitgen)
    if within:
        gen.random(within)  # discard to reach the in-block offset
    return gen.random(hi - lo + 1)


def sample_potential(
    model: PotentialModel, window: tuple[int, int], draw: int = 0
) -> Potential:
    """Draw the potential on ``window``; (model, draw, index) fixes each value."""
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    if model.kind == "zero":
        return Potential(lo, hi, np.zeros(hi - lo + 1))
    u = _uniform_words(model, draw, lo, hi)
    if model.kind == "uniform":
        return Potential(lo, hi, (2.0 * u - 1.0) * model.param)
    return Potential(lo, hi, np.where(u < 0.5, -model.param, model.param))


def shift_even(p: Potential, z: int) -> Potential:
    """The potential k -> p(k + z) for even z (parity-preserving reindex)."""
    z = int(z)
    if z % 2 != 0:
        raise ValueError(f"shift must be even, got {z}")
    return Potential(p.lo - z, p.hi - z, p.values)


def c_omega(p: Potential) -> float:
    """max(1, sup |omega|) over the materialized window."""
    return max(1.0, float(np.max(np.abs(p.values))))


_ENUMERATION_CAP = 16  # widest window whose 2^W potentials are listed


def _check_finite_support(model: PotentialModel) -> None:
    """Reject a model whose potentials cannot all be listed ('uniform')."""
    if model.kind not in ("zero", "twopoint"):
        raise ValueError(
            f"model {model.kind!r} has no finite support to enumerate"
        )


def enumerate_potentials(
    model: PotentialModel, window: tuple[int, int]
) -> list[tuple[Potential, float]]:
    """All potentials of a finite-support model with their probabilities.

    Supported for 'twopoint' (2^W outcomes, minus sign first at each
    index) and 'zero' (a single outcome).  Windows wider than
    ``_ENUMERATION_CAP`` indices raise rather than enumerate.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError(f"empty window [{lo}, {hi}]")
    width = hi - lo + 1
    if model.kind == "zero":
        return [(Potential(lo, hi, np.zeros(width)), 1.0)]
    _check_finite_support(model)
    if width > _ENUMERATION_CAP:
        raise ValueError(
            f"window width {width} exceeds enumeration cap {_ENUMERATION_CAP}"
        )
    prob = 0.5**width
    out = []
    for signs in itertools.product((-1.0, 1.0), repeat=width):
        out.append(
            (Potential(lo, hi, model.param * np.asarray(signs)), prob)
        )
    return out
