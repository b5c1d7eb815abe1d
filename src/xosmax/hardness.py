"""Hidden-instance families with planted optima for query lower-bound studies.

Three families, each evaluated in closed form from bit counts (never by
materializing a weight table) and each deterministic given its parameters
and seed; planted sets are drawn by the same exactly-uniform sampler the
solvers use, so serialized instances store only (params, seed) and never
leak the planted set.

* needle(n_hat, s, t): f(X) = 1 iff X is inside a hidden s-element set and
  |X| >= t, else 0. Any querier needs on the order of (n_hat/s)^t queries to
  find a 1-valued set, because each fixed query of size >= t hits the hidden
  set with probability at most (s/n_hat)^t.
* hard_general(n, tau): f(X) = max(tau*[X nonempty], |X & S| - n*|X \\ S|)
  for a hidden half-size set S. Equivalently f(X) = |X| when X is inside S
  and larger than tau, 0 on the empty set, and tau otherwise, so every query
  outside S is uninformative; width n+1 as an explicit representation. The
  remark variant replaces the indicator with a floor: f(X) = max(g(X), tau)
  for the additive g that is +1 on S and -n off S (note f(empty) = tau).
* hard_kxos(k, n_tilde, a): width exactly k, ground blocks V_1..V_{k-1} of
  sizes n_tilde^i, hidden S_i inside V_i of size (n_tilde - a)*n_tilde^(i-1).
  Components i < k pay n_tilde^(k-i) per element of V_i; component k pays
  (n_tilde - a)*n_tilde^(k-i-1) on S_i and -n_tilde^(k+1) elsewhere. The
  planted set union(S_i) has value (k-1)*(n_tilde - a)^2*n_tilde^(k-2),
  which beats every single component's maximum n_tilde^k exactly when
  (k-1)*(n_tilde - a)^2 >= n_tilde^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .core import (
    INT64_MAX,
    AdditiveFunction,
    CountingOracle,
    GroundSet,
    InstanceFormatError,
    MAX_GROUND_SIZE,
    SolveReport,
    XosRepresentation,
    first_max,
)
from .rng import SplitMix64, sample_mask

_SEED_LIMIT = 1 << 64


def _check_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
        raise InstanceFormatError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return seed


@dataclass(frozen=True)
class NeedleInstance:
    """Hidden threshold function: 1 inside the planted set at size >= t."""

    n_hat: int
    s: int
    t: int
    seed: int
    planted: int = field(init=False)

    kind = "needle"
    width = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_hat <= MAX_GROUND_SIZE:
            raise InstanceFormatError(f"n_hat must be in [1, {MAX_GROUND_SIZE}]")
        if not 1 <= self.s <= self.n_hat:
            raise InstanceFormatError("s must satisfy 1 <= s <= n_hat")
        if not 1 <= self.t <= self.s:
            raise InstanceFormatError("t must satisfy 1 <= t <= s")
        _check_seed(self.seed)
        object.__setattr__(
            self, "planted", sample_mask(self.n_hat, self.s, SplitMix64(self.seed))
        )

    @property
    def n(self) -> int:
        return self.n_hat

    def evaluate(self, mask: int) -> int:
        if mask & ~self.planted:
            return 0
        return 1 if mask.bit_count() >= self.t else 0

    def oracle(self) -> CountingOracle:
        return CountingOracle(GroundSet(self.n_hat), self.evaluate)

    def planted_optimum(self) -> tuple[int, int]:
        return self.planted, 1

    def to_json_dict(self) -> dict:
        return {
            "type": "needle",
            "params": {"n_hat": self.n_hat, "s": self.s, "t": self.t},
            "seed": self.seed,
        }


@dataclass(frozen=True)
class HardGeneralInstance:
    """Hidden half-size set S; informative values only inside S.

    ``remark`` switches to the max(additive, floor) variant, which is not
    normalized (f(empty) = tau) and has no max-of-additive representation.
    """

    n: int
    tau: int
    seed: int
    remark: bool = False
    planted: int = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and 2 <= self.n <= MAX_GROUND_SIZE and self.n % 2 == 0):
            raise InstanceFormatError(f"n must be even and in [2, {MAX_GROUND_SIZE}], got {self.n}")
        if not (isinstance(self.tau, int) and self.tau >= 1):
            raise InstanceFormatError("tau must be an integer >= 1")
        if 2 * self.tau >= self.n:
            raise InstanceFormatError("need 2*tau < n so the planted set beats the floor")
        _check_seed(self.seed)
        object.__setattr__(
            self, "planted", sample_mask(self.n, self.n // 2, SplitMix64(self.seed))
        )

    @property
    def kind(self) -> str:
        return "hard_general_remark" if self.remark else "hard_general"

    @property
    def width(self) -> int | None:
        return None if self.remark else self.n + 1

    def evaluate(self, mask: int) -> int:
        inside = (mask & self.planted).bit_count()
        outside = mask.bit_count() - inside
        additive = inside - self.n * outside
        if self.remark:
            return max(additive, self.tau)
        if mask == 0:
            return 0
        return max(additive, self.tau)

    def oracle(self) -> CountingOracle:
        return CountingOracle(GroundSet(self.n), self.evaluate)

    def planted_optimum(self) -> tuple[int, int]:
        return self.planted, self.n // 2

    def additive_part(self) -> AdditiveFunction:
        """The additive g (+1 on S, -n off S); used by the remark variant."""
        return AdditiveFunction(
            tuple(1 if (self.planted >> v) & 1 else -self.n for v in range(self.n))
        )

    def representation(self) -> XosRepresentation:
        """Width-(n+1) explicit form of the standard variant.

        One component per element paying tau on that element alone (their
        max supplies tau on every nonempty set), plus the additive g.
        """
        if self.remark:
            raise InstanceFormatError("the remark variant has no max-of-additive form")
        comps = []
        for i in range(self.n):
            w = [0] * self.n
            w[i] = self.tau
            comps.append(AdditiveFunction(tuple(w)))
        comps.append(self.additive_part())
        return XosRepresentation(GroundSet(self.n), tuple(comps))

    def to_json_dict(self) -> dict:
        return {
            "type": self.kind,
            "params": {"n": self.n, "tau": self.tau},
            "seed": self.seed,
        }


@dataclass(frozen=True)
class HardKxosInstance:
    """Width-k blocked construction with a planted high-value set."""

    k: int
    n_tilde: int
    a: int
    seed: int
    blocks: tuple[int, ...] = field(init=False)
    s_masks: tuple[int, ...] = field(init=False)

    kind = "hard_kxos"

    def __post_init__(self) -> None:
        k, nt, a = self.k, self.n_tilde, self.a
        if not (isinstance(k, int) and k >= 3):
            raise InstanceFormatError("k must be an integer >= 3")
        if not (isinstance(nt, int) and nt >= 2):
            raise InstanceFormatError("n_tilde must be an integer >= 2")
        if not (isinstance(a, int) and 1 <= a < nt):
            raise InstanceFormatError("a must satisfy 1 <= a < n_tilde")
        total = sum(nt**i for i in range(1, k))
        if total > MAX_GROUND_SIZE:
            raise InstanceFormatError(
                f"blocks sum to {total} elements; ground size is capped at {MAX_GROUND_SIZE}"
            )
        if nt ** (k + 1) > INT64_MAX:
            raise InstanceFormatError("weights exceed the signed 64-bit range")
        _check_seed(self.seed)
        blocks = []
        s_masks = []
        rng = SplitMix64(self.seed)
        offset = 0
        for i in range(1, k):
            size = nt**i
            block = ((1 << size) - 1) << offset
            s_size = (nt - a) * nt ** (i - 1)
            s_local = sample_mask(size, s_size, rng)
            blocks.append(block)
            s_masks.append(s_local << offset)
            offset += size
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "s_masks", tuple(s_masks))

    @property
    def n(self) -> int:
        return sum(self.n_tilde**i for i in range(1, self.k))

    @property
    def width(self) -> int:
        return self.k

    @property
    def planted(self) -> int:
        m = 0
        for s in self.s_masks:
            m |= s
        return m

    def evaluate(self, mask: int) -> int:
        k, nt = self.k, self.n_tilde
        best = 0
        for i in range(1, k):
            v = nt ** (k - i) * (mask & self.blocks[i - 1]).bit_count()
            if v > best:
                best = v
        planted = self.planted
        last = -(nt ** (k + 1)) * (mask & ~planted).bit_count()
        for i in range(1, k):
            last += (nt - self.a) * nt ** (k - i - 1) * (mask & self.s_masks[i - 1]).bit_count()
        return max(best, last)

    def oracle(self) -> CountingOracle:
        return CountingOracle(GroundSet(self.n), self.evaluate)

    @property
    def planted_is_optimal(self) -> bool:
        """Planted value >= every per-component maximum n_tilde^k."""
        return (self.k - 1) * (self.n_tilde - self.a) ** 2 >= self.n_tilde**2

    def planted_value(self) -> int:
        return (self.k - 1) * (self.n_tilde - self.a) ** 2 * self.n_tilde ** (self.k - 2)

    def planted_optimum(self) -> tuple[int, int]:
        if not self.planted_is_optimal:
            raise ValueError(
                "planted set is not a maximizer for these parameters: "
                f"(k-1)*(n_tilde-a)^2 = {(self.k - 1) * (self.n_tilde - self.a) ** 2} "
                f"< n_tilde^2 = {self.n_tilde**2}"
            )
        return self.planted, self.planted_value()

    def representation(self) -> XosRepresentation:
        """Materialized width-k form; agrees with the closed-form evaluator."""
        k, nt, n = self.k, self.n_tilde, self.n
        comps = []
        for i in range(1, k):
            w = [0] * n
            for v in range(n):
                if (self.blocks[i - 1] >> v) & 1:
                    w[v] = nt ** (k - i)
            comps.append(AdditiveFunction(tuple(w)))
        last = [-(nt ** (k + 1))] * n
        for i in range(1, k):
            coeff = (nt - self.a) * nt ** (k - i - 1)
            for v in range(n):
                if (self.s_masks[i - 1] >> v) & 1:
                    last[v] = coeff
        comps.append(AdditiveFunction(tuple(last)))
        return XosRepresentation(GroundSet(n), tuple(comps))

    def to_json_dict(self) -> dict:
        return {
            "type": "hard_kxos",
            "params": {"k": self.k, "n_tilde": self.n_tilde, "a": self.a},
            "seed": self.seed,
        }


HiddenInstance = Union[NeedleInstance, HardGeneralInstance, HardKxosInstance]


def gen_needle(n_hat: int, s: int, t: int, seed: int) -> NeedleInstance:
    return NeedleInstance(n_hat, s, t, seed)


def gen_hard_general(n: int, tau: int, seed: int, remark_variant: bool = False) -> HardGeneralInstance:
    return HardGeneralInstance(n, tau, seed, remark=remark_variant)


def gen_hard_kxos(k: int, n_tilde: int, a: int, seed: int) -> HardKxosInstance:
    return HardKxosInstance(k, n_tilde, a, seed)


def planted_optimum(instance: HiddenInstance) -> tuple[int, int]:
    """(planted set, its value); raises when the planted set is not a maximizer."""
    return instance.planted_optimum()


def parse_hidden(doc: dict) -> HiddenInstance:
    """Parse a hidden-instance document {"type", "params", "seed"}."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    kind = doc.get("type")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise InstanceFormatError("hidden instance needs an object field 'params'")
    seed = doc.get("seed")
    _check_seed(seed)

    def take(keys: tuple[str, ...]) -> list[int]:
        got = set(params)
        if got != set(keys):
            raise InstanceFormatError(f"{kind} params must be exactly {sorted(keys)}, got {sorted(got)}")
        vals = []
        for key in keys:
            v = params[key]
            if isinstance(v, bool) or not isinstance(v, int):
                raise InstanceFormatError(f"param {key!r} must be an integer")
            vals.append(v)
        return vals

    if kind == "needle":
        n_hat, s, t = take(("n_hat", "s", "t"))
        return NeedleInstance(n_hat, s, t, seed)
    if kind in ("hard_general", "hard_general_remark"):
        n, tau = take(("n", "tau"))
        return HardGeneralInstance(n, tau, seed, remark=(kind == "hard_general_remark"))
    if kind == "hard_kxos":
        k, n_tilde, a = take(("k", "n_tilde", "a"))
        return HardKxosInstance(k, n_tilde, a, seed)
    raise InstanceFormatError(f"unknown hidden instance type {kind!r}")


def uniform_size_probe(oracle: CountingOracle, size: int, queries: int, seed: int) -> SolveReport:
    """Query ``queries`` uniform random subsets of a fixed size; keep the best.

    This is the natural probing strategy against a needle instance (only
    sizes >= t can score, and size t maximizes hits per query); each query
    hits a hidden s-subset with probability C(s, size)/C(n, size). With zero
    queries the report is (empty set, 0) without touching the oracle.
    """
    n = oracle.n
    if not 1 <= size <= n:
        raise ValueError(f"probe size must be in [1, {n}], got {size}")
    if queries < 0:
        raise ValueError("queries must be >= 0")
    start_calls = oracle.calls
    rng = SplitMix64(seed)
    masks = (sample_mask(n, size, rng) for _ in range(queries))
    best_mask, best_val = first_max((m, oracle.evaluate(m)) for m in masks)
    return SolveReport("probe", best_mask, best_val, oracle.calls - start_calls, seed=seed)
