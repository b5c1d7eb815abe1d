"""Hidden-instance families with planted optima, for measuring solvers.

``hard_kxos`` defeats the table's solvers (``exact2``, ``kminus1`` and
``star`` stop at n_tilde^k), but it certifies no
lower bound that holds for every algorithm: a short adaptive attack, which
fixes a base set that component k answers and tests each other element
against it, learns the planted set exactly in 15-185 queries at the
parameters in use. Likewise ``hard_general`` at tau = round(ln n) falls
to ``sample`` plus one improving expansion; a bound for every algorithm
needs tau chosen for the ground size and the query budget.

Three families, each evaluated in closed form from bit counts (never by
materializing per-element weights) and each deterministic given its
parameters and seed; planted sets are drawn by the same exactly-uniform
sampler the solvers use, so serialized instances store only (params, seed)
and never leak the planted set. The families share one base class that
declares their parameter keys and holds the type check, the oracle factory
and the document writer. ``FAMILIES`` maps each document type to its class;
``parse_hidden`` reads it, and ``gen`` builds its subcommands and flags from it.

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
from typing import ClassVar

import numpy as np

from .core import (
    INT64_MAX,
    AdditiveFunction,
    CountingOracle,
    GroundSet,
    InstanceFormatError,
    Run,
    SolveReport,
    XosRepresentation,
    _is_int,
    best_of,
    bit_counts,
    iter_bits,
)
from .rng import SplitMix64, check_seed, sample_blocks, sample_mask


class _HiddenFamily:
    """What the three families share: typed parameters, oracle, document.

    ``params`` names the document's parameter keys in order; each family's
    ``__post_init__`` calls ``_check_params`` before its range checks and
    builds its ``ground`` before any per-element work, so ``GroundSet``
    bounds n. The planted set is a maximizer unless a family overrides
    ``planted_is_optimal``. Each family is a value source for
    ``CountingOracle``: ``evaluate`` on one int mask, and ``_values`` on a
    checked uint64 array over n <= 64, one numpy pass from
    ``core.bit_counts``.
    """

    params: ClassVar[tuple[str, ...]] = ()
    planted_is_optimal = True

    def _check_params(self) -> None:
        for key in self.params:
            if not _is_int(getattr(self, key)):
                raise InstanceFormatError(f"param {key!r} must be an integer")
        check_seed(self.seed, InstanceFormatError)

    def oracle(self) -> CountingOracle:
        return CountingOracle(self.ground, self.evaluate)

    def to_json_dict(self) -> dict:
        return {
            "type": self.kind,
            "params": {key: getattr(self, key) for key in self.params},
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NeedleInstance(_HiddenFamily):
    """Hidden threshold function: 1 inside the planted set at size >= t."""

    n_hat: int
    s: int
    t: int
    seed: int
    planted: int = field(init=False)

    kind = "needle"
    params = ("n_hat", "s", "t")
    width = None

    def __post_init__(self) -> None:
        self._check_params()
        object.__setattr__(self, "ground", GroundSet(self.n_hat))
        if not 1 <= self.s <= self.n_hat:
            raise InstanceFormatError("s must satisfy 1 <= s <= n_hat")
        if not 1 <= self.t <= self.s:
            raise InstanceFormatError("t must satisfy 1 <= t <= s")
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

    def _values(self, masks: np.ndarray) -> np.ndarray:
        inside = (masks & ~np.uint64(self.planted)) == 0
        return (inside & (bit_counts(masks) >= self.t)).astype(np.int64)

    def planted_optimum(self) -> tuple[int, int]:
        return self.planted, 1


@dataclass(frozen=True)
class HardGeneralInstance(_HiddenFamily):
    """Hidden half-size set S; informative values only inside S.

    ``remark`` switches to the max(additive, floor) variant, which is not
    normalized (f(empty) = tau) and has no max-of-additive representation.
    """

    n: int
    tau: int
    seed: int
    remark: bool = False
    planted: int = field(init=False)

    params = ("n", "tau")

    def __post_init__(self) -> None:
        self._check_params()
        object.__setattr__(self, "ground", GroundSet(self.n))
        if self.n % 2:
            raise InstanceFormatError(f"n must be even, got {self.n}")
        if self.tau < 1:
            raise InstanceFormatError("tau must be an integer >= 1")
        if 2 * self.tau >= self.n:
            raise InstanceFormatError("need 2*tau < n so the planted set beats the floor")
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
        if mask == 0 and not self.remark:
            return 0
        inside = (mask & self.planted).bit_count()
        outside = mask.bit_count() - inside
        return max(inside - self.n * outside, self.tau)

    def _values(self, masks: np.ndarray) -> np.ndarray:
        planted = np.uint64(self.planted)
        inside = bit_counts(masks & planted)
        outside = bit_counts(masks & ~planted)
        values = np.maximum(inside - self.n * outside, self.tau)
        if not self.remark:
            values[masks == 0] = 0
        return values

    def planted_optimum(self) -> tuple[int, int]:
        return self.planted, self.n // 2

    def representation(self) -> XosRepresentation:
        """Width-(n+1) explicit form of the standard variant.

        One component per element paying tau on that element alone (their
        max supplies tau on every nonempty set), plus the additive g that is
        +1 on S and -n off S.
        """
        if self.remark:
            raise InstanceFormatError("the remark variant has no max-of-additive form")
        comps = []
        for i in range(self.n):
            w = [0] * self.n
            w[i] = self.tau
            comps.append(AdditiveFunction(tuple(w)))
        g = tuple(1 if (self.planted >> v) & 1 else -self.n for v in range(self.n))
        comps.append(AdditiveFunction(g))
        return XosRepresentation(self.ground, tuple(comps))


@dataclass(frozen=True)
class HardKxosInstance(_HiddenFamily):
    """Width-k blocked construction with a planted high-value set.

    ``terms`` is the weight table ``evaluate``, ``_values`` and
    ``representation`` read: per component, (element mask, weight) pairs
    over disjoint masks. Values stay in int64 on every route: the ground's
    nt + ... + nt^(k-1) <= 4096 elements give nt^(k-1) <= 2^12 and, as
    k >= 3, nt^2 <= 2^12, so every weight is at most nt^(k+1) <= 2^24 in
    size and |f| is below 2^24 * 4096 = 2^36.
    """

    k: int
    n_tilde: int
    a: int
    seed: int
    blocks: tuple[int, ...] = field(init=False)
    s_masks: tuple[int, ...] = field(init=False)
    planted: int = field(init=False)
    terms: tuple[tuple[tuple[int, int], ...], ...] = field(init=False)

    kind = "hard_kxos"
    params = ("k", "n_tilde", "a")

    def __post_init__(self) -> None:
        self._check_params()
        k, nt, a = self.k, self.n_tilde, self.a
        if k < 3:
            raise InstanceFormatError("k must be an integer >= 3")
        if nt < 2:
            raise InstanceFormatError("n_tilde must be an integer >= 2")
        if not 1 <= a < nt:
            raise InstanceFormatError("a must satisfy 1 <= a < n_tilde")
        # nt^(k+1) >= 2^((k+1)*floor(log2 nt)), so the first test rejects huge
        # k or nt before any arithmetic grows with them; the second is exact.
        if (k + 1) * (nt.bit_length() - 1) >= 63 or nt ** (k + 1) > INT64_MAX:
            raise InstanceFormatError("weights exceed the signed 64-bit range")
        object.__setattr__(self, "ground", GroundSet(sum(nt**i for i in range(1, k))))
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
        planted = 0
        for s in s_masks:
            planted |= s
        terms = [((block, nt ** (k - i)),) for i, block in enumerate(blocks, 1)]
        last = [(s, (nt - a) * nt ** (k - i - 1)) for i, s in enumerate(s_masks, 1)]
        last.append((self.ground.full_mask & ~planted, -(nt ** (k + 1))))
        terms.append(tuple(last))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "s_masks", tuple(s_masks))
        object.__setattr__(self, "planted", planted)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def width(self) -> int:
        return self.k

    def evaluate(self, mask: int) -> int:
        best = 0
        for comp in self.terms:
            value = 0
            for part, weight in comp:
                value += weight * (mask & part).bit_count()
            if value > best:
                best = value
        return best

    def _values(self, masks: np.ndarray) -> np.ndarray:
        best = np.zeros(len(masks), dtype=np.int64)
        for comp in self.terms:
            value = sum(np.int64(weight) * bit_counts(masks & np.uint64(part)) for part, weight in comp)
            np.maximum(best, value, out=best)
        return best

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
        """Materialized width-k form of ``terms``; agrees with ``evaluate``."""
        comps = []
        for comp in self.terms:
            w = [0] * self.n
            for part, weight in comp:
                for v in iter_bits(part):
                    w[v] = weight
            comps.append(AdditiveFunction(tuple(w)))
        return XosRepresentation(self.ground, tuple(comps))


# A PEP 604 union, not typing.Union: typing caches Union[...] by its
# arguments for the life of the process, which would keep every class
# here, and through their methods the whole package, alive after a
# re-import.
HiddenInstance = NeedleInstance | HardGeneralInstance | HardKxosInstance

# Document type -> (family class, fixed constructor keywords).
FAMILIES: dict[str, tuple[type, dict]] = {
    "needle": (NeedleInstance, {}),
    "hard_general": (HardGeneralInstance, {}),
    "hard_general_remark": (HardGeneralInstance, {"remark": True}),
    "hard_kxos": (HardKxosInstance, {}),
}


def parse_hidden(doc: dict) -> HiddenInstance:
    """Parse a hidden-instance document {"type", "params", "seed"}."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise InstanceFormatError(f"unknown hidden instance type {kind!r}")
    cls, fixed = FAMILIES[kind]
    params = doc.get("params")
    if not isinstance(params, dict):
        raise InstanceFormatError("hidden instance needs an object field 'params'")
    if set(params) != set(cls.params):
        raise InstanceFormatError(
            f"{kind} params must be exactly {sorted(cls.params)}, got {sorted(params)}"
        )
    return cls(**params, seed=doc.get("seed"), **fixed)


def uniform_size_probe(oracle: CountingOracle, size: int, queries: int, seed: int) -> SolveReport:
    """Query ``queries`` uniform random subsets of a fixed size; keep the best.

    This is the natural probing strategy against a needle instance (only
    sizes >= t can score, and size t maximizes hits per query); each query
    hits a hidden s-subset with probability C(s, size)/C(n, size). With zero
    queries the report is (empty set, 0) without touching the oracle; a
    ``queries`` that reaches MAX_QUERIES is refused before the first query.
    """
    n = oracle.n
    if not (_is_int(size) and 1 <= size <= n):
        raise ValueError(f"probe size must be an integer in [1, {n}], got {size!r}")
    run = Run(oracle, "probe", seed=seed)
    probe_phase(run, queries)
    rng = SplitMix64(seed)
    return run.report(best_of(oracle, sample_blocks(oracle.ground.full_mask, [(size, queries)], rng)))


def probe_phase(run: Run, queries: int) -> None:
    """The probe's checks before its first query: ``queries`` is an integer
    >= 0, and that many queries fit the run's limit."""
    if not (_is_int(queries) and queries >= 0):
        raise ValueError(f"queries must be an integer >= 0, got {queries!r}")
    run.phase(queries, "queries")
