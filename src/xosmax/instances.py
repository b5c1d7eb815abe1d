"""Loading, saving, and generating instance documents.

Two document shapes, both JSON objects:

* explicit:  {"type": "explicit", "n": <int>, "weights": [[w_1(0), ...], ...]}
* hidden:    {"type": "needle" | "hard_general" | "hard_general_remark" |
              "hard_kxos", "params": {...}, "seed": <u64>}

Hidden documents store parameters and seed only; the planted sets are
reconstructed from the seed, so instance files can be shared without
leaking them. ``hardness.FAMILIES`` maps each hidden type to its family
class, whose ``params`` lists the document's parameter keys in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .core import (
    AdditiveFunction,
    CountingOracle,
    GroundSet,
    InstanceFormatError,
    XosRepresentation,
    parse_explicit,
)
from .hardness import HiddenInstance, parse_hidden
from .rng import SplitMix64


@dataclass(frozen=True)
class InstanceHandle:
    """A loaded instance: either an explicit representation or a hidden family.

    ``oracle()`` returns a fresh counting oracle each call (one per trial);
    ``representation()`` returns the explicit max-of-additive form, if any;
    ``exact_optimum(cap)`` returns (value, provenance) with provenance
    "planted" or "brute".
    """

    kind: str
    explicit: XosRepresentation | None = None
    hidden: HiddenInstance | None = None

    @property
    def n(self) -> int:
        return self.explicit.n if self.explicit is not None else self.hidden.n

    @property
    def width(self) -> int | None:
        if self.explicit is not None:
            return self.explicit.width
        return self.hidden.width

    def oracle(self) -> CountingOracle:
        if self.explicit is not None:
            return CountingOracle.for_representation(self.explicit)
        return self.hidden.oracle()

    def planted(self) -> tuple[int, int] | None:
        """Planted maximizer and value, when one exists and is optimal."""
        if self.hidden is None or not self.hidden.planted_is_optimal:
            return None
        return self.hidden.planted_optimum()

    def representation(self) -> XosRepresentation | None:
        """The explicit representation, or a hidden family's materialized one.

        None for families without one (needle and the hard_general remark
        variant, both of width None).
        """
        if self.explicit is not None:
            return self.explicit
        if self.hidden.width is None:
            return None
        return self.hidden.representation()

    def exact_optimum(self, cap: int) -> tuple[int, str]:
        """Exact OPT and its provenance, known at every ground size.

        The planted value when the planted set is a maximizer ("planted");
        otherwise the O(kn) identity max_i sum_v max(w_i(v), 0) over the
        explicit representation or, for a hard_kxos whose planted set is
        not optimal, over its materialized representation ("brute").
        ``cap`` is unused; the benchmark harness still passes it, so it goes
        with that call (ROADMAP direction 7).
        """
        p = self.planted()
        if p is not None:
            return p[1], "planted"
        return self.representation().exact_maximum(), "brute"

    def to_json_dict(self) -> dict:
        if self.explicit is not None:
            return self.explicit.to_json_dict()
        return self.hidden.to_json_dict()


def instance_from_dict(doc: dict) -> InstanceHandle:
    if isinstance(doc, dict) and doc.get("type") == "explicit":
        return InstanceHandle("explicit", explicit=parse_explicit(doc))
    hidden = parse_hidden(doc)
    return InstanceHandle(hidden.kind, hidden=hidden)


def load_instance(source: Union[str, Path]) -> InstanceHandle:
    """Load an instance from JSON text or a file path.

    A ``str`` whose text starts with ``{`` is JSON, however long; any other
    ``str`` and every ``Path`` name a file. A parsed document goes to
    ``instance_from_dict``, which is also the route for a dict; passing a
    dict here raises TypeError.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        try:
            text = Path(source).read_text()
        except FileNotFoundError:
            raise InstanceFormatError(f"instance file not found: {source}") from None
        except OSError as exc:
            raise InstanceFormatError(f"cannot read instance file {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid instance JSON: {exc}") from exc
    return instance_from_dict(doc)


def dump_instance(handle: InstanceHandle) -> str:
    return json.dumps(handle.to_json_dict(), indent=2, sort_keys=False) + "\n"


def random_explicit(
    n: int,
    k: int,
    low: int,
    high: int,
    seed: int,
    positive_singletons: bool = False,
) -> XosRepresentation:
    """Seeded random width-k representation with weights uniform in [low, high].

    Weights are drawn column by column (element, then component) from one
    splitmix64 stream, so instances are reproducible across versions. With
    ``positive_singletons`` a column is redrawn until some component gives
    the element a positive weight, which keeps preprocessing from dropping
    anything.
    """
    ground = GroundSet(n)
    if k < 1:
        raise InstanceFormatError("need at least one component")
    if low > high:
        raise InstanceFormatError("empty weight range")
    if positive_singletons and high <= 0:
        raise InstanceFormatError("positive_singletons needs high > 0")
    rng = SplitMix64(seed)
    cols: list[list[int]] = []
    for _ in range(n):
        while True:
            col = [rng.randint(low, high) for _ in range(k)]
            if not positive_singletons or max(col) > 0:
                break
        cols.append(col)
    rows = (tuple(cols[v][i] for v in range(n)) for i in range(k))
    return XosRepresentation(ground, tuple(AdditiveFunction(row) for row in rows))
