"""Seeded workload inputs: corpus, query streams and the churn stream.

Everything here is a function of the seed argument alone.  Token sets
are kept as sorted tuples and every random choice goes through one NumPy
``Generator``, so no output depends on set iteration order and the
inputs are identical under any ``PYTHONHASHSEED``.  The module imports
nothing from the program under test: the engine receives only the
values generated here.

The corpus mimics the Twitter-like ROIs of the paper (Section 6.1):
city-clustered centres, the published log-area quantiles, about 14.3
Zipf-distributed tokens per object with a per-city topic band.  As in
``benchmarks/conftest.py`` the space is density-scaled: its side
shrinks by ``sqrt(N / 1M)`` so objects per km² match the full data set.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Side of the paper's 1342M km² Twitter space, and its corpus size.
FULL_SIDE = 36_633.0
FULL_N = 1_000_000

#: (probability, log10 km²) knots of the Twitter region-area inverse CDF.
AREA_KNOTS = ((0.0, -8.0), (0.044, -4.0), (0.154, -2.0), (0.297, 0.0),
              (0.73, 2.0), (0.998, 2.75), (1.0, 5.0))
MEAN_TOKENS = 14.3
ZIPF_EXPONENT = 1.05
LOCAL_TOPIC_FRACTION = 0.3
CLUSTER_SPREAD = 0.002
BACKGROUND_FRACTION = 0.05

#: The paper's two query shapes: (mean area km², mean token count).
QUERY_KINDS = {"large": (554.0, 6.97), "small": (0.44, 12.9)}

#: Thresholds are drawn independently for tau_r and tau_t from this set.
TAUS = (0.1, 0.2, 0.3, 0.4, 0.5)

Box = Tuple[float, float, float, float]
Tokens = Tuple[str, ...]


@dataclass(frozen=True)
class QuerySpec:
    """One query as plain values: region box, sorted tokens, thresholds."""

    box: Box
    tokens: Tokens
    tau_r: float
    tau_t: float
    kind: str


@dataclass(frozen=True)
class Op:
    """One churn operation: ``insert`` (``index`` into the insert pool),
    ``delete`` (``index`` is the oid) or ``query`` (``index`` into the
    query pool).  ``checkpoint`` marks where the stream checkpoints."""

    kind: str
    index: int


def space_side(num_objects: int) -> float:
    return FULL_SIDE * math.sqrt(num_objects / FULL_N)


def _box(cx: float, cy: float, area: float, aspect: float, side: float) -> Box:
    """A box of the given area and aspect, shifted (not shrunk) into the space."""
    width = min(math.sqrt(area * aspect), side)
    height = min(math.sqrt(area / aspect), side)
    x1 = min(max(cx - width / 2.0, 0.0), side - width)
    y1 = min(max(cy - height / 2.0, 0.0), side - height)
    return (x1, y1, x1 + width, y1 + height)


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform draws on [0, 1), exactly one per ``1/count`` slice,
    in random order."""
    return (rng.permutation(count) + rng.random(count)) / count


def make_corpus(num_objects: int, rng: np.random.Generator,
                side: float) -> Tuple[List[Box], List[Tokens]]:
    """``num_objects`` Twitter-like ROIs as (boxes, sorted token tuples)."""
    vocab_size = int(5 * math.sqrt(num_objects)) + 1000
    num_clusters = max(8, num_objects // 500)
    zipf = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64) ** ZIPF_EXPONENT
    zipf /= zipf.sum()

    # City sizes, the rural share and the area quantiles are drawn by
    # stratified sampling, so each seed's corpus has the same make-up
    # (e.g. the same number of continent-sized regions); only which
    # object gets what is random.  This keeps run-to-run cost steady.
    city_weights = 1.0 / np.arange(1, num_clusters + 1, dtype=np.float64)
    city_weights /= city_weights.sum()
    cities = rng.uniform(0.0, side, size=(num_clusters, 2))
    city_of = np.minimum(np.searchsorted(np.cumsum(city_weights), _stratified(rng, num_objects)),
                         num_clusters - 1)
    centres = cities[city_of] + rng.normal(0.0, CLUSTER_SPREAD * side, size=(num_objects, 2))
    rural = rng.permutation(num_objects)[: int(round(BACKGROUND_FRACTION * num_objects))]
    centres[rural] = rng.uniform(0.0, side, size=(len(rural), 2))
    np.clip(centres, 0.0, side, out=centres)

    probs = np.array([p for p, _ in AREA_KNOTS])
    logs = np.array([a for _, a in AREA_KNOTS])
    areas = 10.0 ** np.interp(_stratified(rng, num_objects), probs, logs)
    aspects = np.exp(rng.normal(0.0, 0.4, size=num_objects))
    counts = np.maximum(1, rng.poisson(MEAN_TOKENS, size=num_objects))
    topic_offsets = rng.integers(0, max(1, vocab_size - 200), size=num_clusters)

    boxes: List[Box] = []
    token_sets: List[Tokens] = []
    for i in range(num_objects):
        boxes.append(_box(float(centres[i, 0]), float(centres[i, 1]),
                          float(areas[i]), float(aspects[i]), side))
        count = int(counts[i])
        local = int(round(count * LOCAL_TOPIC_FRACTION))
        ranks = set(rng.choice(vocab_size, size=count - local, p=zipf).tolist())
        if local:
            offset = int(topic_offsets[city_of[i]])
            band = rng.choice(vocab_size, size=local, p=zipf)
            ranks.update(((band + offset) % vocab_size).tolist())
        while len(ranks) < count:
            ranks.update(rng.choice(vocab_size, size=count - len(ranks), p=zipf).tolist())
        token_sets.append(tuple(sorted(f"w{r}" for r in ranks)))
    return boxes, token_sets


def make_queries(count: int, rng: np.random.Generator, boxes: Sequence[Box],
                 token_sets: Sequence[Tokens], side: float) -> List[QuerySpec]:
    """``count`` queries anchored at corpus objects, alternately
    large-region and small-region, thresholds drawn from :data:`TAUS`.

    Small-region queries carry twice the tokens, which costs a cache hit
    measurably more on the wire; alternating the kinds keeps their share of
    every stretch of the stream, and of every Zipf popularity rank, the same
    for every seed.

    As in the paper's workloads, a query sits near (not on) an object
    and takes about 70% of its tokens from it, the rest from the corpus
    vocabulary, so many queries have non-empty answers.
    """
    vocabulary = sorted({t for tokens in token_sets for t in tokens})
    queries: List[QuerySpec] = []
    sigma = 0.6
    for i in range(count):
        kind = ("large", "small")[i % 2]
        mean_area, mean_tokens = QUERY_KINDS[kind]
        anchor = int(rng.integers(0, len(boxes)))
        x1, y1, x2, y2 = boxes[anchor]
        area = float(rng.lognormal(math.log(mean_area) - sigma * sigma / 2.0, sigma))
        jitter = math.sqrt(area) / 4.0
        cx = (x1 + x2) / 2.0 + float(rng.normal(0.0, jitter))
        cy = (y1 + y2) / 2.0 + float(rng.normal(0.0, jitter))
        box = _box(cx, cy, area, float(np.exp(rng.normal(0.0, 0.3))), side)
        want = max(1, int(rng.poisson(mean_tokens)))
        own = token_sets[anchor]
        take = min(len(own), max(1, int(round(want * 0.7))))
        tokens = {own[j] for j in rng.permutation(len(own))[:take].tolist()}
        while len(tokens) < want:
            tokens.add(vocabulary[int(rng.integers(0, len(vocabulary)))])
        tau_r = TAUS[int(rng.integers(0, len(TAUS)))]
        tau_t = TAUS[int(rng.integers(0, len(TAUS)))]
        queries.append(QuerySpec(box, tuple(sorted(tokens)), tau_r, tau_t, kind))
    return queries


def distinct(queries: Sequence[QuerySpec]) -> List[QuerySpec]:
    """Queries with duplicate (box, tokens, thresholds) values dropped."""
    seen = set()
    out = []
    for q in queries:
        key = (q.box, q.tokens, q.tau_r, q.tau_t)
        if key not in seen:
            seen.add(key)
            out.append(q)
    return out


def zipf_stream(pool_size: int, length: int, exponent: float,
                rng: np.random.Generator) -> np.ndarray:
    """``length`` pool indices with Zipf popularity (index 0 hottest)."""
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    return rng.choice(pool_size, size=length, p=weights)


def churn_stream(length: int, initial: int, rng: np.random.Generator, *,
                 insert_share: float, delete_share: float, query_pool: int,
                 checkpoint_at: int) -> List[Op]:
    """A stream of inserts, deletes and queries over a live set that starts
    with oids ``0 .. initial-1``.

    The stream tracks liveness itself, so every delete names a live oid
    and inserted objects take the next oid in order, as the engine
    assigns them.  ``checkpoint`` is inserted before operation
    ``checkpoint_at``.
    """
    live = list(range(initial))
    next_oid = initial
    inserted = 0
    ops: List[Op] = []
    for i in range(length):
        if i == checkpoint_at:
            ops.append(Op("checkpoint", 0))
        draw = rng.random()
        if draw < insert_share:
            ops.append(Op("insert", inserted))
            live.append(next_oid)
            next_oid += 1
            inserted += 1
        elif draw < insert_share + delete_share and live:
            j = int(rng.integers(0, len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append(Op("delete", live.pop()))
        else:
            ops.append(Op("query", int(rng.integers(0, query_pool))))
    return ops


def fingerprint(*parts) -> str:
    """A short digest of generated inputs (floats by ``repr``, so exact)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(json.dumps(part, default=_plain, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]


def _plain(value):
    if isinstance(value, (QuerySpec, Op)):
        return list(value.__dict__.values())
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot fingerprint {type(value).__name__}")
