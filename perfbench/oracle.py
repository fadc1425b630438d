"""An independent brute-force oracle for spatio-textual similarity answers.

It shares no code with the program under test: rectangle Jaccard and
idf-weighted Jaccard are computed here with NumPy over every object.
idf is ``ln N - ln df`` over the object set the weights were frozen on;
a token outside that set weighs ``ln N``.

Float summation order differs between the oracle and the engine, so an
object whose exact similarity lies within :data:`EPSILON` of a threshold
may land on either side.  Such objects are neither required nor
forbidden in an answer; every other object is checked.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

EPSILON = 1e-9


class Oracle:
    """Brute-force answers over a fixed universe of objects.

    Args:
        boxes: ``(x1, y1, x2, y2)`` per object; the position is the oid.
        token_sets: Token tuple per object.

    Liveness (:attr:`live`) and the idf snapshot (:meth:`freeze_weights`)
    are set by the caller, which is how the churn workload models deletes
    and the engine's idf-drift rule.  Initially every object is live and
    the weights are frozen over all of them.
    """

    def __init__(self, boxes: Sequence[Tuple[float, float, float, float]],
                 token_sets: Sequence[Sequence[str]]) -> None:
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.areas = (self.boxes[:, 2] - self.boxes[:, 0]) * (self.boxes[:, 3] - self.boxes[:, 1])
        self.token_sets = [tuple(tokens) for tokens in token_sets]
        postings: Dict[str, List[int]] = {}
        for oid, tokens in enumerate(self.token_sets):
            for token in tokens:
                postings.setdefault(token, []).append(oid)
        self._postings = {t: np.asarray(p, dtype=np.int64) for t, p in postings.items()}
        self.live = np.ones(len(self.token_sets), dtype=bool)
        self.freeze_weights(range(len(self.token_sets)))

    def freeze_weights(self, members: Iterable[int]) -> None:
        """Take the idf snapshot over the objects ``members``."""
        df: Counter = Counter()
        count = 0
        for oid in members:
            df.update(self.token_sets[oid])
            count += 1
        self.log_n = math.log(count) if count else 0.0
        self._weights = {t: self.log_n - math.log(c) for t, c in df.items()}
        self.totals = np.array([self.total_weight(tokens) for tokens in self.token_sets])

    def weight(self, token: str) -> float:
        return self._weights.get(token, self.log_n)

    def total_weight(self, tokens: Iterable[str]) -> float:
        return sum(self.weight(t) for t in tokens)

    def similarities(self, box, tokens: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(simR, simT)`` of the query against every object."""
        qx1, qy1, qx2, qy2 = box
        b = self.boxes
        width = np.clip(np.minimum(b[:, 2], qx2) - np.maximum(b[:, 0], qx1), 0.0, None)
        height = np.clip(np.minimum(b[:, 3], qy2) - np.maximum(b[:, 1], qy1), 0.0, None)
        inter = width * height
        union = (qx2 - qx1) * (qy2 - qy1) + self.areas - inter
        sim_r = np.divide(inter, union, out=np.ones_like(inter), where=union > 0.0)

        shared = np.zeros(len(self.token_sets))
        for token in set(tokens):
            oids = self._postings.get(token)
            if oids is not None:
                shared[oids] += self.weight(token)
        union_w = self.total_weight(set(tokens)) + self.totals - shared
        sim_t = np.divide(shared, union_w, out=np.ones_like(shared), where=union_w > 0.0)
        return sim_r, sim_t

    def answers(self, box, tokens, tau_r: float, tau_t: float) -> Tuple[set, set]:
        """``(certain, borderline)``: live oids that must be answers, and
        live oids within :data:`EPSILON` of a threshold."""
        sim_r, sim_t = self.similarities(box, tokens)
        near = (np.abs(sim_r - tau_r) <= EPSILON) | (np.abs(sim_t - tau_t) <= EPSILON)
        match = (sim_r >= tau_r) & (sim_t >= tau_t) & self.live & ~near
        return set(np.flatnonzero(match).tolist()), set(np.flatnonzero(near & self.live).tolist())

    def check(self, box, tokens, tau_r: float, tau_t: float, answers: Sequence[int]) -> str:
        """An empty string when ``answers`` is correct, else what is wrong."""
        answers = list(answers)
        if answers != sorted(set(answers)):
            return f"answers are not ascending unique oids: {answers[:8]}"
        certain, borderline = self.answers(box, tokens, tau_r, tau_t)
        got = set(answers)
        missing = certain - got
        spurious = got - certain - borderline
        if missing or spurious:
            return f"missing {sorted(missing)[:8]} spurious {sorted(spurious)[:8]}"
        return ""
