"""Independent checker: the textgrade spec recomputed from ground-truth tokens.

Nothing here imports textgrade or tokenizes text. The checker works on
the generator's token lists with dicts, so a fault in the tokenizer or
in the scoring shows as a mismatch rather than being repeated.

The spec: tf = count / len(doc); idf = ln((1 + N) / (1 + df)) + 1; a
query against a class is the cosine of their TF-IDF vectors, with the
four classes plus the query as the collection (N = 5); two classes are
compared with the four classes alone (N = 4). The lowest grade whose
vocabulary holds every query term wins outright with score 1;
otherwise the highest cosine wins, ties going to the lower grade.

Cosine over the pair's union vocabulary only has nonzero products on
shared terms, so the dot product runs over the query's terms. The class
norm under N = 5 depends on the query only through the shared terms,
whose df rises by one: it is a precomputed sum with those terms
corrected.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

GRADES = (1, 2, 3, 4)
CONTAINMENT = "containment"
COSINE_ARGMAX = "cosine-argmax"
SCORE_TOLERANCE = 1e-9


def idf(df: int, n_docs: int) -> float:
    return math.log((1 + n_docs) / (1 + df)) + 1.0


@dataclass(frozen=True)
class Expected:
    chosen: int
    decision: str
    scores: dict[int, float]
    shared: dict[int, int]


class Reference:
    """Per-class counts, document frequencies and norms of one corpus."""

    def __init__(self, class_tokens: dict[int, list[str]]) -> None:
        self.counts = {g: Counter(class_tokens[g]) for g in GRADES}
        self.lengths = {g: len(class_tokens[g]) for g in GRADES}
        self.df: Counter[str] = Counter()
        for g in GRADES:
            self.df.update(self.counts[g].keys())
        # squared class norm under N = 5 when the query shares no term
        self.norm5 = {
            g: sum((c / self.lengths[g] * idf(self.df[t], 5)) ** 2 for t, c in self.counts[g].items())
            for g in GRADES
        }

    def stats(self) -> dict:
        return {
            "total_tokens": dict(self.lengths),
            "unique_tokens": {g: len(self.counts[g]) for g in GRADES},
            "overall_unique": len(self.df),
        }

    def classify(self, query_tokens: list[str]) -> Expected:
        q = Counter(query_tokens)
        m = len(query_tokens)
        q_weight = {t: c / m * idf(self.df[t] + 1, 5) for t, c in q.items()}
        q_norm = math.sqrt(sum(w * w for w in q_weight.values()))
        scores: dict[int, float] = {}
        shared: dict[int, int] = {}
        contained = None
        for g in GRADES:
            counts, n = self.counts[g], self.lengths[g]
            dot = 0.0
            norm = self.norm5[g]
            hits = 0
            for t, w in q_weight.items():
                c = counts.get(t)
                if c is None:
                    continue
                hits += 1
                tf = c / n
                dot += w * tf * idf(self.df[t] + 1, 5)
                norm += (tf * idf(self.df[t] + 1, 5)) ** 2 - (tf * idf(self.df[t], 5)) ** 2
            scores[g] = min(1.0, dot / (q_norm * math.sqrt(norm)))
            shared[g] = hits
            if contained is None and hits == len(q):
                contained = g
        if contained is not None:
            scores[contained] = 1.0
            return Expected(contained, CONTAINMENT, scores, shared)
        chosen = GRADES[0]
        for g in GRADES[1:]:
            if scores[g] > scores[chosen]:
                chosen = g
        return Expected(chosen, COSINE_ARGMAX, scores, shared)

    def matrix(self) -> dict[tuple[int, int], tuple[float, int]]:
        """(row, col) -> (score, shared) among the four classes, N = 4."""
        weights = {
            g: {t: c / self.lengths[g] * idf(self.df[t], 4) for t, c in self.counts[g].items()}
            for g in GRADES
        }
        norms = {g: math.sqrt(sum(w * w for w in weights[g].values())) for g in GRADES}
        cells = {}
        for i in GRADES:
            for j in GRADES:
                a, b = weights[i], weights[j]
                dot = sum(w * b[t] for t, w in a.items() if t in b)
                shared = sum(1 for t in a if t in b)
                cells[i, j] = (min(1.0, dot / (norms[i] * norms[j])), shared)
        return cells


# --- comparing what textgrade returned -----------------------------------------


def check_classification(expected: Expected, chosen, decision, scores, shared) -> list[str]:
    """Mismatches between an in-process result and the reference.

    `scores` and `shared` map each grade to its value. A chosen grade
    other than the reference's is accepted only on a tie within the
    score tolerance.
    """
    problems = []
    for g in GRADES:
        if not abs(scores[g] - expected.scores[g]) <= SCORE_TOLERANCE:
            problems.append(f"grade {g} score {scores[g]!r}, expected {expected.scores[g]!r}")
        if shared[g] != expected.shared[g]:
            problems.append(f"grade {g} shared {shared[g]}, expected {expected.shared[g]}")
    if decision != expected.decision:
        problems.append(f"decision {decision!r}, expected {expected.decision!r}")
    if chosen != expected.chosen and not (
        chosen in expected.scores
        and abs(expected.scores[chosen] - expected.scores[expected.chosen]) <= SCORE_TOLERANCE
    ):
        problems.append(f"chosen grade {chosen!r}, expected {expected.chosen}")
    return problems


def _printed_close(text: str, value: float, precision: int) -> bool:
    """`text` is `value` rounded half up to `precision` decimals; near a
    rounding boundary either neighbour is accepted."""
    try:
        printed = Decimal(text)
    except InvalidOperation:
        return False
    quantum = Decimal(1).scaleb(-precision)
    return any(
        printed == Decimal(repr(v)).quantize(quantum, rounding=ROUND_HALF_UP)
        for v in (value - SCORE_TOLERANCE, value, value + SCORE_TOLERANCE)
    )


def _table_rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip()]


def _tsv_rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def check_stats_output(text: str, fmt: str, ref: Reference) -> list[str]:
    want = ref.stats()
    got_total, got_unique, got_overall = {}, {}, None
    try:
        if fmt == "json":
            payload = json.loads(text)
            for row in payload["grades"]:
                got_total[row["grade"]] = row["total_tokens"]
                got_unique[row["grade"]] = row["unique_tokens"]
            got_overall = payload["overall_unique"]
        else:
            rows = _tsv_rows(text) if fmt == "tsv" else _table_rows(text)
            for row in rows[1:5]:
                got_total[int(row[0])] = int(row[1])
                got_unique[int(row[0])] = int(row[2])
            if rows[5][0] != "overall":
                return [f"stats {fmt}: no overall row"]
            got_overall = int(rows[5][-1])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"stats {fmt}: unparsable output ({exc!r})"]
    problems = []
    if got_total != want["total_tokens"]:
        problems.append(f"stats {fmt}: totals {got_total}, expected {want['total_tokens']}")
    if got_unique != want["unique_tokens"]:
        problems.append(f"stats {fmt}: unique {got_unique}, expected {want['unique_tokens']}")
    if got_overall != want["overall_unique"]:
        problems.append(f"stats {fmt}: overall {got_overall}, expected {want['overall_unique']}")
    return problems


def check_classify_output(text: str, fmt: str, expected: Expected, precision: int) -> list[str]:
    scores, shared = {}, {}
    try:
        if fmt == "json":
            payload = json.loads(text)
            for row in payload["grades"]:
                scores[row["grade"]] = str(row["score"])
                shared[row["grade"]] = row["shared_unique"]
            chosen, decision = payload["chosen_grade"], payload["decision"]
        elif fmt == "tsv":
            rows = _tsv_rows(text)[1:5]
            for row in rows:
                scores[int(row[0])] = row[1]
                shared[int(row[0])] = int(row[2])
            chosen, decision = int(rows[0][3]), rows[0][4]
        else:
            rows = _table_rows(text)
            for row in rows[1:5]:
                scores[int(row[0])] = row[1]
                shared[int(row[0])] = int(row[2])
            decision = rows[5][1]
            chosen = int(rows[6][2])
            if rows[7] != ["recommended", "for", "grade", str(chosen)]:
                return [f"classify {fmt}: bad recommendation line {rows[7]}"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"classify {fmt}: unparsable output ({exc!r})"]
    problems = [
        f"classify {fmt}: grade {g} score {scores.get(g)!r}, expected {expected.scores[g]!r}"
        for g in GRADES
        if not _printed_close(scores.get(g, ""), expected.scores[g], precision)
    ]
    if shared != expected.shared:
        problems.append(f"classify {fmt}: shared {shared}, expected {expected.shared}")
    if decision != expected.decision or chosen != expected.chosen:
        problems.append(
            f"classify {fmt}: {decision} {chosen}, expected {expected.decision} {expected.chosen}"
        )
    return problems


def check_matrix_output(
    text: str, fmt: str, cells: dict[tuple[int, int], tuple[float, int]], precision: int
) -> list[str]:
    got: dict[tuple[int, int], tuple[str, int]] = {}
    try:
        if fmt == "json":
            payload = json.loads(text)
            for i, row in zip(payload["grades"], payload["cells"]):
                for j, cell in zip(payload["grades"], row):
                    got[i, j] = (str(cell["score"]), cell["shared_unique"])
        elif fmt == "tsv":
            for row in _tsv_rows(text)[1:]:
                got[int(row[0]), int(row[1])] = (row[2], int(row[3]))
        else:
            rows = _table_rows(text)
            cols = [int(c) for c in rows[0][1:]]
            for row in rows[1:]:
                for k, j in enumerate(cols):
                    got[int(row[0]), j] = (row[1 + 2 * k], int(row[2 + 2 * k]))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"matrix {fmt}: unparsable output ({exc!r})"]
    if set(got) != set(cells):
        return [f"matrix {fmt}: cells {sorted(got)}"]
    problems = []
    for key, (score, shared) in cells.items():
        printed, printed_shared = got[key]
        diagonal = fmt == "table" and key[0] == key[1]
        if (printed != "1") if diagonal else not _printed_close(printed, score, precision):
            problems.append(f"matrix {fmt}: cell {key} score {printed!r}, expected {score!r}")
        if printed_shared != shared:
            problems.append(f"matrix {fmt}: cell {key} shared {printed_shared}, expected {shared}")
    return problems
