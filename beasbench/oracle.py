"""The accuracy oracle: realised RC accuracy of an answer against ``Q(D)``.

It runs after the timed blocks and after ``peak_rss_mb`` is read, and costs
more than the answers it scores: RC accuracy spends most of its time
building the relevance candidates of a query.  Two memos keep it affordable:

* within a run, relevance candidates depend on the query and the database
  but not on the answer, so they are built once per query and reused across
  the α ladder;
* across runs, a score is a function of the program's source, the dataset,
  the query, the answer and ``Q(D)``, so scores are kept on disk under a
  digest of all five and recomputed whenever any of them changes.

The scores are the ones ``repro.accuracy.rc_accuracy`` gives.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Sequence, Tuple

from measure import eta_unsound

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "repro"


def source_digest() -> str:
    """Digest of every Python file of the program."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rows_text(rows) -> str:
    return "\n".join(sorted(map(repr, rows)))


class Oracle:
    """Context manager scoring answers by realised RC accuracy.

    ``dataset`` names the data the answers were computed over (workload and
    generation parameters); the database must not change while it is open.
    """

    def __init__(self, workload: str, dataset: str) -> None:
        self.store = HERE / "out" / f"oracle-{workload}.json"
        self.prefix = f"{source_digest()}\n{dataset}\n"
        self.scores: Dict[str, float] = {}
        self.computed = 0

    def __enter__(self) -> "Oracle":
        from repro.accuracy import rc

        if self.store.is_file():
            self.scores = json.loads(self.store.read_text())
        self._module = rc
        self._original = original = rc.relevance_candidates
        memo: Dict[tuple, tuple] = {}

        def relevance_candidates(query, database, output_refs, relaxation_allowed=True):
            key = (id(query), id(database), tuple(output_refs), relaxation_allowed)
            if key not in memo:
                # The query object is kept alive with its entry, so its id is not reused.
                memo[key] = (query, original(query, database, output_refs, relaxation_allowed))
            return memo[key][1]

        rc.relevance_candidates = relevance_candidates
        return self

    def __exit__(self, *exc_info) -> None:
        self._module.relevance_candidates = self._original
        if self.computed:
            self.store.parent.mkdir(parents=True, exist_ok=True)
            partial = self.store.with_suffix(".tmp")
            partial.write_text(json.dumps(self.scores))
            partial.replace(self.store)

    def rc_accuracy(self, ast, sql: str, database, rows, exact) -> float:
        text = f"{self.prefix}{sql}\n{_rows_text(rows)}\n--\n{_rows_text(exact)}"
        key = hashlib.sha256(text.encode()).hexdigest()
        if key not in self.scores:
            self.scores[key] = self._module.rc_accuracy(ast, database, rows, exact).accuracy
            self.computed += 1
        return self.scores[key]


def eta_sound_share(scored: Sequence[Tuple[float, float]]) -> float:
    """Share of answers whose promised η does not exceed their realised RC."""
    return sum(1 for eta, rc in scored if not eta_unsound(eta, rc)) / len(scored)


def eta_gap_mean(scored: Sequence[Tuple[float, float]]) -> float:
    """Mean RC − η over the sound answers (how much accuracy η leaves unclaimed)."""
    gaps = [rc - eta for eta, rc in scored if not eta_unsound(eta, rc)]
    return sum(gaps) / len(gaps) if gaps else 0.0
