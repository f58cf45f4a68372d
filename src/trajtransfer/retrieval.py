"""Two-stage demonstration retrieval: language filter, then embedding cosine.

The language stage keeps only demonstrations whose micro skill matches the
parsed query; the geometry stage picks the candidate whose occupancy embedding
has the highest cosine similarity to the test cloud's embedding.  Ties break
to the lexicographically smallest demo id so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import embedding as emb
from .demos import Dataset, parse_micro_skill
from .errors import UnknownSkill
from .se3 import PointCloud


@dataclass(frozen=True)
class RetrievalResult:
    demo_id: str
    similarity: float
    candidate_count: int
    runner_up_margin: float  # best minus second-best similarity; 0 for a single candidate

    def to_dict(self) -> dict:
        return dict(vars(self))


def language_filter(dataset: Dataset, description: str) -> set:
    """Ids of all demos whose micro skill matches the parsed description."""
    skill = parse_micro_skill(description)
    ids = dataset.skill_index.get(skill)
    if not ids:
        raise UnknownSkill(f"no demonstrations for micro skill {skill!r}")
    return set(ids)


def rank_candidates(dataset: Dataset, description: str, test_cloud: PointCloud):
    """(demo_id, similarity) for every language-filter survivor, best first.

    Sorted by descending similarity with id as tie-break; the full ranking
    backs the CLI --top listing.
    """
    ids = sorted(language_filter(dataset, description))
    query = emb.occupancy_embedding(test_cloud)
    scored = [(i, emb.cosine_similarity(query, dataset.demos[i].embedding)) for i in ids]
    return sorted(scored, key=lambda x: (-x[1], x[0]))


def hierarchical_retrieve(dataset: Dataset, description: str, test_cloud: PointCloud) -> RetrievalResult:
    ranking = rank_candidates(dataset, description, test_cloud)
    best_id, best_sim = ranking[0]
    margin = best_sim - ranking[1][1] if len(ranking) > 1 else 0.0
    return RetrievalResult(
        demo_id=best_id,
        similarity=best_sim,
        candidate_count=len(ranking),
        runner_up_margin=margin,
    )
