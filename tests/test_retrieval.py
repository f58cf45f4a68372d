"""Two-stage retrieval: language filter correctness and cosine-argmax oracle."""

import numpy as np
import pytest

from trajtransfer.demos import Dataset, EndEffectorState
from trajtransfer.embedding import cosine_similarity, occupancy_embedding
from trajtransfer.errors import UnknownSkill
from trajtransfer.retrieval import hierarchical_retrieve, language_filter, rank_candidates
from trajtransfer.se3 import Pose, PointCloud


def traj():
    return [
        EndEffectorState(Pose(translation=np.array([0.3, 0.2, 0.2])), 0, 0),
        EndEffectorState(Pose(translation=np.array([0.3, 0.2, 0.15])), 1, 1),
    ]


def cloud(center, seed=0, n=50):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(scale=0.02, size=(n, 3)) + np.array(center))


@pytest.fixture
def dataset():
    ds = Dataset()
    ds.ingest("open bottle", cloud((0.2, 0.1, 0.1), seed=1), traj(), demo_id="bottle-a")
    ds.ingest("open bottle", cloud((0.6, 0.3, 0.1), seed=2), traj(), demo_id="bottle-b")
    ds.ingest("open box", cloud((0.4, 0.2, 0.1), seed=3), traj(), demo_id="box-a")
    return ds


class TestLanguageFilter:
    def test_matching_ids(self, dataset):
        assert language_filter(dataset, "open bottle") == {"bottle-a", "bottle-b"}

    def test_unknown_skill(self, dataset):
        with pytest.raises(UnknownSkill):
            language_filter(dataset, "fold towel")

    def test_adjectives_stripped(self, dataset):
        assert language_filter(dataset, "open the red bottle") == {"bottle-a", "bottle-b"}


class TestHierarchicalRetrieve:
    def test_single_candidate(self, dataset):
        res = hierarchical_retrieve(dataset, "open box", cloud((0.4, 0.2, 0.1), seed=9))
        assert res.demo_id == "box-a"
        assert res.candidate_count == 1
        assert res.runner_up_margin == 0.0
        # the CLI prints these keys unsorted, so their order is part of the output
        assert list(res.to_dict().items()) == [
            ("demo_id", "box-a"), ("similarity", res.similarity), ("candidate_count", 1), ("runner_up_margin", 0.0)
        ]

    def test_exact_demo_cloud(self, dataset):
        res = hierarchical_retrieve(dataset, "open bottle", dataset.demos["bottle-a"].object_cloud)
        assert res.demo_id == "bottle-a"
        assert res.similarity == pytest.approx(1.0, abs=1e-12)

    def test_nearest_pose_wins(self, dataset):
        res = hierarchical_retrieve(dataset, "open bottle", cloud((0.6, 0.3, 0.1), seed=11))
        assert res.demo_id == "bottle-b"

    def test_margin_non_negative(self, dataset):
        res = hierarchical_retrieve(dataset, "open bottle", cloud((0.4, 0.2, 0.1), seed=5))
        assert res.runner_up_margin >= 0.0
        assert 0.0 <= res.similarity <= 1.0

    def test_tie_breaks_to_smallest_id(self):
        ds = Dataset()
        same = cloud((0.4, 0.2, 0.1), seed=6)
        ds.ingest("open bottle", same, traj(), demo_id="zz")
        ds.ingest("open bottle", same, traj(), demo_id="aa")
        res = hierarchical_retrieve(ds, "open bottle", same)
        assert res.demo_id == "aa"
        assert res.runner_up_margin == 0.0

    def test_brute_force_oracle(self, dataset, rng):
        for trial in range(50):
            query = cloud(
                (rng.uniform(0.1, 0.7), rng.uniform(0.1, 0.35), rng.uniform(0.05, 0.2)),
                seed=100 + trial,
            )
            res = hierarchical_retrieve(dataset, "open bottle", query)
            emb = occupancy_embedding(query, dataset.grid)
            best = max(
                sorted(i for i in dataset.demos if dataset.demos[i].micro_skill == "open bottle"),
                key=lambda i: (cosine_similarity(emb, dataset.demos[i].embedding), [-ord(c) for c in i]),
            )
            assert res.demo_id == best

    def test_language_isolation(self, dataset):
        query = cloud((0.3, 0.2, 0.1), seed=42)
        before = hierarchical_retrieve(dataset, "open bottle", query)
        # flood the dataset with other-skill demos near the query
        for k in range(10):
            dataset.ingest("fold towel", cloud((0.3, 0.2, 0.1), seed=200 + k), traj())
        after = hierarchical_retrieve(dataset, "open bottle", query)
        assert after == before

    def test_determinism(self, dataset):
        query = cloud((0.5, 0.25, 0.1), seed=77)
        a = hierarchical_retrieve(dataset, "open bottle", query)
        b = hierarchical_retrieve(dataset, "open bottle", query)
        assert a == b


class TestRankCandidates:
    def test_descending_order(self, dataset):
        ranking = rank_candidates(dataset, "open bottle", cloud((0.4, 0.25, 0.1), seed=8))
        sims = [s for _, s in ranking]
        assert sims == sorted(sims, reverse=True)
        assert len(ranking) == 2

    def test_geometry_pose_tradeoff_witness(self):
        # same instance far away vs. different instance nearby: selection must
        # follow the brute-force cosine ranking, whichever side wins
        ds = Dataset()
        instance_a = cloud((0.2, 0.1, 0.1), seed=21)
        ds.ingest("lift mug", instance_a, traj(), demo_id="far-same")
        ds.ingest("lift mug", cloud((0.45, 0.22, 0.1), seed=22, n=80), traj(), demo_id="near-other")
        query = cloud((0.45, 0.22, 0.1), seed=23)
        res = hierarchical_retrieve(ds, "lift mug", query)
        emb = occupancy_embedding(query, ds.grid)
        sims = {i: cosine_similarity(emb, d.embedding) for i, d in ds.demos.items()}
        assert res.demo_id == max(sorted(sims), key=lambda i: sims[i])
