"""Demonstration retrieval, registration and trajectory transfer toolkit."""

from .se3 import Pose, PointCloud, compose, invert, transform_cloud, pose_distance, interpolate
from .demos import Dataset, Demonstration, EndEffectorState, parse_micro_skill, resample_trajectory, alignment_target, save_dataset, load_dataset
from .embedding import GeometryEmbedding, occupancy_embedding, cosine_similarity
from .retrieval import RetrievalResult, language_filter, hierarchical_retrieve
from .registration import GicpParams, RegistrationResult, coarse_align, estimate_covariances, generalized_icp, estimate_delta
from .policies import (
    transfer_alignment_pose,
    plan_linear_path,
    build_replay_plan,
    execute_replay,
    simulate_alignment_trajectories,
    mask_augment,
    jitter_cloud,
)
from .simbench import (
    Benchmark,
    ObjectInstance,
    SceneSpec,
    TaskSpec,
    RolloutResult,
    generate_object,
    render_partial_cloud,
    randomize_scene,
    run_rollout,
    classify_failure,
)
from .stats import (
    ExperimentConfig,
    SuccessTable,
    wilson_interval,
    two_proportion_z_test,
    run_experiment,
    emit_report,
)

__version__ = "0.1.0"
