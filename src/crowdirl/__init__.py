"""Multi-agent maximum-entropy IRL for pedestrian crowds.

Learns per-agent cost weights from demonstrated trajectories by matching
feature expectations of entropy-regularized linear-quadratic game policies,
and evaluates the learned behavior against demonstrations and classical
baselines.
"""

from .baselines import (
    EnergyParams,
    GmmModel,
    action_grid,
    ebm_argmin,
    ebm_minimizer,
    ebm_train,
    gmm_conditional_mean,
    gmm_fit,
)
from .errors import (
    CostRangeError,
    CrowdIrlError,
    FormatError,
    InternalError,
    SolverError,
    ValidationError,
)
from .features import CostParams, expected_features
from .game import (
    Game,
    PolicySequence,
    SolverConfig,
    SolverDiagnostics,
    build_policies,
    condition_covariance,
    mean_rollout,
    min_eigenvalue,
    sample_rollouts,
    solve_lq_game,
    solve_scenario,
)
from .irl import (
    TrainingConfig,
    TrainingTrace,
    infer_goals,
    multi_agent_irl,
    single_agent_maxent_irl,
)
from .metrics import (
    CdfSeries,
    EntropyReport,
    MetricReport,
    PredictorContext,
    ade,
    efe,
    emit_report,
    evaluate_method,
    fde,
    make_predictor,
    rmse,
    rmse_cdf,
    trajectory_entropy,
)
from .pipeline import (
    PreprocessConfig,
    RawFrame,
    RawFrameObject,
    ScenarioCatalog,
    Track,
    combinatorial_scenarios,
    direction_catalog,
    filter_tracks,
    parse_frames,
    read_demonstrations,
    synth_generate,
    tracks_from_frames,
    write_catalog,
    write_demonstrations,
)
from .quadratic import CostExpansion
from .trajectory import (
    AgentState,
    RolloutSet,
    ScenarioSpec,
    constant_velocity_rollout,
    rollout_openloop,
)

__version__ = "0.1.0"
