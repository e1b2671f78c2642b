"""Evolutionary-game analysis of the generalizability/discriminability
trade-off in two-view representation learning, plus an RL scheduler
that steers the two loss weights toward the game's interior fixed
point."""

from .dynamics import (
    IntegratorConfig,
    Trajectory,
    phase_portrait,
    sample_starts,
    simulate,
    write_trajectories_csv,
)
from .errors import (
    BenchmarkParseError,
    DegenerateFeatureError,
    DegenerateGameError,
    EvolossError,
    MissingRecordError,
    NormalizationError,
    OutOfSimplexError,
    ValidationError,
)
from .game import (
    ZERO_TOL,
    PopulationState,
    check_state,
    field_coefficients,
    replicator_rhs,
    saddle_point,
)
from .lab import (
    LabConfig,
    TrainingLog,
    encoder_forward,
    gen_two_view_batch,
    init_encoder,
    save_encoder_weights,
    train_episode,
    write_training_log,
)
from .losses import (
    DEFAULT_OFFDIAG_WEIGHT,
    DEFAULT_TEMPERATURE,
    LossWeights,
    barlow_twins,
    info_nce,
)
from .metrics import (
    GAP_FLOOR,
    AccuracyRecord,
    BenchmarkTable,
    PayoffParams,
    discriminability,
    game_datasets,
    generalizability,
    is_ensemble_method,
    load_benchmark,
    load_payoff_params,
    negative_impacts,
    payoff_from_benchmarks,
    save_payoff_params,
    table_payoffs,
    write_benchmark,
)
from .scheduler import (
    PolicyParams,
    SchedulerConfig,
    Transition,
    init_policy,
    map_action,
    observe_state,
    policy_act,
    ppo_update,
    reward,
)
from .stability import (
    Equilibrium,
    StabilityClass,
    classify,
    enumerate_equilibria,
    equilibria_table,
    jacobian,
    write_equilibria_csv,
)

__version__ = "0.1.0"
