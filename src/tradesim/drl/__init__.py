"""PPO scheduler with a dueling value decomposition, written on top of small
fully-connected networks implemented in this package."""

from .policy import (  # noqa: F401
    ActionLayout,
    CategoricalHead,
    DuelingHead,
    GaussianHead,
    PolicyCore,
    SchedulerPolicy,
    StateEncoder,
)
from .ppo import (  # noqa: F401
    PPOTrainer,
    TrainConfig,
    Trajectory,
    compute_returns_and_advantages,
    ppo_loss,
    train_scheduler,
    value_loss_and_gradients,
)
