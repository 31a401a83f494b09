"""DDPG configuration optimizer in the style of CDBTune (Zhang et al. 2019).

The actor maps the DBMS internal-metrics state (27 system-wide metrics,
Section 6.4 of the paper) to a knob configuration; the critic scores
(state, action) pairs.  Rewards follow CDBTune's formulation, combining the
performance change against the initial configuration and against the
previous iteration.

Suggestions are per step: :meth:`DDPGOptimizer.suggest_prepare` resolves
every round to one configuration and remembers its unit-cube action, so
the paired observe can store the replay transition; ``suggest`` and
``suggest_batch`` reach it through the base class like every optimizer.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.dbms.metrics import METRIC_NAMES, metrics_vector
from repro.optimizers.base import Optimizer, PreparedSuggest
from repro.optimizers.ddpg.networks import MLP, Adam, OrnsteinUhlenbeckNoise
from repro.optimizers.ddpg.replay import ReplayBuffer
from repro.space.configspace import Configuration, ConfigurationSpace


def cdbtune_reward(perf: float, perf_initial: float, perf_previous: float) -> float:
    """CDBTune's reward: improvement vs. the start, modulated by the trend."""
    if perf_initial <= 0 or perf_previous <= 0:
        return 0.0
    delta0 = (perf - perf_initial) / perf_initial
    delta_t = (perf - perf_previous) / perf_previous
    if delta0 > 0:
        return ((1.0 + delta0) ** 2 - 1.0) * abs(1.0 + delta_t)
    return -((1.0 - delta0) ** 2 - 1.0) * abs(1.0 - delta_t)


class DDPGOptimizer(Optimizer):
    """Deep deterministic policy gradient over the knob space.

    The action is a point of the unit hypercube decoded into a
    configuration; the state is the (log-compressed, standardized) internal
    metrics vector from the previous workload run.
    """

    #: The checkpoint seam covers observations, designs, and PCG64 streams
    #: — not the agent's neural state (network weights, Adam moments, the
    #: replay buffer).  Declaring the optimizer non-checkpointable makes
    #: sessions refuse `checkpoint_every` up front instead of resuming
    #: with a silently reset policy.
    checkpointable = False

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int = 0,
        n_init: int = 10,
        hidden_actor: tuple[int, ...] = (128, 128, 64),
        hidden_critic: tuple[int, ...] = (256, 256, 64),
        gamma: float = 0.95,
        tau: float = 0.005,
        batch_size: int = 32,
        train_steps_per_observe: int = 4,
        actor_lr: float = 1e-3,
        critic_lr: float = 1e-3,
    ):
        super().__init__(space, seed=seed, n_init=n_init)
        state_dim = len(METRIC_NAMES)
        action_dim = space.dim
        base = int(self.rng.integers(2**31))
        self.actor = MLP(
            [state_dim, *hidden_actor, action_dim], "sigmoid", seed=base
        )
        self.actor_target = MLP(
            [state_dim, *hidden_actor, action_dim], "sigmoid", seed=base
        )
        self.critic = MLP(
            [state_dim + action_dim, *hidden_critic, 1], None, seed=base + 1
        )
        self.critic_target = MLP(
            [state_dim + action_dim, *hidden_critic, 1], None, seed=base + 1
        )
        self.actor_target.copy_from(self.actor)
        self.critic_target.copy_from(self.critic)
        self.actor_opt = Adam(self.actor.parameters, lr=actor_lr)
        self.critic_opt = Adam(self.critic.parameters, lr=critic_lr)

        self.gamma = gamma
        self.tau = tau
        self.batch_size = batch_size
        self.train_steps_per_observe = train_steps_per_observe
        self.buffer = ReplayBuffer()
        self.noise = OrnsteinUhlenbeckNoise(action_dim, rng=self.rng)

        self._state: np.ndarray | None = None
        self._last_action: np.ndarray | None = None
        self._perf_initial: float | None = None
        self._perf_previous: float | None = None
        # Online standardization of the metrics state.
        self._state_count = 0
        self._state_mean = np.zeros(state_dim)
        self._state_m2 = np.ones(state_dim)

    # --- state handling ----------------------------------------------------

    def _standardize(self, raw: np.ndarray) -> np.ndarray:
        self._state_count += 1
        delta = raw - self._state_mean
        self._state_mean += delta / self._state_count
        self._state_m2 += delta * (raw - self._state_mean)
        std = np.sqrt(self._state_m2 / max(1, self._state_count - 1))
        return (raw - self._state_mean) / np.maximum(std, 1e-6)

    # --- optimizer protocol ---------------------------------------------------

    def state_dict(self) -> dict:
        raise NotImplementedError(
            "DDPG is not checkpointable: its neural state (networks, Adam "
            "moments, replay buffer) is outside the state_dict seam"
        )

    def load_state(self, state: dict, configs, values) -> None:
        raise NotImplementedError(
            "DDPG is not checkpointable: its neural state (networks, Adam "
            "moments, replay buffer) is outside the state_dict seam"
        )

    def suggest_init_batch(self) -> list[Configuration]:
        """DDPG cannot batch its init phase: every suggestion must record
        the matching unit-cube action before the paired observe stores the
        replay transition, so its design points come one per round."""
        return []

    def suggest_prepare(self, q: int = 1) -> PreparedSuggest:
        """One step per round whatever ``q``: each action must be observed
        before the next is drawn, so every round resolves to the single
        next configuration (the session then advances one iteration per
        round) and remembers the unit-cube action behind it.  Design
        points serve until the init phase is over and the first metrics
        state has arrived; then the actor steps."""
        if q < 1:
            raise ValueError("q must be >= 1")
        if len(self._y) >= self.n_init and self._state is not None:
            return self._prepare_model_batch(q)
        vector = self._init_vectors(1)[0]
        self._last_action = self._action_from_vector(vector)
        return PreparedSuggest(q=q, configs=[self.encoding.decode(vector)])

    def _prepare_model_batch(self, q: int) -> PreparedSuggest:
        """The actor's step: its action for the current state plus
        exploration noise."""
        action = self.actor.forward(self._state)[0]
        self._last_action = np.clip(action + 0.2 * self.noise.sample(), 0.0, 1.0)
        vector = self.encoding._from_unit_rows(self._last_action[None])[0]
        return PreparedSuggest(q=q, configs=[self.encoding.decode(vector)])

    def _action_from_vector(self, vector: np.ndarray) -> np.ndarray:
        action = vector.copy()
        for i in np.flatnonzero(self.encoding.is_categorical):
            k = self.encoding.n_categories[i]
            action[i] = (vector[i] + 0.5) / k
        return action

    def observe(
        self,
        config: Configuration,
        value: float,
        metrics: Mapping[str, float] | None = None,
    ) -> None:
        super().observe(config, value, metrics)
        if metrics is None:
            # Without DBMS state the agent cannot learn; keep history only.
            return
        next_state = self._standardize(metrics_vector(metrics))

        if self._perf_initial is None:
            self._perf_initial = value
        reward = cdbtune_reward(
            value, self._perf_initial, self._perf_previous or value
        )
        self._perf_previous = value

        if self._state is not None and self._last_action is not None:
            self.buffer.push(self._state, self._last_action, reward, next_state)
            if len(self.buffer) >= self.batch_size:
                for _ in range(self.train_steps_per_observe):
                    self._train_step()
        self._state = next_state

    # --- learning --------------------------------------------------------------

    def _train_step(self) -> None:
        states, actions, rewards, next_states = self.buffer.sample(
            self.batch_size, self.rng
        )
        # Critic: TD target with target networks.
        next_actions = self.actor_target.forward(next_states)
        target_q = self.critic_target.forward(
            np.hstack([next_states, next_actions])
        )[:, 0]
        y = rewards + self.gamma * target_q

        q = self.critic.forward(np.hstack([states, actions]), remember=True)[:, 0]
        grad_q = ((q - y) / len(y))[:, None]
        critic_grads, __ = self.critic.backward(grad_q)
        self.critic_opt.step(critic_grads)

        # Actor: ascend the critic's value of the actor's actions.
        policy_actions = self.actor.forward(states, remember=True)
        self.critic.forward(np.hstack([states, policy_actions]), remember=True)
        __, grad_input = self.critic.backward(-np.ones((len(states), 1)) / len(states))
        grad_actions = grad_input[:, states.shape[1]:]
        actor_grads, __ = self.actor.backward(grad_actions)
        self.actor_opt.step(actor_grads)

        self.actor_target.copy_from(self.actor, tau=self.tau)
        self.critic_target.copy_from(self.critic, tau=self.tau)
