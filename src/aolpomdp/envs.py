"""Grid-world navigation POMDPs: beacon navigation and the tunnel variant.

States are grid cells (row-major, index = y * width + x), actions are the
four compass moves, observations are grid cells plus a distinguished null
observation emitted deterministically out of beacon range.  Transition mass
that would leave the grid or enter an obstacle folds into staying in place.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscretePomdp

ACTIONS = ((0, -1), (0, 1), (-1, 0), (1, 0))   # up, down, left, right
ACTION_NAMES = ("up", "down", "left", "right")

# Observation error floor/ceiling; the beacon range is the distance at which
# the error probability would exceed the ceiling.
P_ERR_FLOOR = 0.1
P_ERR_CEIL = 0.9
P_ERR_SLOPE = 0.15


@dataclass(frozen=True)
class GridWorldSpec:
    width: int = 20
    height: int = 20
    beacons: tuple = ((3, 3),)
    obstacles: tuple = ((2, 3), (2, 4), (9, 3))
    goal: tuple = (7, 5)
    start: tuple = (1, 3)
    p_intended: float = 0.5
    p_adjacent: float = 0.2
    p_stay: float = 0.3
    r_goal: float = 200.0
    r_obstacle: float = -30.0
    r_step: float = -0.5
    dist_reward_scale: float = 15.0
    reward_offset: float = 0.0
    horizon: int = 3
    paper_obs_model: bool = False   # literal min{0.9, 1 - 0.15 d} error formula

    def __post_init__(self):
        if abs(self.p_intended + self.p_adjacent + self.p_stay - 1.0) > 1e-9:
            raise ValueError("transition probabilities must sum to 1")
        cells = [("goal", self.goal), ("start", self.start),
                 *(("beacon", c) for c in self.beacons),
                 *(("obstacle", c) for c in self.obstacles)]
        for kind, (x, y) in cells:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"{kind} cell {(x, y)} is out of bounds")
        if self.goal in set(self.obstacles):
            raise ValueError("goal must not be an obstacle")
        if self.start in set(self.obstacles):
            raise ValueError("start must not be an obstacle")

    def index(self, cell) -> int:
        x, y = cell
        return y * self.width + x

    def cell(self, index: int):
        return (index % self.width, index // self.width)

    @property
    def num_cells(self) -> int:
        return self.width * self.height

    @property
    def null_observation(self) -> int:
        return self.num_cells


def _manhattan(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _obs_error(spec: GridWorldSpec, cell) -> float:
    d = min(_manhattan(cell, b) for b in spec.beacons)
    if spec.paper_obs_model:
        return min(P_ERR_CEIL, 1.0 - d * P_ERR_SLOPE)
    return float(np.clip(d * P_ERR_SLOPE, P_ERR_FLOOR, P_ERR_CEIL))


def _in_beacon_range(spec: GridWorldSpec, cell) -> bool:
    d = min(_manhattan(cell, b) for b in spec.beacons)
    return d * P_ERR_SLOPE <= P_ERR_CEIL


def _valid(spec: GridWorldSpec, cell, blocked) -> bool:
    x, y = cell
    return 0 <= x < spec.width and 0 <= y < spec.height and cell not in blocked


def build_beacon_pomdp(spec: GridWorldSpec) -> DiscretePomdp:
    """Dense tabular model of the beacon navigation problem."""
    n = spec.num_cells
    blocked = set(spec.obstacles)
    transition = np.zeros((len(ACTIONS), n, n))
    for a, (dx, dy) in enumerate(ACTIONS):
        for s in range(n):
            x, y = spec.cell(s)
            intended = (x + dx, y + dy)
            stay_mass = spec.p_stay
            if _valid(spec, intended, blocked):
                transition[a, s, spec.index(intended)] += spec.p_intended
            else:
                stay_mass += spec.p_intended
            # lateral slip: the two cells orthogonally adjacent to the target
            perp = (dy, dx)
            for sign in (1, -1):
                adj = (intended[0] + sign * perp[0], intended[1] + sign * perp[1])
                if _valid(spec, adj, blocked) and spec.p_adjacent > 0.0:
                    transition[a, s, spec.index(adj)] += spec.p_adjacent / 2.0
                else:
                    stay_mass += spec.p_adjacent / 2.0
            transition[a, s, s] += stay_mass

    observation = np.zeros((n, n + 1))
    for s in range(n):
        cell = spec.cell(s)
        if not _in_beacon_range(spec, cell):
            observation[s, spec.null_observation] = 1.0
            continue
        p_err = _obs_error(spec, cell)
        leftover = 0.0
        for dx, dy in ACTIONS:
            nb = (cell[0] + dx, cell[1] + dy)
            if _valid(spec, nb, set()):
                observation[s, spec.index(nb)] = p_err / 4.0
            else:
                leftover += p_err / 4.0
        observation[s, s] = 1.0 - p_err + leftover

    reward = np.zeros((n, len(ACTIONS)))
    for s in range(n):
        cell = spec.cell(s)
        r = spec.r_step + spec.dist_reward_scale / (1.0 + _manhattan(cell, spec.goal))
        if cell == spec.goal:
            r += spec.r_goal
        if cell in blocked:
            r += spec.r_obstacle
        reward[s, :] = r + spec.reward_offset

    initial = np.zeros(n)
    initial[spec.index(spec.start)] = 1.0
    r_max = float(np.abs(reward).max())
    return DiscretePomdp(transition, observation, reward, initial,
                         spec.horizon, r_max)


def tunnel_spec(length: int = 12, start_col: int = 8, reward_offset: float = 31.0,
                horizon: int = 2) -> GridWorldSpec:
    """Corridor layout: a single horizontal tunnel walled above and below,
    beacon at the entrance, goal at the far end, rewards shifted non-negative."""
    row = 1
    obstacles = tuple((x, row - 1) for x in range(length)) + \
        tuple((x, row + 1) for x in range(length))
    return GridWorldSpec(
        width=length, height=3, beacons=((0, row),), obstacles=obstacles,
        goal=(length - 1, row), start=(start_col, row),
        p_intended=0.85, p_adjacent=0.0, p_stay=0.15,
        reward_offset=reward_offset, horizon=horizon)


def build_tunnel_pomdp(spec: GridWorldSpec) -> DiscretePomdp:
    """Tunnel variant: beacon model with a positivity check on the rewards."""
    model = build_beacon_pomdp(spec)
    if float(model.reward.min()) < 0.0:
        raise ValueError(
            f"reward offset {spec.reward_offset} leaves negative rewards "
            f"(min={model.reward.min():.3g}); increase the offset")
    return model


@dataclass
class GridEnvironment:
    """Single-owner stepping environment over a built model."""

    model: DiscretePomdp
    spec: GridWorldSpec
    rng: np.random.Generator
    step_limit: int = 100
    state: int = field(init=False)
    steps: int = field(init=False, default=0)

    def __post_init__(self):
        self.reset()

    def reset(self) -> None:
        self.state = int(np.argmax(self.model.initial_belief))
        self.steps = 0

    def step(self, action: int):
        reward = float(self.model.reward[self.state, action])
        self.state = int(self.rng.choice(
            self.model.num_states, p=self.model.transition[action, self.state]))
        observation = int(self.rng.choice(
            self.model.num_observations, p=self.model.observation[self.state]))
        self.steps += 1
        done = (self.spec.cell(self.state) == self.spec.goal
                or self.steps >= self.step_limit)
        return observation, reward, done
