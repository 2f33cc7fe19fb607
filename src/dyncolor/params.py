"""Global parameter set shared by all subsystems.

Two profiles exist.  The ``paper`` (analysis-grade) profile derives every
threshold from (epsilon, tau) with the full-strength constants; it
requires epsilon < 3/50 and tau = epsilon/3 and is only meaningful for
very large graphs.  The ``desk`` profile keeps the same formulas but lets
every derived quantity be pinned to a small value so that all code paths
are reachable at n up to a few thousand.

Three constants of the construction are fixed rather than settable:
`CONFIDENCE_C`, the constant c in the derived sample count
k = 12 c ln(n) / tau^2; `DISPATCH_FRAC`, the non-edge matching size, as a
fraction of delta, from which a blank clique member draws its color at
random; and `HEAVY_FRAC`, the edge count into a clique, as a fraction of
delta, above which a color is heavy for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

E6 = math.e ** 6

PAPER = "paper"
DESK = "desk"

CONFIDENCE_C = 3.0
DISPATCH_FRAC = 0.1
HEAVY_FRAC = 0.01


@dataclass
class ParamSet:
    profile: str = DESK
    epsilon: float = 0.2
    tau: float | None = None  # default epsilon / 3
    nu: float | None = None  # clique-collapse fraction; default 2*epsilon/3
    phase_len_t: int | None = None  # None -> derived
    sample_count_k: int | None = None  # None -> derived
    cap_factor: int = 64  # rejection-loop cap = cap_factor * ceil(log2(n+2))
    fire_threshold: float | None = None  # None -> max(1, tau * delta / 8)
    regime_frac: float | None = None  # small/large matching split; default epsilon^2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.tau is None:
            self.tau = self.epsilon / 3.0
        # tau = 0 would divide by zero in the derived sample count
        if not (0.0 < self.tau <= self.epsilon):
            raise ValueError("tau must lie in (0, epsilon]")
        if self.nu is None:
            self.nu = 2.0 * self.epsilon / 3.0
        # below these bounds nu and fire_threshold would be read as a limit
        # of 1, the rejection loop makes no attempt, k = 0 befriends every
        # edge, and a phase needs at least one update
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        if self.fire_threshold is not None and self.fire_threshold < 1:
            raise ValueError("fire_threshold must be at least 1")
        if self.cap_factor < 1:
            raise ValueError("cap_factor must be at least 1")
        if self.sample_count_k is not None and self.sample_count_k < 1:
            raise ValueError("sample_count_k must be at least 1")
        if self.phase_len_t is not None and self.phase_len_t < 1:
            raise ValueError("phase_len_t must be at least 1")
        if self.profile == PAPER:
            if not self.epsilon < 3.0 / 50.0:
                raise ValueError("paper profile requires epsilon < 3/50")
            if abs(self.tau - self.epsilon / 3.0) > 1e-12:
                raise ValueError("paper profile requires tau = epsilon/3")
        elif self.profile != DESK:
            raise ValueError(f"unknown profile {self.profile!r}")

    # ---- scale constants ------------------------------------------------

    def c_scale(self, i: int) -> float:
        """Friendship scale i in {1,2,3}: c_i = i*epsilon + tau."""
        return i * self.epsilon + self.tau

    @property
    def c3(self) -> float:
        return self.c_scale(3)

    # ---- derived thresholds ---------------------------------------------

    def sample_count(self, n: int) -> int:
        if self.sample_count_k is not None:
            return self.sample_count_k
        k = math.ceil(12.0 * CONFIDENCE_C * math.log(max(n, 2)) / self.tau**2)
        if self.profile == DESK:
            # k sets no number of draws: it sets the verdict law's tails,
            # a row of which walks about sqrt(k) terms, and the charge per
            # estimate; the clamp keeps the desk runs' recorded streams
            k = min(k, 96)
        return max(k, 4)

    def phase_len(self, delta: int) -> int:
        if self.phase_len_t is not None:
            return self.phase_len_t
        t = math.floor(self.epsilon**2 * delta / (18.0 * E6))
        if self.profile == DESK:
            t = max(t, 16, delta // 8)
        return max(t, 1)

    def fire_limit(self, delta: int) -> float:
        if self.fire_threshold is not None:
            return self.fire_threshold
        return max(1.0, self.tau * delta / 8.0)

    def collapse_limit(self, delta: int) -> float:
        return max(1.0, self.nu * delta)

    def regime_limit(self, delta: int) -> float:
        frac = self.regime_frac if self.regime_frac is not None else self.epsilon**2
        return frac * delta

    def dispatch_limit(self, delta: int) -> float:
        return DISPATCH_FRAC * delta

    def heavy_limit(self, delta: int) -> float:
        return HEAVY_FRAC * delta

    def loop_cap(self, n: int) -> int:
        return self.cap_factor * math.ceil(math.log2(n + 2))


def auto_epsilon(n: int, delta: int) -> float:
    """Balanced setting epsilon = delta^(1/5) / n^(2/5)."""
    return delta ** 0.2 / n ** 0.4


def trivial_cutoff(n: int) -> float:
    """Degree cap below which the plain rescan baseline is already fast."""
    return n ** (8.0 / 9.0)
