"""Random-walk machinery: absorbing-chain analysis and simulation.

``absorbing`` computes the matrix quantities of the paper's section IV
exactly (transition matrix ``M_t``, expected visits, the grounded inverse
``T``); ``spectral`` measures the truncation decay that Theorem 1 bounds;
``simulate`` is a fast vectorized Monte-Carlo engine with the same
sampling semantics as the distributed counting phase.  The walk token's
wire format lives with the protocol's counting engine
(:mod:`repro.core.walk_engine`).
"""

from repro.walks.absorbing import (
    absorption_probability_by_round,
    expected_visits,
    grounded_inverse,
    surviving_mass,
    transition_matrix,
)
from repro.walks.simulate import WalkCounts, simulate_walk_counts
from repro.walks.spectral import (
    decay_rate,
    length_for_epsilon,
    spectral_radius_absorbing,
)
from repro.walks.resistance import (
    commute_time,
    effective_resistance,
    hitting_time,
    laplacian_pseudoinverse,
    resistance_matrix,
)
from repro.walks.variance import (
    relative_visit_dispersion,
    visit_count_variance,
)

__all__ = [
    "WalkCounts",
    "absorption_probability_by_round",
    "commute_time",
    "decay_rate",
    "effective_resistance",
    "expected_visits",
    "grounded_inverse",
    "hitting_time",
    "laplacian_pseudoinverse",
    "length_for_epsilon",
    "relative_visit_dispersion",
    "resistance_matrix",
    "simulate_walk_counts",
    "spectral_radius_absorbing",
    "surviving_mass",
    "transition_matrix",
    "visit_count_variance",
]
