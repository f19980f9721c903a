"""Rating-based incentive design for mutual security investment.

Interconnected networks underinvest in outbound traffic control because
the benefit of filtering accrues to the receivers.  This package computes
rating-system designs (assessment period plus rating-contingent prices)
under which deployment is self-enforcing, searches for the best set of
networks to enlist, and validates designs with a seeded repeated-game
simulator.
"""

from . import design, network, sim, strategy
from .design import *  # noqa: F403
from .network import *  # noqa: F403
from .sim import *  # noqa: F403
from .strategy import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*design.__all__, *network.__all__, *sim.__all__,
                  *strategy.__all__})
