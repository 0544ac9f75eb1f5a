"""Exploration measures for bandit convex optimization.

Builds query distributions that guarantee a fixed probability of
information whenever a competing convex objective dips below the current
one, in one dimension directly and in low dimensions through a
multi-scale geometric pipeline, and plays the resulting two-point bandit
strategy against finite scenario sets.
"""

__version__ = "0.1.0"

from .bandit import (GameParams, LikelihoodModel, Net, RoundRecord,
                     ScenarioSet, TwoPointPlan, build_net, hypothesis_test,
                     loss_values, posterior_update, regret_info, run_game,
                     step1_epsilon, step2_select_point, surrogates,
                     thompson_action, two_point_action)
from .convexfn import (MaxAffineFunction, argmin, smoothed_gradient,
                       sum_functions)
from .errors import (ConfigError, CoverError, DimensionMismatchError,
                     FlatBodyError, InfeasibleBodyError,
                     ObservationMismatchError, StepFailureError)
from .explore1d import (ExplorationMeasure, FiberLift, PointMass,
                        Pushforward, UniformBall, UniformSegment,
                        VerificationReport, build_measure_1d,
                        dyadic_measure_1d, guarantee_threshold_1d,
                        segment_gap_check, verify_exploration)
from .explore_nd import (BuildReport, GammaCover, StableGradientPatch,
                         build_exploratory_measure, build_gamma_cover,
                         caratheodory_reduce, find_stable_gradient_patch,
                         multi_scale_measure, single_scale_measure)
from .geometry import (AffineMap, ConvexBody, MomentEstimate, slab,
                       thinnest_slab, volume_ratio, whitening_map)
from .minnorm import caratheodory_prune, min_norm_point
from .profiles import CALIBRATED, PAPER, ConstantProfile, get_profile

__all__ = [name for name in dir() if not name.startswith("_")]
