"""Stability certification for planar periodic Hamiltonian systems with
impulsive state jumps: period-map computation, multiplier classification,
sufficient stability criteria with margins, a two-zero inequality with a
disconjugacy certificate, and a seeded validation harness."""

from .piecewise import (CumulativeIntegral, EvaluationError, FuncSegment, LEFT,
                        PiecewiseFunction, PolySegment, RIGHT, integrate_periodic)
from .system import (Impulse, ImpulseSchedule, ImpulsiveSystem, InvalidSystemError,
                     jump_matrix, time_shift, validate_system)
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .propagation import (DensePath, FundamentalMatrix, IntegrationFailureError,
                          MonodromyResult, State, floquet_multipliers,
                          fundamental_matrix, monodromies, monodromy, propagate_state)
from .floquet import (BOUNDARY_UNDECIDED, CONDITIONALLY_STABLE, NOT_STABLE_DET,
                      STABLE, UNSTABLE, StabilityVerdict, classify, growth_bound)
from .criteria import (CERTIFIED, INCONCLUSIVE, NOT_APPLICABLE, Condition,
                       ConditionCStatus, CriterionReport, any_certified,
                       check_guseinov_kaymakcalan, check_guseinov_zafer,
                       check_guseinov_zafer_boundary, check_krein, check_main,
                       check_main_boundary, check_wang, condition_C_status,
                       evaluate_all, evaluate_many)
from .lyapunov import (DISCONJUGATE, DISCONJUGATE_CERTIFIED, NOT_DISCONJUGATE,
                       DisconjugacyCheck, LyapunovWitness, RescaledSolution,
                       ZeroPair, disconjugacy_oracle, disconjugacy_test,
                       find_zero_pair, find_zero_pairs, lyapunov_lhs, lyapunov_verify)
from .harness import (GeneratorSpec, GenerationError, LyapunovSummary,
                      SoundnessSummary, generate, lyapunov_sweep, soundness_sweep)
from .descriptors import (DescriptorError, load_system, set_descriptor_value,
                          system_from_descriptor, system_to_descriptor)

__version__ = "0.1.0"
