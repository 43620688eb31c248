"""Certified fixed-point solving for integral equations of advanced and
delayed type, with contraction certificates, a-priori error control and
recurrence diagnostics."""

from .paths import (AAADecomposition, DomainEscapeError, SampledPath,
                    TimeWarp, aaa_norm, identity_warp, range_epsilon_net,
                    read_csv, shift_warp, sup_norm, warp_compose, write_csv)
from .quadrature import (DecayEnvelope, EnvelopeConstants, QuadratureError,
                         envelope_constant)
from .kernels import (KernelSpec, SamplePlan, SplitKernelSpec,
                      check_lambda_bound, check_lipschitz, exponential_kernel,
                      gaussian_kernel, convolution_sinusoid_kernel,
                      split_exponential_kernel, zero_kernel)
from .problem import (Nonlinearity, NonlocalMap, ProblemSpec, ProblemError,
                      point_eval_nonlocal, sinusoid_affine, zero_nonlinearity,
                      zero_nonlocal)
from .certify import (CertificationError, ContractionCertificate,
                      certify_ball_zero,
                      certify_bohr_neugebauer_hypotheses, certify_evolution,
                      certify_radius_search, certify_shifted_ball,
                      compute_base_point, compute_envelope_constants)
from .solver import (CertificationRequired, NonContractionError, SolverReport,
                     apply_gamma, apply_mild_evolution, apply_operator,
                     apply_pi, check_integral_inequality, picard_solve,
                     residual)
from .evolution import (EvolutionFamily, MemoryKernel, ResolventOperator,
                        exponential_causal, StabilityCertificate, build_resolvent,
                        certify_stability, cocycle_residual, constant_family,
                        delay_demo_solve, exponential_memory,
                        heat_demo_assemble, scalar_family)
from .diagnostics import (DiagnosticReport, aaa_split_estimate, bochner_test,
                          bohr_neugebauer_verdict, range_compactness_trend)

__version__ = "0.1.0"
