"""Certified fixed-point solving for integral equations of advanced and
delayed type, with contraction certificates, a-priori error control and
recurrence diagnostics."""

from .paths import (DomainEscapeError, SampledPath, TimeWarp, identity_warp,
                    read_csv, sup_norm, write_csv)
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
                     apply_mild_evolution, apply_operator,
                     check_integral_inequality, picard_solve)
from .evolution import (EvolutionFamily, MemoryKernel, ResolventOperator,
                        exponential_causal, StabilityCertificate, build_resolvent,
                        certify_decay, certify_stability, constant_family,
                        delay_demo_solve, exponential_memory,
                        heat_demo_assemble, scalar_family)
from .diagnostics import (DiagnosticReport, aaa_split_estimate, bochner_test,
                          bohr_neugebauer_verdict, range_compactness_trend)

__version__ = "0.1.0"
