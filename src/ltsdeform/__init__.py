"""Exact-arithmetic Lie triple systems, equivariant Yamaguti cohomology,
and truncated formal deformations."""

from importlib import resources

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .cohomology import (CochainBasis, CochainComplex, CohomologyReport, SpanError,
                         apply_coboundary, coboundary_matrix, cochain_space_basis,
                         cochain_violations, cohomology, is_coboundary, is_cocycle)
from .deformation import (DeformationError, EquivalenceResult, FormalIsomorphism,
                          ObstructionResult, RigidityReport, TruncatedDeformation,
                          apply_isomorphism, check_deformation_equations,
                          check_equivalence, extend, infinitesimal,
                          make_deformation, make_formal_isomorphism, obstruction,
                          pad_deformation, rigidity_certificate, trivialize)
from .groups import (GroupAction, GroupActionError, ModuleAction,
                     make_group_action, make_module_action, self_module_action,
                     sign_action, transpose_action_on_rect, trivial_action)
from .linalg import (LinAlgError, Matrix, PrimeField, QQ,
                     RationalField, field_from_spec, rank, solve)
from .lts import (AxiomReport, BuildError, LieTripleSystem, LtsModule,
                  StructureTensor, Violation, from_lie_algebra, function_lts,
                  make_system, matrix_lts, meson, rect_lts, self_module,
                  skew_lts, sl2_brackets, sym_lts, verify_lts, verify_module)

__version__ = "0.1.0"


def bundled_path(name):
    """Filesystem path of a bundled example document."""
    return resources.files(__package__) / "data" / name
