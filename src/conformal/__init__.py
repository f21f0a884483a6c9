"""Exact-arithmetic universal conformal (Cayley-Klein) geometries.

Builds, classifies and measures conformal geometries over the
rationals (standing in for the reals), odd prime fields, and the
perfect fields F_2 and F_4, with brute-force-verifiable enumeration
throughout.
"""

from .fields import (ApproxReal, CharTwo, ConformalError, Field,
                     FieldMismatchError, PrimeField, Rational, Scalar,
                     SquareClass, UnsupportedFieldError, canonical_nonresidue,
                     field_from_token, sqrt_if_square, square_class)
from .quadform import (Diagonalization, GenOrthoBasis, QuadraticForm,
                       arf_invariant, bilinear_radical, diagonalize,
                       det_class, extend_isometry,
                       generalized_orthogonal_basis, is_nondegenerate_form,
                       isometric, represents, signature, witt_index,
                       witt_index_bruteforce)
from .geometry import (Geometry, ProjPoint, Role, Subcycle, Subspace,
                       antipodal, cayley_klein_points, hyperplane_through,
                       incident, intersect_hyperplanes,
                       inversive_separation, lie_quadric_points,
                       non_degenerate_geometry, non_empty, points_of,
                       pointspace, project_cycle, project_cycle_raw,
                       quasi_ideal, relative_power, role, span_subcycle)
from .metric import (LineGroupClass, MotionElement, compose, gamma_class,
                     invert, line_space, same_distance, stabilizer_group,
                     translation_between)
from .classify import (GeometryClass, ck_table, classify, cycle_equivalent,
                       cycle_equivalence_partners, enumerate_classes,
                       representative_geometry, second_model)
from .models import (ModelKind, ModelObject, check_separation,
                     exact_model_geometry, lift_cycle, lift_line, lift_point,
                     model_geometry)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
