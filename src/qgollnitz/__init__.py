"""Exact q-series engine and verification harness for a doubly bounded
key identity behind the big Gollnitz partition theorem."""

__version__ = "0.1.0"

from .qcore import (LaurentPoly, NegativeExponent, NonUnitConstantTerm,
                    TruncSeries, parse_poly, q_power, render_poly)
from .qcomb import (NegativeLength, qbinom, qbinom_is_nonzero, qbinom_q1,
                    qmultinom, triangular)
from .keyid import (Sextuple, boundary_sides, boundary_value, check_key,
                    check_schur_case, check_support, closed_form_diag,
                    enumerate_sextuples, key_limit_lhs, key_limit_rhs,
                    key_limit_sides, lhs_g, rhs_p)
from .partcomb import (Color, ColoredPartition, InvalidImage, NotType1,
                       PreconditionViolated, StaircaseImage, check_remark3,
                       check_theorem1, gollnitz_B,
                       gollnitz_C, is_c_partition, is_type1, iter_type1,
                       iter_type1_all, remark3_transform, staircase_forward,
                       staircase_inverse)
from .corollaries import (Decuple, bounded_jtp_lhs, bounded_jtp_rhs,
                          bounded_jtp_sides, carl_poly_sides, carlitz_sides,
                          check_carlitz, enumerate_decuples, false_theta_sides,
                          four_param_sides, jacobi_cube_poly_sides,
                          jacobi_cube_series, jtp_series)
