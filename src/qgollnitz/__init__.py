"""Exact q-series engine and verification harness for a doubly bounded
key identity behind the big Gollnitz partition theorem."""

__version__ = "0.1.0"

from .qcore import (BivarLaurent, LaurentPoly, NegativeExponent,
                    NonUnitConstantTerm, TruncSeries, parse_poly, q_power,
                    render_poly)
from .qcomb import (NegativeLength, check_multinom_recurrence, check_qpascal,
                    poch_qpow, qbinom, qbinom_base, qbinom_is_nonzero,
                    qbinom_q1, qmultinom, triangular)
from .keyid import (Sextuple, boundary_value, check_boundary, check_key,
                    check_key_limit, check_recurrence_andrews,
                    check_recurrence_g, check_recurrence_p, check_schur_case,
                    check_support, closed_form_diag, enumerate_sextuples,
                    key_limit_lhs, key_limit_rhs, lhs_g, lhs_g_parts, rhs_p)
from .partcomb import (Color, ColoredPartition, InvalidImage, NotType1,
                       PreconditionViolated, StaircaseImage, check_remark3,
                       check_theorem1, count_G, count_P, gollnitz_B,
                       gollnitz_C, is_c_partition, is_type1, iter_type1,
                       iter_type1_all, remark3_transform, staircase_forward,
                       staircase_inverse)
from .corollaries import (Decuple, bounded_jtp_lhs, bounded_jtp_rhs,
                          carl_poly_sides, carlitz_sides, check_bounded_jtp,
                          enumerate_decuples, false_theta_sides,
                          four_param_sides, jacobi_cube_poly_sides,
                          jacobi_cube_series, jtp_series)
