"""Exact twisted-polynomial and T-module arithmetic over F_q(T) towers."""

from .errors import (TmlError, FieldMismatch, ShapeMismatch, ZeroDivisor,
                     NotNilpotent, NonInvertibleLeading, SingularSystem,
                     ParseError, BadParameter, CertificateError)
from .fields import (FiniteField, Poly, RatFunc, FieldTower, TowerElement,
                     frobenius, pth_root, substitute, ratfunc_substitute)
from .linalg import (Mat, gauss_solve, gauss_inverse, matrix_rank,
                     kernel_basis)
from .ore import OrePoly, right_divide, left_multiple_witness
from .tmodule import (TModule, ValidityReport, carlitz, carlitz_tensor,
                      drinfeld, product, diagonal_power)
from .subgroups import (KernelSubgroup, Stable, NoWitnessUpTo,
                        ProvablyUnstable, MinimalJScan, minimal_j_scan)
from .structure import (OrePattern, AbelianCertificate,
                        NonabelianCertificate, InconclusiveScan,
                        abelian_scan, degree_sequence, rank_report)
from .exponential import (ExpSeries, exp_series, verify_functional_equation,
                          RestrictionVerdict, RestrictionReport,
                          exp_restriction_check)
from .torsion import (TorsionCertificate, TorsionRefuted, act_on_point,
                      is_torsion, torsion_order_search, degree1_kernel,
                      sqrt_tower, sqrt_twist, frobenius_intertwines,
                      root_of_square_identity, square_root_family,
                      counterexample_module, square_family_points,
                      certify_torsion_subvariety, root_kernel_degrees,
                      TorsionSubvariety)
from .manifest import (Manifest, parse_manifest, load_manifest,
                       manifest_to_text, poly_from_text)
from .corpus import CorpusReport, CorpusResult, run_corpus

__version__ = "0.1.0"
