"""chernlab: exact computational algebra for formal group laws, divisor
calculus, representation rings and generalized character censuses.

The package is organized around eight pieces:

- field / poly / groebner / symfunc: exact finite-field linear and polynomial
  algebra (Buchberger bases, quotient rings, socles, symmetric functions)
- fgl: truncated formal group laws (the height-n laws and the multiplicative
  law) with cached multiplication series
- lattice: the Lambda-semiring of divisors on the torsion lattice, Newton
  conversion between lambda- and psi-sequences, unit evaluations
- cyclotomic / repring: exact character theory and representation rings,
  with builtin tables and restriction kernels
- omega: censuses of homomorphism data and the comparison maps
- divisor / presentation: scheme-side divisors via splitting towers and
  presentations of Chern-class rings
- pipelines / xspec / acceptance: the machine-checked certificates
- cli: the `chernlab` command
"""

from .cert import Certificate
from .divisor import (
    DivisorPoly,
    divisor_from_roots,
    divisor_lambda,
    divisor_mul,
    divisor_psi,
)
from .fgl import FGL, honda_fgl, multiplicative_fgl
from .field import GF, FiniteField
from .groebner import (
    GroebnerBasis,
    QuotientRing,
    buchberger,
    normal_form,
    standard_monomials,
)
from .groups import GroupModel, builtin_model
from .lattice import (
    LatticeDivisor,
    Theta,
    newton_lambda_to_psi,
    newton_psi_to_lambda,
)
from .omega import (
    enumerate_omega,
    enumerate_omega_ch,
    enumerate_omega_dprime,
    enumerate_omega_prime,
    kappa,
    xi_class_maps,
)
from .poly import MonomialOrder, Poly, PolyRing, parse_poly
from .presentation import Presentation, build_presentation
from .repring import (
    CharacterTable,
    RepRing,
    VirtualRep,
    builtin_fusion,
    builtin_group,
    restriction_kernel,
)
from .symfunc import elementary_symmetric, symmetrize
from .table_io import ingest_table, table_from_json, table_to_json
from .xspec import enumerate_U, extraspecial_table_checks, xspec_census

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CharacterTable",
    "DivisorPoly",
    "FGL",
    "FiniteField",
    "GF",
    "GroebnerBasis",
    "GroupModel",
    "LatticeDivisor",
    "MonomialOrder",
    "Poly",
    "PolyRing",
    "Presentation",
    "QuotientRing",
    "RepRing",
    "Theta",
    "VirtualRep",
    "buchberger",
    "build_presentation",
    "builtin_fusion",
    "builtin_group",
    "builtin_model",
    "divisor_from_roots",
    "divisor_lambda",
    "divisor_mul",
    "divisor_psi",
    "elementary_symmetric",
    "enumerate_U",
    "enumerate_omega",
    "enumerate_omega_ch",
    "enumerate_omega_dprime",
    "enumerate_omega_prime",
    "extraspecial_table_checks",
    "honda_fgl",
    "ingest_table",
    "kappa",
    "multiplicative_fgl",
    "newton_lambda_to_psi",
    "newton_psi_to_lambda",
    "normal_form",
    "parse_poly",
    "restriction_kernel",
    "standard_monomials",
    "symmetrize",
    "table_from_json",
    "table_to_json",
    "xi_class_maps",
    "xspec_census",
]
