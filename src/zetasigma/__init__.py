"""Exact combinatorics and certified high-precision numerics for
central-binomial sums and symmetric zeta tails.

The package has three layers:

* **combinatorics** — compositions, the word encoding, the duality
  involution and its classes, the boundary parts init/mid/fin, the maps
  ``alpha`` / ``mu`` and the contraction ``delta`` with both a defining
  recursion and a word-splitting formula, plus closed-form families;
* **exact linear algebra** — certified integer kernel/rank computations
  (one elimination modulo a prime, Dixon p-adic lifting, rational
  reconstruction, exact verification and saturation) for the ``alpha``
  and ``delta`` matrices;
* **numerics** — validated arbitrary-precision evaluation of the
  central-binomial sums ``sigma`` and symmetric zeta tails, independent
  oracles, closed-form constant vectors, and integer-entry reductions.
"""

from .compositions import (
    Composition,
    DualityClass,
    depth,
    dual,
    enumerate_compositions,
    fin_part,
    from_word,
    height,
    init_part,
    is_admissible,
    mid_part,
    parse_composition,
    reverse_complement,
    to_word,
    weight,
)
from .lincomb import LinComb, Poly, alpha, class_projection, mu, mu_invert
from .stuffle import boxast, phi, stuffle
from .delta import (
    CLOSED_FAMILIES,
    closed_family,
    delta_class,
    delta_explicit,
    delta_from_word,
    delta_inductive,
    delta_submatrix,
    height_graded_family,
)
from .exact_linalg import (
    KernelCertificate,
    alpha_matrix,
    certified_kernel,
    delta_matrix,
    kernel_of_alpha,
    kernel_of_delta,
    preimage_lattice,
)
from .numerics import (
    PRECISION,
    ApproxReal,
    CapabilityError,
    ConstantBasisVector,
    L_chi3,
    Precision,
    PrecisionCapError,
    bbb_coefficient,
    evaluate_reduction,
    pi,
    reduce_integer_entries,
    sigma_oracle,
    sigma_tail,
    sqrt3,
    th7_coeffs,
    th8_coeffs,
    zagier_coeffs,
    zeta_double_tail_oracle,
    zeta_int,
    zeta_sym_tail,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReal",
    "CLOSED_FAMILIES",
    "CapabilityError",
    "Composition",
    "ConstantBasisVector",
    "DualityClass",
    "KernelCertificate",
    "L_chi3",
    "LinComb",
    "PRECISION",
    "Poly",
    "Precision",
    "PrecisionCapError",
    "alpha",
    "alpha_matrix",
    "bbb_coefficient",
    "boxast",
    "certified_kernel",
    "class_projection",
    "closed_family",
    "delta_class",
    "delta_explicit",
    "delta_from_word",
    "delta_inductive",
    "delta_matrix",
    "delta_submatrix",
    "depth",
    "dual",
    "enumerate_compositions",
    "evaluate_reduction",
    "fin_part",
    "from_word",
    "height",
    "height_graded_family",
    "init_part",
    "is_admissible",
    "kernel_of_alpha",
    "kernel_of_delta",
    "mid_part",
    "mu",
    "mu_invert",
    "parse_composition",
    "phi",
    "pi",
    "preimage_lattice",
    "reduce_integer_entries",
    "reverse_complement",
    "sigma_oracle",
    "sigma_tail",
    "sqrt3",
    "stuffle",
    "th7_coeffs",
    "th8_coeffs",
    "to_word",
    "weight",
    "zagier_coeffs",
    "zeta_double_tail_oracle",
    "zeta_int",
    "zeta_sym_tail",
    "__version__",
]
