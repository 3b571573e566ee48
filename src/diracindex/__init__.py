"""Exact symbolic toolkit for Dirac index polynomials of equal-rank
classical groups: root data, virtual modules for the spin double cover of
the maximal compact subgroup, index families over coherent families,
exact character asymptotics on the compact Cartan, the SU(n,1) character
determinant, and the Springer classification table."""

from .asymptotics import LaurentSeries, LimitReport, character_series, leading_limit, root_ratio
from .dirac import (
    IndexFamily,
    SpinWeights,
    act_on_family,
    discrete_series_family,
    evaluate_index,
    evaluate_q,
    family_combination,
    index_discrete_series,
    index_polynomial,
    is_integral_weyl,
    spin_character_series,
    spin_weights,
    verify_translation,
)
from .groups import (
    Block,
    Family,
    GroupId,
    RootDatum,
    Weight,
    WeylElement,
    build_root_datum,
    dot,
    normalize_k_dominant,
    reflection,
    simple_roots,
    weight_add,
    weyl_elements,
    weyl_order,
)
from .kmodules import (
    VirtualKModule,
    WeightMultiset,
    dim_virtual,
    k_type_sum,
    tensor_virtual,
    weight_multiset,
    weyl_orbit,
)
from .polynomials import (
    LinearForm,
    MultiPoly,
    divides_linear_form,
    extract_linear_factors,
    is_harmonic,
    linear_divisors,
    linear_form_product,
    poly_det,
    restrict_to_hyperplane,
)
from .series import TruncatedSeries
from .springer import (
    Bipartition,
    Partition,
    SpringerRow,
    Symbol,
    bipartition_dim,
    bipartition_of_symbol,
    orbit_dim,
    partition_of_symbol,
    sigma_k_bipartition,
    springer_row,
    springer_table,
    standard_tableaux_count,
    symbol_of_bipartition,
    symbol_of_partition,
    symbols_equivalent,
)
from .suites import SuiteReport, run_suite
from .sun1 import (
    chamber_of,
    char_poly_det,
    degree_report,
    gcd_with_index,
    tau_invariant,
)
from .weylaction import PolySpan, act, orbit_span, weyl_dim_poly, weyl_dim_value

__version__ = "0.1.0"
