"""Exact-arithmetic quiver mutation, period-2 quiver search, and the
associated T- and Y-systems."""

from .quiver import (
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    Permutation,
    QuiverError,
    epsilon,
    find_relabeling,
    is_connected,
    is_period1,
    is_period2,
    mu1_partner,
    mutate,
    period1_from_row,
    permute,
)
from .cluster import (
    LaurentPoly,
    NonLaurentError,
    OrbitTrace,
    Seed,
    laurent_check,
    mutate_seed,
    run_orbit,
)
from .families import (
    FamilyId,
    families_of,
    family_spec,
    generate_family,
    regression_instances,
    verify_theorem,
)
from .search import SearchJob, residual, residual_report, search
from .systems import (
    BUILTIN_TEMPLATES,
    EquationSpec,
    PeriodicQuantityTemplate,
    SystemSpec,
    check_TZ_condition,
    extract_system,
    g_exponent,
    h_exponent,
    initial_window_from_seed,
    iterate_system,
    parse_template,
    required_window,
    tabulate_system,
    template_search,
    verify_periodic,
)
from .reductions import somos_reduce, verify_section

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
