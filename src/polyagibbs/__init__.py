"""Exact enumeration, Boltzmann-type sampling, and limit-law experiments
for composite combinatorial structures counted up to symmetry."""

from .errors import (
    EmptySize,
    IllFoundedRecursion,
    InnerHasConstantTerm,
    InnerNotSubexponential,
    InsufficientData,
    KeyMismatch,
    PolyaGibbsError,
    PreconditionError,
    RejectionBudgetExceeded,
    SizeGuardExceeded,
    SpecError,
    TailNotControlled,
    ZeroMass,
)
from .series import (
    Evaluation,
    RadiusEstimate,
    TruncatedSeries,
    evaluate,
    geometric,
    radius_estimate,
    series_from_terms,
)
from .cycleindex import (
    multiset_ogf,
    multiset_ogf_product,
    seq_ogf,
)
from .species import (
    ATOM,
    EPSILON,
    Atom,
    AtomMultiplicative,
    Compose,
    Derive,
    Enumerator,
    Epsilon,
    Product,
    Ref,
    SeqOf,
    SetOf,
    Sized,
    SpeciesSpec,
    TableWeight,
    Union,
    UnitWeight,
    Weighted,
    Zero,
    canonicalize,
    derived_spec,
    mark_one_atom,
    forests,
    object_size,
    object_to_string,
    parse_dsl,
    parse_spec,
    polya_trees,
    sized_species,
    spec,
    spec_from_json,
    spec_to_json,
)
from .engine import SeriesEngine, ogf
from .sampler import DiscreteLaw, ExactSampler
from .gibbs import (
    FragmentRecord,
    GibbsModel,
    LimitLaw,
    PLACEHOLDER,
    PgfReport,
    sample_set_symmetry,
    set_symmetry_law,
)
from .asymptotics import (
    RatioLimitReport,
    SubexpReport,
    diagnose_subexponential,
    coefficient_ratio_experiment,
)
from .stats import (
    EmpiricalLaw,
    TrendReport,
    component_count_experiment,
    deviation_radius,
    multinomial_radius,
    remainder_convergence_experiment,
    tv_distance,
)

__version__ = "0.1.0"
