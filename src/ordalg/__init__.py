"""Ordered semirings, quasirings and skew idempotent functionals.

A desk-scale computer-algebra toolkit: finite structures given by
operation tables, ordinals in Cantor normal form, shifted product
constructions, function spaces, idempotent functionals with their monad
structure, and convolution algebras over groupoid actions.  Every stated
law has an exhaustive or budgeted checker that reports concrete,
re-evaluable counterexample witnesses.
"""

from .errors import (
    CapacityError,
    IncomparableError,
    InputError,
    OrdalgError,
    PreconditionError,
    WindowEscape,
)
from .order import (
    OrderedCarrier,
    OrderRelation,
    check_order_axioms,
    inf_over,
    sup_over,
)
from .report import AxiomReport, Verdict
from .structures import (
    FinStruct,
    Homomorphism,
    boolean_semiring,
    check_homomorphism,
    check_law,
    direct_product,
    maxplus_chain,
    right_dist_only,
    trivial_structure,
)
from .ordinals import (
    MaxReduct,
    ONE,
    Ordinal,
    ZERO,
    format_ordinal,
    omega,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_sup,
    parse_ordinal,
)
from .sproduct import (
    IndexScheme,
    SuppElement,
    find_nonassoc_witness,
    s_mu,
)
from .funcspace import FunctionSpace, KFunction
from .functionals import (
    Dirac,
    Functional,
    InfOver,
    SupOver,
    TableFunctional,
    check_idempotent,
    check_weak_properties,
    enumerate_functionals,
    enumerate_idempotent,
    monad_check,
    pushforward,
    signature,
    support_of,
    supported_on,
    tabulate,
    weighted_combo,
)
from .convolution import (
    ActionSystem,
    ConvAlgebra,
    Groupoid,
    all_kind_functionals,
    apply_T,
    check_action,
    check_ideal,
    check_invariant,
    check_kind,
    check_quasiring,
    convolve,
    dirac_unit,
    invariant_subfamily,
    plus_kind,
    saturate,
    support_bounds,
)

__version__ = "0.1.0"
