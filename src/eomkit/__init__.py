"""Exact exchangeable occupancy models and product-form counting processes.

The package keeps every probability as an exact rational: models and
process laws are tables of integer masses over one denominator, read as
``fractions.Fraction`` values, over small combinatorial spaces;
transformations are computed by exact integer summation, and the
verification suites compare tables with zero tolerance.
"""

from .combinat import (
    composition_count,
    enumerate_binary_compositions,
    enumerate_compositions,
    enumerate_labels,
    multinomial,
    phi,
    psi,
    tilde_phi,
)
from .errors import (
    BudgetExceededError,
    ConditioningError,
    EmptySupportError,
    EomkitError,
    NonExchangeableError,
)
from .models import (
    FractionTable,
    LabelDistribution,
    MixingSpec,
    OccupancyDistribution,
    WeightFunction,
    builtin_weight,
    conditional_from_iid,
    is_exchangeable,
    label_distribution,
    label_marginal,
    normalization_constant,
    occupancy_from_labels,
    order_statistics_distribution,
    sample,
    weight_model,
    weight_model_label_density,
)
from .process import (
    FiniteProcess,
    arrival_event_probability,
    build_process,
    check_characterizations,
    check_mixed_geometric_form,
    check_structure_recursion,
    check_weight_model_conditionals,
    classic_uosp_value,
    conditional_jumps_given_count,
    count_distribution,
    interarrival_event_probability,
    joint_jump_density,
    sample_path,
    structure_function,
    terminal_law,
    transition_probability,
)
from .transforms import (
    check_drop_closure,
    condition_on_partial_sum,
    drop_particle,
    erase_cell,
    model_label_marginal,
    partial_sum_conditionals,
    product_form_weights,
)

__version__ = "0.1.0"
