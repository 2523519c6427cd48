"""coarsetd: tree decompositions, quasi-isometries, and width-reducing
coarsening pipelines for finite graphs."""

from .errors import (
    BudgetExceededError,
    CoarseTDError,
    CompositionMismatchError,
    DiameterExceededError,
    DisconnectedError,
    EmptySetError,
    InvalidDecompositionError,
    InvalidMapError,
    InvalidParamsError,
    InvalidPartitionError,
    MalformedDecompositionError,
    NotWithinError,
    ParseError,
    PreconditionError,
    TooLargeError,
)
from .graph import (
    Graph,
    induced_subgraph,
    is_bipartite,
    is_tree,
    power_graph,
    weak_diameter,
)
from .exact import (
    DEFAULT_CAP,
    TREEWIDTH_CAP,
    dominating_mask,
    exact_chromatic_number,
    exact_treewidth,
    independent_mask,
    induced_masks,
    maximum_independent_set,
    minimum_dominating_set,
)
from .decomposition import (
    BagMetrics,
    BagStat,
    CentredDecompositionResult,
    CentredResult,
    TreeDecomposition,
    ValidationReport,
    bag_metrics,
    centred_check,
    centred_check_decomposition,
    decomposition_from_order,
    validate_decomposition,
)
from .quasiiso import (
    QuasiIsometryMap,
    compose,
    identity_map,
    measure,
    pullback_decomposition,
    qi_constant,
)
from .pipeline import (
    BipartitePartitionResult,
    IndToTwResult,
    Partition,
    PipelineComponentRun,
    PipelineReport,
    augment,
    bipartite_partition,
    ind_to_tw,
    minimum_diameter_bipartite_partition,
    push_decomposition,
    quotient_map,
    run_pipeline,
)
from .simwidth import (
    SIMVAL_CAP,
    BranchDecomposition,
    SimwidthReport,
    branch_width_sim,
    dominating_partition,
    sim_to_td,
    simval,
    simwidth_pipeline,
)
from .generators import (
    FAMILIES,
    CorpusInstance,
    coarsen_decomposition,
    generate_corpus,
    random_branch_decomposition,
    random_connected_graph,
)
from .report import Report, digest

__version__ = "0.1.0"
