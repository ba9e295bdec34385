"""frepkit: fractional repetition codes end to end.

Construct codes from Turan graphs, cages, transversal designs, and
projective planes; compute exact storage capacities against every known
bound; simulate the full replication-based storage pipeline (MDS encode,
placement, k-node reconstruction, uncoded repair by transfer); and certify
parallel batch retrieval parameters.
"""

from .analyze import (
    CapacityProfile,
    capacity_profile,
    file_size,
    fr_capacity_bound,
    girth,
    girth_file_size,
    has_k_clique,
    lemma7_flag,
    max_induced_edges,
    mbr_capacity,
    moore_bound,
    td_file_size_lower_bound,
    turan_file_size,
)
from .batch import (
    BatchPlan,
    NoPlan,
    batch_t,
    batch_t_detail,
    frb_certify,
    retrieval_plan,
    theorem5_predicted_t,
)
from .construct import cage, cage_catalog, projective_plane, transversal_design, turan
from .dress import (
    RepairPlan,
    StoredSystem,
    execute_repair,
    load_system,
    plan_repair,
    reconstruct,
    store,
    verify_integrity,
)
from .errors import (
    BudgetExceededError,
    CorruptionError,
    FormatError,
    FrbDefinitionError,
    FrepkitError,
    IrreparableError,
    ParameterError,
)
from .galois import GF, MdsCode, default_field_for
from .incidence import (
    CodeReport,
    Design,
    FrCode,
    Graph,
    TransversalDesign,
    from_design,
    from_graph,
    load,
    save,
    validate,
)

__version__ = "0.1.0"
