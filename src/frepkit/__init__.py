"""frepkit: fractional repetition codes end to end.

Construct codes from Turan graphs, cages, transversal designs, and
projective planes; compute exact storage capacities against every known
bound; simulate the full replication-based storage pipeline (MDS encode,
placement, k-node reconstruction, uncoded repair by transfer); and certify
parallel batch retrieval parameters.

The package is a lazy namespace (PEP 562): `import frepkit` loads no
submodule.  The first access to a public name imports the submodule that
defines it and binds the name here, so later lookups are plain attribute
reads and each process loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

__all__ = [
    "CapacityProfile", "capacity_profile", "file_size", "fr_capacity_bound", "girth",
    "girth_file_size", "has_k_clique", "lemma7_flag", "max_induced_edges", "mbr_capacity",
    "moore_bound", "td_file_size_lower_bound", "turan_file_size",
    "BatchPlan", "NoPlan", "batch_t", "batch_t_detail", "frb_certify", "retrieval_plan",
    "theorem5_predicted_t",
    "cage", "cage_catalog", "projective_plane", "transversal_design", "turan",
    "RepairPlan", "StoredSystem", "execute_repair", "load_system", "plan_repair",
    "reconstruct", "store", "verify_integrity",
    "BudgetExceededError", "CorruptionError", "FormatError", "FrbDefinitionError",
    "FrepkitError", "IrreparableError", "ParameterError",
    "GF", "MdsCode", "default_field_for",
    "CodeReport", "Design", "FrCode", "Graph", "TransversalDesign", "from_design",
    "from_graph", "load", "save", "validate",
    "analyze", "batch", "construct", "dress", "errors", "galois", "incidence", "matching",
]

# the submodule that defines each public name of __all__; a submodule is its own source
_SOURCE = {
    **{module: module for module in ("analyze", "batch", "construct", "dress", "errors",
                                     "galois", "incidence", "matching")},
    **dict.fromkeys(("CapacityProfile", "capacity_profile", "file_size", "fr_capacity_bound",
                     "girth", "girth_file_size", "has_k_clique", "lemma7_flag",
                     "max_induced_edges", "mbr_capacity", "moore_bound",
                     "td_file_size_lower_bound", "turan_file_size"), "analyze"),
    **dict.fromkeys(("BatchPlan", "NoPlan", "batch_t", "batch_t_detail", "frb_certify",
                     "retrieval_plan", "theorem5_predicted_t"), "batch"),
    **dict.fromkeys(("cage", "cage_catalog", "projective_plane", "transversal_design",
                     "turan"), "construct"),
    **dict.fromkeys(("RepairPlan", "StoredSystem", "execute_repair", "load_system",
                     "plan_repair", "reconstruct", "store", "verify_integrity"), "dress"),
    **dict.fromkeys(("BudgetExceededError", "CorruptionError", "FormatError",
                     "FrbDefinitionError", "FrepkitError", "IrreparableError",
                     "ParameterError"), "errors"),
    **dict.fromkeys(("GF", "MdsCode", "default_field_for"), "galois"),
    **dict.fromkeys(("CodeReport", "Design", "FrCode", "Graph", "TransversalDesign",
                     "from_design", "from_graph", "load", "save", "validate"), "incidence"),
}


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    module = _import_module(f"{__package__}.{_SOURCE[name]}")
    value = module if _SOURCE[name] == name else getattr(module, name)
    globals()[name] = value  # bound: the next lookup never comes here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
