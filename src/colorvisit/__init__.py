"""Priority-driven enumeration of k-ary color trees, with an edge-coloring
pipeline that extracts candidate monochromatic sets from the enumerated
branch.  Brute-force oracles for everything live in
:mod:`colorvisit.oracles`."""

from .colorings import (
    Coloring,
    TableIncomplete,
    UnknownBuiltin,
    builtin_coloring,
    constant_coloring,
    diff_mod_coloring,
    load_table,
    sum_mod_coloring,
    table_coloring,
)
from .dsl import DslSyntaxError, UnknownIdentifier, dsl_coloring, parse, to_text
from .erdos import (
    ErdosTree,
    HomogeneousReport,
    build_erdos,
    extract_homogeneous,
    homog_pipeline,
    insert,
)
from .stability import stable_indices
from .trees import (
    ColorTree,
    FiniteColorTree,
    FullColorTree,
    OracleColorTree,
    full_tree,
    load_tree,
    save_tree,
    unary_tree,
    validate_tree,
)
from .visit import Visit, enumerate_visit
from .words import ROOT, Word, full_priority, validate_priority

__version__ = "0.1.0"
