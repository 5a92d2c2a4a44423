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
from .dsl import DslSyntaxError, UnknownIdentifier, dsl_coloring, evaluate, parse, to_text
from .erdos import (
    ErdosTree,
    HomogeneousReport,
    build_erdos,
    check_erdos_property,
    extract_homogeneous,
    homog_pipeline,
    insert,
)
from .stability import branch_approx, branch_census, stable_indices
from .trees import (
    ColorTree,
    FiniteColorTree,
    FullColorTree,
    OracleColorTree,
    full_tree,
    in_restricted,
    load_tree,
    save_tree,
    unary_tree,
    validate_tree,
)
from .visit import (
    Visit,
    check_visit,
    enumerate_visit,
    is_color_complete,
    is_complete_for,
    nth_expansion,
)
from .words import ROOT, Word, full_priority, lex_compare, validate_priority

__version__ = "0.1.0"
