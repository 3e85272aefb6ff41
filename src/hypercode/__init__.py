"""Higher-order neural codes: cofiring hyperstructures and their topology."""

from hypercode._gf2 import GF2_BACKEND
from hypercode.codes import (
    Code,
    Codeword,
    OccurrenceLog,
    Pattern,
    SimplicialComplex,
    bin_event_list,
    code_of_log,
    generated_complex,
    parse_spike_matrix,
    support,
)
from hypercode.compare import ComparisonReport, compare_levels
from hypercode.homology import (
    Barcode,
    Filtration,
    barcode_sequence,
    betti,
    frequency_filtration,
    persistence,
)
from hypercode.hyperstructure import (
    Bond,
    BuildConfig,
    Hyperstructure,
    boundary,
    build_hyperstructure,
    canonical_form,
    downset,
    realize_level1,
)
from hypercode.synth import SynthSpec, synth_generate
from hypercode.topology import (
    GluingGraph,
    NerveConfig,
    compose_bonds,
    delta_correspondence,
    gluing_graph,
    level_complex,
    nerve,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 1

__all__ = [
    "Barcode",
    "Bond",
    "BuildConfig",
    "Code",
    "Codeword",
    "ComparisonReport",
    "Filtration",
    "GF2_BACKEND",
    "GluingGraph",
    "Hyperstructure",
    "NerveConfig",
    "OccurrenceLog",
    "Pattern",
    "SimplicialComplex",
    "SynthSpec",
    "barcode_sequence",
    "betti",
    "bin_event_list",
    "boundary",
    "build_hyperstructure",
    "canonical_form",
    "code_of_log",
    "compare_levels",
    "compose_bonds",
    "delta_correspondence",
    "downset",
    "frequency_filtration",
    "generated_complex",
    "gluing_graph",
    "level_complex",
    "nerve",
    "parse_spike_matrix",
    "persistence",
    "realize_level1",
    "support",
    "synth_generate",
]
