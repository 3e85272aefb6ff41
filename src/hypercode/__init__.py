"""Higher-order neural codes: cofiring hyperstructures and their topology."""

from hypercode._gf2 import GF2_BACKEND
from hypercode.codes import (
    OccurrenceLog,
    Pattern,
    SimplicialComplex,
    bin_event_list,
    parse_spike_matrix,
)
from hypercode.compare import ComparisonReport, compare_levels
from hypercode.homology import (
    Barcode,
    Filtration,
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
)
from hypercode.synth import SynthSpec, synth_generate
from hypercode.topology import (
    GluingGraph,
    NerveConfig,
    compose_bonds,
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
    "betti",
    "bin_event_list",
    "boundary",
    "build_hyperstructure",
    "canonical_form",
    "compare_levels",
    "compose_bonds",
    "downset",
    "frequency_filtration",
    "gluing_graph",
    "level_complex",
    "nerve",
    "parse_spike_matrix",
    "persistence",
    "synth_generate",
]
