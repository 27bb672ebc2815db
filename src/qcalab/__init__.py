"""qcalab: simulation and structural verification workbench for block
cellular automata on quantum state spaces."""

from .state import (
    Alphabet,
    Configuration,
    RingSpace,
    SparseState,
    densify,
    dump_state,
    embed_double,
    extract_right_subcells,
    inner_product,
    shift,
    sparsify,
)
from .operators import (
    DenseOperator,
    DensityMatrix,
    apply,
    hermitian_exp,
    partial_trace,
    spectral_norm,
    support_of,
    trace_distance,
    unitarity_defect,
)
from .pqca import (
    Pqca,
    ScatteringUnitary,
    check_quiescence,
    composed_step_operator,
    load_unitary,
    pqca_as_ring_operator,
    pqca_evolve,
    pqca_step,
    regroup_pairs,
    save_unitary,
)
from .dirac import (
    ConvergenceResult,
    WalkField,
    convergence_study,
    dirac_plane_wave,
    dirac_scattering_unitary,
    gaussian_field,
    walk_evolve,
    walk_step,
    walk_vs_engine_crosscheck,
)
from .structure import (
    CausalityReport,
    LocalizationResult,
    SignallingReport,
    XorWord,
    build_localization,
    causality_check,
    extend_to_right_subcells,
    lift_classical,
    signalling_demo,
    subcell_swap,
    xor_ca_step,
    xor_lifted,
)
from .trotter import (
    GlobalHamiltonian,
    TwoCellHamiltonian,
    build_global_hamiltonian,
    exchange_coupling,
    random_coupling,
    splitting_error,
    trotter_pqca,
    trotter_vs_pqca_crosscheck,
)

__version__ = "0.1.0"
