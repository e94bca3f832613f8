"""SDP and doubly-nonnegative relaxations of binary quadratic programs and
max-cut, with a built-in interior-point conic solver and a profile harness."""

from .model import (
    BqpInstance,
    MaxCutGraph,
    bqp_objective,
    brute_force_bqp,
    brute_force_maxcut,
    cut_value,
    generate_instance,
    laplacian,
    load_graph,
    load_instance,
    mc_to_bqp,
    random_graph,
    save_graph,
    save_instance,
)
from .relax import (
    ConicProgram,
    VariableMap,
    build_dnnp,
    build_mc_dnnp,
    build_mc_sdr,
    build_sdr,
    build_sdr1,
    build_sdr2,
    build_zspace,
)
from .solver import ConicSolution, SolverSettings, certify, presolve_rank_check, solve
from .equivalence import (
    EquivalenceReport,
    PointXX,
    PointZZ,
    check_feasibility,
    dnnp_to_sdr2_point,
    mc_dnnp_to_sdr_point,
    mc_sdr_to_dnnp_point,
    rank_one_certificate,
    sdr2_to_dnnp_point,
    verify_theorem3,
    verify_theorem4,
)
from .bench import (
    ProfileCurve,
    RunRecord,
    bound_order_report,
    emit_csv,
    performance_profile,
    run_suite,
)
from .symcone import smat, svec

__version__ = "0.1.0"
