"""Set-valued admittance control under torque saturation.

The library couples two nonsmooth loops: an outer proxy loop whose torque is
kept inside a hard per-joint box by exact projection (with the proxy corrected
so saturation cannot wind it up), and an inner super-twisting loop whose
discontinuous selections are computed implicitly, by solving the inclusion of
its implicit Euler step, which removes numerical chattering.  A fixed-step
simulator with impact-contact scenarios, metrics, presets, and a CLI sit on
top.
"""

from .setvalued import (
    BoxConstraint,
    project_box,
    sat,
    sign0,
    variational_residual,
)
from .msta import (
    MstaGains,
    SolverConvergenceError,
    SolverDiagnostics,
    msta_error_recursion_step,
    msta_explicit_step,
    msta_implicit_decoupled_step,
    msta_implicit_step,
    norm_quad_value,
    solve_shat_vector,
    sta_scalar_implicit_step,
)
from .admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    StepDiagnostics,
    admittance_step,
    baseline_naive_step,
    initial_state,
    inner_loop_candidate,
    proxy_predict,
)
from .plant import (
    EnvironmentModel,
    LinearMotorParams,
    ManipulatorModel,
    OneDofParams,
    PlantState,
    SimulationBlowUp,
    TwoLinkParams,
    contact_wrench,
    integrate_substep,
    linear_motor_model,
    one_dof_model,
    two_link_model,
)
from .sim import (
    ApproachSpec,
    ControllerSpec,
    DisturbanceSpec,
    EstimateSpec,
    Metrics,
    Scenario,
    Trace,
    apply_override,
    compute_metrics,
    double_integrator_bench,
    load_scenario,
    naive_variant,
    presets,
    run_scenario,
    save_scenario,
    sweep,
    trace_from_csv,
    trace_to_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
