"""The impact transient at the presets' plant step, against a fine plant step
(``tools/plant_convergence.py``)."""

import importlib.util
from pathlib import Path

import pytest

PLANT_CONVERGENCE = Path(__file__).resolve().parents[1] / "tools" / "plant_convergence.py"

# max |fcy - fcy_ref| in N over first contact -> +50 ms, of the semi-implicit
# Euler loop the plants had before their event-located Heun step, at the
# presets' 100 substeps per period against that loop at 2000 (its
# transient_gap on the commit before the change, to three figures)
PARENT_TRANSIENT_N = {
    "fig3_one_dof": 4.60e-4,
    "fig5_two_dof": 4.85e-5,
    "fig5_two_dof:implicit-vector": 1.23e-3,
    "linmotor_steps": 3.12e-3,
}


@pytest.fixture(scope="module")
def plant_convergence():
    spec = importlib.util.spec_from_file_location("plant_convergence", PLANT_CONVERGENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PARENT_TRANSIENT_N))
def test_impact_transient_is_no_farther_from_the_fine_reference(plant_convergence, name):
    """At the preset's plant step the contact force of the first 50 ms after
    contact is no farther from the same run at 2000 substeps per period than
    the previous loop's was from its own."""
    sc = plant_convergence.convergence_runs()[name]
    assert round(sc.h / sc.dt_sub) == 10 and plant_convergence.REF_SUBSTEPS == 2000
    gap = plant_convergence.transient_gap(sc)
    assert 0.0 < gap <= PARENT_TRANSIENT_N[name]
