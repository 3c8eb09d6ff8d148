"""The impact transient at the presets' plant step, against a fine plant step
(``tools/plant_convergence.py``)."""

import importlib.util
import math
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

# the same gap of the event-located step whose Coulomb term was an implicit
# Euler step at each velocity update's end state, at 10 substeps per period;
# the arms' presets now take half as many
ENDPOINT_RULE_TRANSIENT_N = {
    "fig3_one_dof": 1.3e-4,
    "fig5_two_dof": 3.2e-5,
    "fig5_two_dof:implicit-vector": 3.3e-5,
}

# plant substeps per controller period of each preset
SUBSTEPS = {"fig3_one_dof": 5, "fig5_two_dof": 5, "linmotor_steps": 10}


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
    the previous loop's was from its own; on the arms, at half the substeps,
    no farther than the end-state Coulomb step's at 10."""
    sc = plant_convergence.convergence_runs()[name]
    assert round(sc.h / sc.dt_sub) == SUBSTEPS[name.split(":")[0]]
    assert plant_convergence.REF_SUBSTEPS == 2000
    gap = plant_convergence.transient_gap(sc)
    assert 0.0 < gap <= min(PARENT_TRANSIENT_N[name], ENDPOINT_RULE_TRANSIENT_N.get(name, math.inf))
