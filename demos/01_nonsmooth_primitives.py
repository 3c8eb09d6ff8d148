"""Tour of the nonsmooth primitives.

Shows the box projection acting as an exact torque clamp with a verifiable
optimality certificate.
"""

import numpy as np

from nonsmooth_adm import BoxConstraint, project_box, variational_residual

print("== box projection ==")
box = BoxConstraint([3.0, 4.0])
for y in ([-5.0, 2.0], [10.0, -10.0], [1.0, 1.0]):
    p = project_box(np.array(y), box)
    cert = variational_residual(np.array(y), p, box)
    print(f"  project {y} -> {p}   optimality certificate {cert:+.2e} (<= 0)")
