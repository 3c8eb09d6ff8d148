"""Chattering: explicit versus implicit super-twisting.

Both controllers reject the same ramp-and-hold disturbance on a first-order
loop.  The explicit stepping keeps switching at the sampling rate once the
error is small; the implicit stepping computes its selection from the
inclusion of its implicit Euler step and goes quiet, with the error parked inside the h^2-scale band.
"""

import os

import numpy as np

from nonsmooth_adm import MstaGains
from nonsmooth_adm.sim import double_integrator_bench
from nonsmooth_adm.plotting import line_chart

g = MstaGains(k2=11.6, k3=66.0)
h, delta3 = 1e-3, 10.0

implicit = double_integrator_bench("scalar-implicit", g, h, 5.0, delta3)
explicit = double_integrator_bench("explicit", g, h, 5.0, delta3)

tail = implicit["t"] >= 4.0
print(f"steady-state std of the control signal over the final second:")
print(f"  explicit : {np.std(explicit['u'][tail]):.4e}")
print(f"  implicit : {np.std(implicit['u'][tail]):.4e}")

post = implicit["t"] >= 0.5
print(f"\npost-transient |s| bound for the implicit path: "
      f"{np.abs(implicit['s'][post]).max():.2e}  (h^2 * delta3 = {h * h * delta3:.1e})")

os.makedirs("out", exist_ok=True)
line_chart([("explicit", explicit["t"], explicit["u"]),
            ("implicit", implicit["t"], implicit["u"]),
            ("disturbance", implicit["t"], implicit["phi"])],
           "control signal while rejecting a ramp-and-hold disturbance",
           "t [s]", "u", "out/twisting_chattering.svg")
line_chart([("explicit", explicit["t"], explicit["s"]),
            ("implicit", implicit["t"], implicit["s"])],
           "sliding variable", "t [s]", "s", "out/twisting_sliding.svg")
print("\nwrote out/twisting_chattering.svg and out/twisting_sliding.svg")
