"""Photon-pair simulation and transverse-mode state estimation for
few-mode polarization-maintaining fiber.

Modules by concern: ``config`` (the input contract and its records),
``dispersion`` (LP mode solver and birefringence model), ``processes``
(four-wave-mixing channels and phase matching), ``fields`` (transverse
fields and overlaps), ``spectrum`` (joint spectral amplitudes and lobe
fits), ``estimation`` (the spectral trace-out to density matrices),
``tomography`` (two-qubit metrics and 36-projector QST with Poisson
MLE), ``gridio`` (file formats), ``pipeline``/``cli`` (the command
surface).
"""

__version__ = "0.1.0"
