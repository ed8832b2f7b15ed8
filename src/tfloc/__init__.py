"""Time-frequency localization toolkit.

Dyadic decompositions, smooth local cosine bases with subexponential
transform decay, localization-operator spectra, interpolation-node counting
audits, and annihilating witness construction.

Import the submodules by name (`from tfloc import witness`, `from
tfloc.lcbasis import atom_matrix`).  `import tfloc` itself loads no numpy, so
the CLI can pin BLAS to one thread before numpy first loads.
"""

__version__ = "0.1.0"
