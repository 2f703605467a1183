"""Level-shift testing and dating for univariate time series.

Three dating algorithms (least-squares dynamic programming with BIC,
wild binary segmentation, energy-divisive segmentation) plus
significance tests for a constant level based on residual fluctuation
processes and their Brownian limits.
"""

from . import dating, edivisive, fluctuation, series, seriesio, synth, wbs
from .dating import *
from .edivisive import *
from .fluctuation import *
from .series import *
from .seriesio import *
from .synth import *
from .wbs import *

__version__ = "0.1.0"

__all__ = [name for module in (series, fluctuation, dating, wbs, edivisive, seriesio, synth)
           for name in module.__all__] + ["__version__"]
