"""qcsync: a desk-scale sandbox for asymmetric delay attacks on
photon-pair clock synchronization.

The package simulates correlated photon-pair timestamp streams over an
attacked bidirectional fiber link, recovers the clock difference between
the two ends from second-order coincidence histograms, quantifies the
stability damage of tunable jump / spike / gradual delay attacks with the
time deviation (TDEV), and scores baseline countermeasures.
"""

__version__ = "0.35.0"

# Each module's ``__all__`` is the one list of its public names.
from .attacks import *
from .detection import *
from .errors import *
from .estimator import *
from .runner import *
from .scenario import *
from .simulation import *
from .stability import *
