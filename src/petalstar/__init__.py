"""petalstar: coefficient functionals and certified sharp bounds for
starlike functions of the arcsinh petal domain.

The public names are each module's ``__all__``: the series half
(``series``, ``functionals``, ``extremal``) and the parameter half
(``caratheodory``, ``diskmax``, ``search``), which share only ``errors``.
"""

from .series import *
from .functionals import *
from .caratheodory import *
from .diskmax import *
from .extremal import *
from .search import *

__version__ = "0.1.0"
