"""Exact value-of-information analysis under distrust of one's own updating.

Finite decision problems, exact rational arithmetic end to end.  The
classical value of evidence (:func:`val_good`) assumes the agent will
condition on what they learn; the generalized value (:func:`val_general`)
prices the evidence by the agent's actual update policy, deviations and
all — and can come out negative.  When it does, :func:`demonstrate_aversion`
builds the explicit bet that proves it.

Each public name is declared once, in its module's ``__all__``; the
package re-exports every one of them.
"""

from . import adversary, decision, errors, prob, problemfile
from . import properties, scenarios, updating, voi
from .adversary import *
from .decision import *
from .errors import *
from .prob import *
from .problemfile import *
from .properties import *
from .scenarios import *
from .updating import *
from .voi import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += adversary.__all__
__all__ += decision.__all__
__all__ += errors.__all__
__all__ += prob.__all__
__all__ += problemfile.__all__
__all__ += properties.__all__
__all__ += scenarios.__all__
__all__ += updating.__all__
__all__ += voi.__all__
