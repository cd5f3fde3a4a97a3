"""The four secure code constructions behind one scheme contract."""

from .base import (
    NodeContent,
    RepairTranscript,
    SchemeParams,
    ParameterError,
    RepairInfeasibleError,
    PositiveSecrecyImpossibleError,
)
from .mbcr_exact import MbcrExactScheme
from .mbcr_bivariate import MbcrBivariateScheme
from .mscr_ia import MscrIaScheme
from .mscr_dk import MscrDkScheme
from .insecure_demo import InsecureDemoScheme

SCHEME_CLASSES = {
    cls.name: cls
    for cls in (MbcrExactScheme, MbcrBivariateScheme, MscrIaScheme, MscrDkScheme,
                InsecureDemoScheme)
}

SCHEME_TAGS = {
    MbcrExactScheme.name: 1,
    MbcrBivariateScheme.name: 2,
    MscrIaScheme.name: 3,
    MscrDkScheme.name: 4,
    InsecureDemoScheme.name: 200,
}


def make_scheme(params: SchemeParams):
    """Build a fully parameterized scheme instance from its params."""
    try:
        cls = SCHEME_CLASSES[params.scheme]
    except KeyError:
        raise ParameterError(f"unknown scheme {params.scheme!r}") from None
    return cls(params)
