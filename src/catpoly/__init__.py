"""catpoly: exact enumeration, statistics, generating functions and
bijections for Catalan words without weakly decreasing triples and their
Motzkin-counted bargraph polyominoes.

``import catpoly`` loads no submodule.  Each exported name, and each
submodule such as ``catpoly.gfs``, is imported on first access (PEP 562),
so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: The exported names of each submodule; ``cli`` and ``render`` export none.
_EXPORTS = {
    "backend": ("BACKEND",),
    "bijections": ("FirstReturnDecomp", "chi", "decompose", "psi", "verify_bijectivity"),
    "cli": (),
    "closedforms": (
        "asym_h",
        "asym_s",
        "asym_up",
        "expected_last",
        "expected_sper",
        "h_closed",
        "motzkin",
        "p_closed",
        "s_closed",
        "trinomial",
        "u_closed",
    ),
    "errors": (
        "CatpolyError",
        "EmptyWord",
        "InternalInconsistency",
        "NonUnitDivisor",
        "NotCatalan",
        "NotInDomain",
        "OrderMismatch",
        "ResourceLimit",
        "UsageError",
    ),
    "gfs": (
        "cf_B_contfrac",
        "cf_C_last",
        "cf_C_sper_v",
        "cf_S",
        "gf_h",
        "gf_motzkin",
        "gf_p",
        "gf_s",
        "gf_trinomial",
        "gf_u",
        "kernel_root_annihilates",
        "kernel_root_v0",
        "master_interior_qv",
        "master_pqv",
        "prod_area",
        "prod_interior",
        "sum_B",
        "sum_H",
    ),
    "mpoly": ("MPoly",),
    "render": (),
    "series": ("Series",),
    "tables": (
        "RecurrenceReport",
        "TriTable",
        "check_recurrences",
        "table_c",
        "table_c_enumerated",
        "table_stat",
        "table_stat_enumerated",
        "totals",
    ),
    "verify": ("VerifyReport", "run_verify"),
    "words": (
        "CatalanWord",
        "Polyomino",
        "StatRecord",
        "WordClass",
        "avoids",
        "count_words",
        "enumerate_words",
        "from_dyck",
        "inter_oracle",
        "sper_oracle",
        "stat_area",
        "stat_inter",
        "stat_last",
        "stat_record",
        "stat_sper",
        "to_dyck",
        "validate",
        "word_counts",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
