"""The public surface: `ghl3.__all__` is frozen, and each name is its layer's object."""

import ghl3
from ghl3 import distribution, order_statistics, quadrature, sampling, special

LAYERS = (distribution, order_statistics, quadrature, sampling, special)


def test_all_is_frozen():
    # A name added to any layer's __all__ becomes public in ghl3 too.
    assert ghl3.__all__ == [
        "GeneralizedHalfLogistic",
        "SummaryStats",
        "half_logistic_pdf",
        "half_logistic_cdf",
        "half_logistic_survival",
        "type3_logistic_pdf",
        "logistic_sigma",
        "OrderIndex",
        "pdf_rth",
        "pdf_max",
        "pdf_min",
        "cdf_rth",
        "sf_rth",
        "Tolerance",
        "QuadResult",
        "ConvergenceError",
        "integrate_finite",
        "integrate_semi_infinite",
        "RngStream",
        "sample",
        "sample_order_stat",
        "log_gamma",
        "log_beta",
        "reg_inc_beta",
        "inv_reg_inc_beta",
        "__version__",
    ]


def test_each_name_is_its_layers_object():
    owners = {name: layer for layer in LAYERS for name in layer.__all__}
    assert set(owners) == set(ghl3.__all__) - {"__version__"}
    for name, layer in owners.items():
        assert getattr(ghl3, name) is getattr(layer, name), name
