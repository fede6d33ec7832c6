"""The result and layout types are values: they compare and hash by their
fields and refuse assignment.  The report containers each keep lists of
their own."""

import pytest

from swapsets import (
    ContractError,
    DdmResult,
    FINITE,
    GridDensityReport,
    INFINITE,
    ProductScanReport,
    ScanReport,
    StarPartition,
    SwapCertificate,
    TokenBoard,
    analyse_tree,
    dd_m_exact,
    path_graph,
    star_product_layout,
    weak_reduction,
)
from swapsets.grid_constructions import GridDensityRow, GridSpec
from swapsets.product_constructions import ProductScanRow


def test_certificate_json_round_trip_hashes_equal():
    cert = dd_m_exact(path_graph(4)).certificate
    back = SwapCertificate.from_json_dict(cert.to_json_dict())
    assert back == cert and back is not cert
    assert hash(back) == hash(cert)
    assert len({cert, back}) == 1


def test_results_and_partitions_compare_by_value():
    assert dd_m_exact(path_graph(4)) == dd_m_exact(path_graph(4))
    assert DdmResult(INFINITE) == DdmResult(INFINITE, None, None)
    assert DdmResult(INFINITE) != DdmResult(FINITE, 2, dd_m_exact(path_graph(4)).certificate)
    assert DdmResult(INFINITE) != (INFINITE, None, None)
    built = StarPartition.build([(2, [3]), (0, [1])])
    assert built == StarPartition(((0, (1,)), (2, (3,))), 2)
    assert hash(built) == hash(StarPartition(((0, (1,)), (2, (3,))), 2))
    assert built != StarPartition(built.parts, 3)


def _analysis():
    return analyse_tree(path_graph(4))


FROZEN = [
    pytest.param(lambda: _analysis().result.certificate, "d", id="SwapCertificate"),
    pytest.param(lambda: _analysis().result, "k", id="DdmResult"),
    pytest.param(lambda: _analysis().partition, "weight", id="StarPartition"),
    pytest.param(lambda: weak_reduction(path_graph(4)), "reduced", id="WeakReduction"),
    pytest.param(_analysis, "n", id="TreeAnalysis"),
    pytest.param(lambda: GridSpec(3, 2), "m", id="GridSpec"),
    pytest.param(lambda: TokenBoard(3, 2, frozenset({(1, 1)}), frozenset()), "black",
                 id="TokenBoard"),
    pytest.param(lambda: star_product_layout(2, 1), "p", id="StarProductLayout"),
    pytest.param(lambda: GridDensityRow(8, 8, 20, 12.8, 22, 16), "gamma", id="GridDensityRow"),
    pytest.param(lambda: ProductScanRow("2-1", "2-1", "2", 1, 1, "2", "none"), "violation",
                 id="ProductScanRow"),
]


@pytest.mark.parametrize("make, field", FROZEN)
def test_fields_refuse_assignment(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before
    assert value == make() and hash(value) == hash(make())


def test_reports_never_share_lists():
    scans = ScanReport((1, 2), "a", []), ScanReport((1, 2), "a", [])
    assert scans[0].counterexamples is not scans[1].counterexamples
    assert scans[0].extras is not scans[1].extras
    products = ProductScanReport(4), ProductScanReport(4)
    assert products[0].rows is not products[1].rows
    assert products[0].counterexamples is not products[1].counterexamples
    assert GridDensityReport(8).rows is not GridDensityReport(8).rows


def test_grid_types_reject_bad_dimensions():
    for m, n in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ContractError):
            GridSpec(m, n)
        with pytest.raises(ContractError):
            TokenBoard(m, n, frozenset(), frozenset())
