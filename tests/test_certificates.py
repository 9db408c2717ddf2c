"""Independent certificate verification and JSON round-trips."""

import pytest

from conftest import MALFORMED_PAYLOADS
from schrijver import (
    CertificateError,
    CycleParams,
    ParameterError,
    PathCertificate,
    certificate_to_json,
    check_certificate_data,
    parse_certificate,
    stable_set,
    verify_certificate,
)


def test_valid_walk_passes():
    assert check_certificate_data(10, 4, [(1, 3, 5, 7), (2, 4, 6, 8)], 1) == []


def test_each_defect_is_reported():
    # wrong cardinality
    assert check_certificate_data(10, 4, [(1, 3, 5)], 0)
    # element out of range
    assert check_certificate_data(10, 4, [(1, 3, 5, 11)], 0)
    # not ascending
    assert check_certificate_data(10, 4, [(3, 1, 5, 7)], 0)
    # consecutive elements
    assert check_certificate_data(10, 4, [(1, 2, 5, 7)], 0)
    # wrap-around consecutive pair {1, n}
    assert check_certificate_data(10, 4, [(1, 3, 5, 10)], 0)
    # consecutive vertices share an element
    problems = check_certificate_data(10, 4, [(1, 3, 5, 7), (1, 4, 6, 9)], 1)
    assert any("share" in p for p in problems)
    # more edges than claimed
    problems = check_certificate_data(
        10, 4, [(1, 3, 5, 7), (2, 4, 6, 8), (1, 3, 5, 7)], 1
    )
    assert any("claimed bound" in p for p in problems)
    # no vertices at all
    assert check_certificate_data(10, 4, [], 0)


def test_verify_certificate_endpoints():
    p = CycleParams(10, 4)
    a = stable_set([1, 3, 5, 7], p)
    b = stable_set([2, 4, 6, 8], p)
    cert = PathCertificate((a, b), 1)
    verify_certificate(cert, source=a, target=b)
    with pytest.raises(CertificateError):
        verify_certificate(cert, source=b, target=a)


def test_json_roundtrip():
    p = CycleParams(10, 4)
    cert = PathCertificate(
        (stable_set([1, 3, 5, 7], p), stable_set([2, 4, 6, 8], p)), 3
    )
    data = certificate_to_json(cert)
    assert data["vertices"] == ["1,3,5,7", "2,4,6,8"]
    assert parse_certificate(data) == (10, 4, 3, [(1, 3, 5, 7), (2, 4, 6, 8)])


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
def test_from_json_rejects_malformed_payload(payload):
    with pytest.raises(ParameterError):
        parse_certificate(payload)
