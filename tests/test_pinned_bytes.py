"""Pinned output bytes: certificates and random group elements.

Any change in how a matrix is stored, multiplied or inverted must leave
these digests as they are.
"""

import hashlib
import json

import pytest

from symslice.cli import make_certificate
from symslice.exact import matrix_to_text
from symslice.matspace import random_group_element
from symslice.pairs import make_pair

CASES = [("gl", 3, 2), ("o", 2, 2), ("o", 3, 3), ("sp", 4, 2)]

# sha256 of the `verify` JSON text at seed 1 with 5 round trips; o(2, 2)
# carries the Pfaffian invariant
CERTIFICATES = {
    ("gl", 3, 2): "7d6174a56ca668265de7d0133e5bfba55e42561ea3ca0016b6eb641746e62e45",
    ("o", 2, 2): "5e5e77e637cc305e825a0090211b4cd2c0cebee7a8c5281ef3061bd13d616e74",
    ("o", 3, 3): "3decdffd64139fd903e5c5b3ba64ba3c6e95b4613c8c55d242dbda4c7c513194",
    ("sp", 4, 2): "cf10948067185169e3126230321706ddcdaa9dc6d0551f0681deaf752da18615",
}

# sha256 over seeds 0-9 of matrix_to_text(g) + matrix_to_text(g_inv)
GROUP_ELEMENTS = {
    ("gl", 3, 2): "e8dcfbdab5d639dc4b1ea394fc7f95de49f482d730dbc911f878a4f0a366f258",
    ("o", 2, 2): "be6f43e35acf343c98962012cd96f39133925a72de7a3739a0c921ff491d55a3",
    ("o", 3, 3): "680d72b1496be5ab42bab7722e2e1911a831a9582d6d4673c8cbdaf499ad2e8e",
    ("sp", 4, 2): "59f3c617b76782ea5c60ea181c1c96ea39a5807e403e4243c5087bd40eeadfe9",
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_certificate_bytes_are_pinned(case):
    cert = make_certificate(*case, seed=1, trials=5)
    assert cert["passing"]
    text = json.dumps(cert, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES[case]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "%s%d%d" % c)
def test_group_element_bytes_are_pinned(case):
    pair = make_pair(*case)
    h = hashlib.sha256()
    for seed in range(10):
        ge = random_group_element(pair, seed)
        h.update((matrix_to_text(ge.g) + matrix_to_text(ge.g_inv)).encode())
    assert h.hexdigest() == GROUP_ELEMENTS[case]
