"""Pin the reports of the descent scans, passing and failing, byte for byte.

The other scan tests check verdicts, cases and witnesses at chosen
shapes; these digests check that every report of a family is *the same*
report, witness and all, as the one the package has always printed.
Each digest is a sha256 over every report's sorted ``to_json()`` and its
``format_report``, in a fixed order.  The families: both reduced modes of
``check_compatibility`` for every descent statistic and catalog tuple at
every split with m+n <= 7, the (udr,pk,des) conjecture at m+n <= 7, full
mode at m+n <= 6 and ``find_counterexample(stat, 6)`` over the same
statistics and ``(maj,inv)``, which takes m+n <= 5, and the three
identities at every split with m+n <= 8, first as they are and then under
a forged closed form that moves one count one maj higher at one label
(:func:`_forged_closed_form`), at m+n >= 1, since the one shuffle at
0+0 has no maj but 0.
"""

import hashlib
import json

import pytest

import shufbij.verify as verify
from shufbij.stats import CATALOG_TUPLES, DESCENT_NAMES
from shufbij.verify import (
    check_compatibility,
    check_conjecture_udr_pk_des,
    check_identity,
    find_counterexample,
    format_report,
)

CATALOG = (*DESCENT_NAMES, *CATALOG_TUPLES)
ENUMERATED = (("maj", "inv"),)  # a statistic whose full scans enumerate shuffle sets


def _splits(top):
    return [(m, total - m) for total in range(top + 1) for m in range(total + 1)]


IDENTITIES = ("maj", "maj_des", "word_base")
_closed_form = verify._closed_form


def _forged_closed_form(which, m, n, des_pi, des_sigma, maj_sum):
    """The closed form with one count of its least value moved one maj
    higher: in every form of ``maj`` and ``word_base``, which no descent
    count changes, and at des pi = 1, des sigma = 0 alone for ``maj_des``."""
    form = _closed_form(which, m, n, des_pi, des_sigma, maj_sum)
    if which == "maj_des" and (des_pi, des_sigma) != (1, 0):
        return form
    low = min(form)
    up = (low[0], low[1] + 1) if which == "maj_des" else low + 1
    form = {**form, low: form[low] - 1, up: form.get(up, 0) + 1}
    return {value: count for value, count in form.items() if count}


def _identity_reports():
    reports = [check_identity(which, m, n) for which in IDENTITIES for m, n in _splits(8)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_closed_form", _forged_closed_form)
        reports += [check_identity(which, m, n) for which in IDENTITIES for m, n in _splits(8)[1:]]
    return reports


def _reports(family):
    if family in ("reduced_pi", "reduced_sigma"):
        return [check_compatibility(stat, m, n, family)
                for stat in CATALOG for m, n in _splits(7)]
    if family == "conjecture":
        return [check_conjecture_udr_pk_des(m, n) for m, n in _splits(7)]
    if family == "full":
        return [check_compatibility(stat, m, n, "full")
                for stat in CATALOG + ENUMERATED for m, n in _splits(6 if stat in CATALOG else 5)]
    if family == "identity":
        return _identity_reports()
    return [find_counterexample(stat, 6 if stat in CATALOG else 5) for stat in CATALOG + ENUMERATED]


# family: (reports, failing, digest)
SCAN_DIGESTS = {
    "reduced_pi": (1044, 16,
                   "a35b186aafacb6d05855716a23486b30c88e21524285704e2cb2f86d6ef95be3"),
    "reduced_sigma": (1044, 16,
                      "1a1d6e521de47a67f720cf3ff0337723d0cdd9c9b8c145daedd0311ef9caf5fb"),
    "conjecture": (36, 0,
                   "6393c6aeec42c19fd19c9c2c2b2b32080d78b4fb32922173b21e725f3afa7627"),
    "full": (833, 18,
             "dd398271a22d09fa44aed5ea24bd7d5f5fb1757ecaeec6ba67160c51fd288a06"),
    "counterexample": (30, 3,
                       "2342ecff7c7b6138137de3154db387e4f796bf044db621de3b142b580e5cf76e"),
    "identity": (267, 116,
                 "40f25a858fe20b217a7f40ef5d3ebca7c2ffda23cc1882efc6aadd004bb683f6"),
}


@pytest.mark.parametrize("family", SCAN_DIGESTS)
def test_scan_report_digest(family):
    digest = hashlib.sha256()
    reports = _reports(family)
    for report in reports:
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        digest.update(format_report(report).encode())
    count, failing, want = SCAN_DIGESTS[family]
    assert (len(reports), sum(not r.passed for r in reports)) == (count, failing)
    assert digest.hexdigest() == want
