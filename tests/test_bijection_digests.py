"""Pin the replayed bijections themselves, not only their properties.

The other reduction tests check that replaying a trace is *a* bijection
that preserves the statistic; these digests check that it is *the same*
bijection, image by image, as the one the package has always computed.
Each digest is a sha256 over the reprs of every pair, its canonical or
normalized form and the full list of replay images, in a fixed order.
A second digest per test hashes each trace's ``to_json()`` (the steps,
their params, ``measure_after`` and ``start_measure``), which is what
``shufbij reduce --format json`` prints.  The audit digests pin the
reports of ``check_bijection_pipeline``, passing and failing: each is a
sha256 over every report's sorted ``to_json()`` and ``format_report``.
"""

import hashlib
import json
from itertools import combinations, permutations

import pytest

from oracles import rename_in_order
from shufbij import traces
from shufbij.reduce import SUPPORTED_STATS, apply_trace, canonicalize
from shufbij.shuffle import normalize_pair, shuffles
from shufbij.verify import check_bijection_pipeline, format_report

PIPELINE_DIGEST = "8afe6c78f57a558bc4ec0c1666e6e8fb43bc862f871708b8e3a9a4243953e2b5"
NORMALIZE_DIGEST = "e97fb6b900f1e731e1304083753124f2e14e8233b99a050bd605b43ea5cbc2dd"
PIPELINE_TRACE_DIGEST = "73405e9c710ca8672f0b2db51f2a5d1c0afff43fb54ea9c43495ae7545d830ed"
NORMALIZE_TRACE_DIGEST = "3deb6754e43fe634ef1e8cbaf00a83e3163a0e65e6eb4f52005e1c4dfc225a89"

# The audit as is and with two broken moves, as in tests/test_verify.py: a
# descent move that only renames sigma, and a peak move that sends every
# interleaving to one.  Each: (patch, largest m+n, audits, failing, digest).
AUDIT_DIGESTS = {
    "as_is": (None, 6, 19908, 0,
              "9355196a3cd5c10764d4c90c3668d49c3643d4d559b852b9aec1ad8c7765a15e"),
    "rename_only_des": (("_des_move", lambda sigma, i, sigma_new:
                         lambda tau: rename_in_order(tau, sigma, sigma_new)), 5, 3600, 91,
                        "ece1c694bb427e481f5c721b3cf1255bb07bbd353a389955e297e3fc761571b1"),
    "colliding_peak": (("_peak_move", lambda src, tgt, j, append=False:
                        lambda tau: tgt + tuple(v for v in tau if v not in src)), 5, 3600, 98,
                       "a01590d9e016ac7ae9d9d0028b13e975a80dd47ca8fd3d5064b46284f4063374"),
}


def _trace_bytes(trace):
    return json.dumps(trace.to_json(), sort_keys=True).encode()


def _disjoint_pairs(values):
    for m in range(len(values) + 1):
        for dom in combinations(values, m):
            rest = [v for v in values if v not in dom]
            for pi in permutations(dom):
                for sigma in permutations(rest):
                    yield pi, sigma


def test_pipeline_replay_digest():
    digest = hashlib.sha256()
    trace_digest = hashlib.sha256()
    count = 0
    for stat in SUPPORTED_STATS:
        for total in range(7):
            for m in range(total + 1):
                for pi in permutations(range(1, m + 1)):
                    for sigma in permutations(range(m + 1, total + 1)):
                        _, trace = canonicalize(stat, pi, sigma)
                        images = [apply_trace(trace, t) for t in shuffles(pi, sigma)]
                        count += len(images)
                        digest.update(repr((stat, pi, sigma, images)).encode())
                        trace_digest.update(_trace_bytes(trace))
    assert count == 53217
    assert digest.hexdigest() == PIPELINE_DIGEST
    assert trace_digest.hexdigest() == PIPELINE_TRACE_DIGEST


def _normalized_pairs(top):
    for total in range(top + 1):
        for m in range(total + 1):
            for pi in permutations(range(1, m + 1)):
                yield from ((pi, sigma) for sigma in permutations(range(m + 1, total + 1)))


@pytest.mark.parametrize("broken", list(AUDIT_DIGESTS))
def test_pipeline_audit_report_digest(broken, monkeypatch):
    patch, top, want_audits, want_failing, want_digest = AUDIT_DIGESTS[broken]
    if patch:
        monkeypatch.setattr(traces, *patch)
    digest = hashlib.sha256()
    audits = failing = 0
    for stat in SUPPORTED_STATS:
        for pi, sigma in _normalized_pairs(top):
            report = check_bijection_pipeline(stat, pi, sigma)
            audits, failing = audits + 1, failing + (not report.passed)
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
            digest.update(format_report(report).encode())
    assert (audits, failing, digest.hexdigest()) == (want_audits, want_failing, want_digest)


def test_normalize_replay_digest():
    digest = hashlib.sha256()
    trace_digest = hashlib.sha256()
    count = 0
    for ground in ((1, 2, 3, 4, 5), (1, 3, 5, 7, 9)):
        for pi, sigma in _disjoint_pairs(ground):
            for mode in ("pi_low", "sigma_low"):
                npi, nsg, trace = normalize_pair(pi, sigma, mode)
                images = [apply_trace(trace, t) for t in shuffles(pi, sigma)]
                count += len(images)
                digest.update(repr((pi, sigma, mode, npi, nsg, images)).encode())
                trace_digest.update(_trace_bytes(trace))
    assert count == 15360
    assert digest.hexdigest() == NORMALIZE_DIGEST
    assert trace_digest.hexdigest() == NORMALIZE_TRACE_DIGEST
