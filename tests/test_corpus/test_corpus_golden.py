"""Behaviour lock for synthetic corpus generation.

Every corpus experiment starts from these sites, so their bytes are
pinned here: for each case, a SHA-256 over every page's resource sizes
(in ``PageModel.resources()`` order, read straight after generation) and
a SHA-256 over every recorded pair's ``to_canonical_bytes()``. The
expected digests were recorded from the code and are committed, so a
change to site generation or to the HTTP message objects that is meant
to be byte-neutral proves it mechanically.

Regenerate (only when a behaviour change is intended, and say why in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_corpus/test_corpus_golden.py
"""

import hashlib

import pytest

from repro.corpus import alexa_corpus, generate_site, named_site
from repro.corpus.sitegen import SyntheticSite

#: Recorded while ``generate_site`` still built (and discarded) a full
#: recording to fix the root document's size; rendering only the root
#: document left every value unchanged.
GOLDEN = {
    "alexa": {
        "sites": 40,
        "resources": 1127,
        "sizes": "b3695c79887cce454a05a4177a887e78faa0c585f4bf474dcd533560f286a00b",
        "pairs": "dda87a8c823f59945d9f82f098432bc401399f15a174de632bcb563804154e4e",
    },
    "cnbc": {
        "sites": 1,
        "resources": 64,
        "sizes": "f8e114159befe9e03c679106b32206131cf7ecc51d18365f8e4328fe803c1598",
        "pairs": "79dc6a1cce65f83d337abd79f2f5acc8e68e45d143772e51af8259d7d0e1fdd5",
    },
    "https": {
        "sites": 1,
        "resources": 21,
        "sizes": "0e4303e5c00601a1e28fcad03ddc6bc5bb738af3af173dd5c8cb96c2c1c68112",
        "pairs": "610a5edd1291c67675487f9d27588fe0c754a600599b0a77fbd813efd3e17c0d",
    },
    "nytimes": {
        "sites": 1,
        "resources": 112,
        "sizes": "71969c206ba1d99d9dbd49456e331486f1c0c4b7c5e53098cd1bd9bbfe54c348",
        "pairs": "c65c18bbe2ee48b3f8c82e8ed5c9819eff8cdc9e3ac5c582036f42e24bcbf923",
    },
    "wikihow": {
        "sites": 1,
        "resources": 86,
        "sizes": "f54aee0dd2d88fd3660b14724caff31293570a76d6a54e31dda29314d5fb3ce1",
        "pairs": "48166557d29af20b96baf4147cbbba2441658e2b8609a7754856eaadf8f02903",
    },
}


def _cases():
    return {
        "alexa": lambda: alexa_corpus(
            seed=0, size=40, single_origin_sites=2, scale=0.3),
        "cnbc": lambda: [named_site("cnbc")],
        "wikihow": lambda: [named_site("wikihow")],
        "nytimes": lambda: [named_site("nytimes")],
        "https": lambda: [generate_site(
            "secure.com", seed=7, n_origins=6, scale=0.5, https=True)],
    }


def fingerprint(sites):
    """Digests of a generated site list: sizes first, then recordings."""
    sizes = hashlib.sha256()
    for site in sites:
        for resource in site.page.resources():
            sizes.update(b"%d\n" % resource.size)
    pairs = hashlib.sha256()
    resources = 0
    for site in sites:
        for pair in site.to_recorded_site().pairs:
            pairs.update(pair.to_canonical_bytes() + b"\n")
            resources += 1
    return {
        "sites": len(sites),
        "resources": resources,
        "sizes": sizes.hexdigest(),
        "pairs": pairs.hexdigest(),
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_corpus_matches_golden(case):
    assert fingerprint(_cases()[case]()) == GOLDEN[case]


def test_https_case_is_served_over_https():
    (site,) = _cases()["https"]()
    assert {pair.scheme for pair in site.to_recorded_site().pairs} == {
        "https"}


def test_recording_twice_is_identical_and_keeps_sizes():
    site = generate_site("twice.com", seed=3, n_origins=8, scale=0.5)
    sizes = [r.size for r in site.page.resources()]
    first = [p.to_canonical_bytes() for p in site.to_recorded_site().pairs]
    second = [p.to_canonical_bytes() for p in site.to_recorded_site().pairs]
    assert first == second
    assert [r.size for r in site.page.resources()] == sizes
    # The root document's recorded body is exactly as long as the page says.
    root = site.to_recorded_site().pairs[0]
    assert root.response.body.length == site.page.root.size


def test_recording_returns_a_fresh_store_each_call():
    site = generate_site("fresh.com", seed=3, n_origins=3, scale=0.3)
    assert site.to_recorded_site() is not site.to_recorded_site()


def test_generate_site_builds_no_recording(monkeypatch):
    calls = []
    original = SyntheticSite._pair_for

    def counting(self, resource):
        calls.append(resource)
        return original(self, resource)

    monkeypatch.setattr(SyntheticSite, "_pair_for", counting)
    site = generate_site("lazy.com", seed=5, n_origins=6, scale=0.5)
    named_site("wikihow")
    assert calls == []
    site.to_recorded_site()
    assert len(calls) == site.page.resource_count


if __name__ == "__main__":
    import pprint

    pprint.pprint({case: fingerprint(build())
                   for case, build in sorted(_cases().items())},
                  sort_dicts=False)
