"""Golden digests of a fixed corpus: content md5s and wire bytes.

The content md5 is what WAL replay, resubmission dedup, the observation
cache and shard routing key on, and the codec's JSON text is what the
WAL and ``/v1`` carry.  Both are pinned here for a fixed-seed
1,000-app corpus, so any drift in the md5's digest text or in the wire
columns fails this test.  ``WIRE_SHA256`` pins the version-2 text (call
sites as JSON lists) that the ``v2_wire`` test helper produces: it is
the digest the version-2 encoder was pinned to, so the helper writes
that encoder's bytes.  ``WIRE_V3_SHA256`` pins what the codec writes.
"""

import hashlib
import json

from repro.corpus.generator import CorpusGenerator
from repro.serve.codec import apk_from_dict, apk_to_json

N_APPS = 1000
MD5S_SHA256 = "29fbec8697e9d856a60dc7e6a7b246ea5f0ac39db3f66f3cb3695e4eee577033"
WIRE_SHA256 = "099b8836192ae1c1d7b9c4320d5195f9d4556a84e9043bba4a13c266291516b4"
WIRE_V3_SHA256 = "b52da9b52cd1cff4d8175aaff24abc036dffd6481256818af98e46a0fe423583"


def _sha256(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_corpus_md5s_and_wire_bytes_are_pinned(sdk, catalog, v2_wire):
    apps = list(CorpusGenerator(sdk, seed=7, catalog=catalog).generate(N_APPS))
    assert len(apps) == N_APPS
    md5s = "".join(apk.md5 for apk in apps)
    assert hashlib.sha256(md5s.encode()).hexdigest() == MD5S_SHA256
    v2_texts = [
        json.dumps(v2_wire(apk), separators=(",", ":")) for apk in apps
    ]
    assert _sha256(v2_texts) == WIRE_SHA256
    texts = [apk_to_json(apk) for apk in apps]
    assert _sha256(texts) == WIRE_V3_SHA256
    for apk, v2_text, text in zip(apps, v2_texts, texts):
        for wire in (v2_text, text):
            rebuilt = apk_from_dict(json.loads(wire))
            assert rebuilt.md5 == apk.md5
            assert rebuilt.dex == apk.dex
