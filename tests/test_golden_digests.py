"""Golden digests of a fixed corpus: content md5s and wire bytes.

The content md5 is what WAL replay, resubmission dedup, the observation
cache and shard routing key on, and the codec's JSON text is what the
WAL and ``/v1`` carry.  Both are pinned here for a fixed-seed
1,000-app corpus, so any drift in the md5's digest text or in the wire
columns fails this test.
"""

import hashlib
import json

from repro.corpus.generator import CorpusGenerator
from repro.serve.codec import apk_from_dict, apk_to_json

N_APPS = 1000
MD5S_SHA256 = "29fbec8697e9d856a60dc7e6a7b246ea5f0ac39db3f66f3cb3695e4eee577033"
WIRE_SHA256 = "099b8836192ae1c1d7b9c4320d5195f9d4556a84e9043bba4a13c266291516b4"


def test_corpus_md5s_and_wire_bytes_are_pinned(sdk, catalog):
    apps = list(CorpusGenerator(sdk, seed=7, catalog=catalog).generate(N_APPS))
    assert len(apps) == N_APPS
    md5s = "".join(apk.md5 for apk in apps)
    assert hashlib.sha256(md5s.encode()).hexdigest() == MD5S_SHA256
    texts = [apk_to_json(apk) for apk in apps]
    wire = "\n".join(texts)
    assert hashlib.sha256(wire.encode()).hexdigest() == WIRE_SHA256
    for apk, text in zip(apps, texts):
        rebuilt = apk_from_dict(json.loads(text))
        assert rebuilt.md5 == apk.md5
        assert rebuilt.dex == apk.dex
