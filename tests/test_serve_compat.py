"""Version-2 payloads and WAL segments still decode and replay.

Codec version 3 stores ``dex.call_sites`` as base64 binary columns;
version 2 stored them as JSON number lists, and every WAL written
before version 3 holds version-2 bodies verbatim, so the codec still
reads version 2 and a segment may mix both.  Version 1 (one object per
call site, carried under ``"apk"`` in version-1 WAL records) is no
longer read: a version-1 body is a 400, and a version-1 WAL record
stops replay at its ``file:line``.  The old records here come from
test-local encoders, not from the package.
"""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.serve.codec import apk_from_dict, apk_to_dict, apk_to_json
from repro.serve.http import ServiceApi, parse_submission
from repro.serve.queue import (
    LANE_BULK,
    LANE_ESCALATED,
    READABLE_WAL_VERSIONS,
    SubmissionQueue,
)
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService


def v1_wire(apk) -> dict:
    """The version-1 wire dict: one object per call site."""
    wire = apk_to_dict(apk)
    wire["v"] = 1
    sites = apk.dex.call_sites
    wire["dex"]["call_sites"] = [
        {"api_id": a, "rate_multiplier": r, "reach_quantile": q}
        for a, r, q in zip(
            sites.api_id.tolist(),
            sites.rate_multiplier.tolist(),
            sites.reach_quantile.tolist(),
        )
    ]
    return wire


def v1_submit_line(seq: int, apk, lane: int) -> str:
    """A version-1 WAL acceptance record, as the version-1 queue wrote it."""
    return json.dumps(
        {
            "type": "submit",
            "v": 1,
            "seq": seq,
            "md5": apk.md5,
            "lane": lane,
            "apk": v1_wire(apk),
        },
        sort_keys=True,
    )


def v2_submit_line(seq: int, apk, lane: int, body: str) -> str:
    return (
        f'{{"type": "submit", "v": 2, "seq": {seq}, "md5": "{apk.md5}", '
        f'"lane": {lane}, "body": {body}}}'
    )


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(fitted_checker, activate=True)
    return registry


@pytest.fixture()
def apps(generator):
    return [generator.sample_app(malicious=i % 3 == 0) for i in range(8)]


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------


def test_v2_wire_dict_rebuilds_field_exact(generator, v2_wire):
    for malicious in (False, True):
        apk = generator.sample_app(malicious=malicious)
        wire = json.loads(json.dumps(v2_wire(apk)))
        rebuilt = apk_from_dict(wire)
        assert rebuilt.md5 == apk.md5 == wire["md5"]
        assert rebuilt.manifest == apk.manifest
        assert rebuilt.dex == apk.dex
        assert rebuilt.is_malicious == apk.is_malicious
        assert rebuilt.family == apk.family
        assert rebuilt.size_mb == apk.size_mb
        assert rebuilt.submitted_day == apk.submitted_day
        assert rebuilt.parent_md5 == apk.parent_md5


def test_v1_body_is_a_400(tmp_path, models, generator):
    apk = generator.sample_app(malicious=True)
    body = json.dumps({"apk": v1_wire(apk), "lane": "bulk"}).encode()
    with pytest.raises(ValueError, match="unsupported apk codec version: 1"):
        parse_submission(body)
    service = OnlineVettingService(models, spool_dir=tmp_path / "spool")
    try:
        response = ServiceApi(service).submit(body)
    finally:
        service.close()
    assert response.status == 400
    error = response.payload["error"]
    assert error["code"] == "bad_request"
    assert "unsupported apk codec version: 1" in error["message"]
    assert (tmp_path / "spool" / "queue.wal").read_text("utf-8") == ""


def test_v2_and_v3_decode_to_the_same_apk(generator, v2_wire):
    apk = generator.sample_app(malicious=True)
    from_v2 = apk_from_dict(json.loads(json.dumps(v2_wire(apk))))
    from_v3 = apk_from_dict(json.loads(apk_to_json(apk)))
    assert from_v2 == from_v3 and from_v2.md5 == from_v3.md5


def test_v3_body_is_smaller_than_v2(generator, v2_wire):
    apk = generator.sample_app()
    assert len(apk_to_json(apk)) < len(
        json.dumps(v2_wire(apk), separators=(",", ":"))
    )


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------


def _spool_with(tmp_path, name: str, lines: list[str]):
    spool = tmp_path / name
    spool.mkdir()
    (spool / "queue.wal").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )
    return spool


def _done_line(seq: int, md5: str, outcome: dict) -> str:
    return json.dumps(
        {"type": "done", "seq": seq, "md5": md5, "outcome": outcome},
        sort_keys=True,
    )


def _replay_and_drain(models, spool):
    """Replay a segment, serve it to completion, return what happened."""
    metrics = MetricsRegistry()
    queue = SubmissionQueue(spool, registry=metrics)
    replayed = metrics.value("serve_wal_replayed_total")
    recovered = dict(queue.completed)
    service = OnlineVettingService(
        models, queue=queue, workers=1, batch_size=4, metrics=metrics
    )
    service.start()
    assert service.drain(90.0), "replayed segment did not drain"
    service.close()
    done_counts: dict[str, int] = {}
    for line in (spool / "queue.wal").read_text("utf-8").splitlines():
        record = json.loads(line)
        if record["type"] == "done":
            done_counts[record["md5"]] = done_counts.get(record["md5"], 0) + 1
    return replayed, recovered, dict(service.queue.completed), done_counts


def test_v2_and_mixed_segments_replay_identically(
    tmp_path, models, apps, v2_wire
):
    """Same submissions, same completions, either body version."""
    lanes = [LANE_ESCALATED if i % 4 == 0 else LANE_BULK
             for i in range(len(apps))]
    finished = {"md5": apps[0].md5, "status": "done", "malicious": True}

    def segment(v3_every: int | None) -> list[str]:
        lines = []
        for seq, (apk, lane) in enumerate(zip(apps, lanes), start=1):
            if v3_every and seq % v3_every == 0:
                wire = apk_to_dict(apk)
            else:
                wire = v2_wire(apk)
            # Bare bodies and envelopes, as the version-2 encoder wrote
            # them (its apk_to_json text is the compact dump).
            if seq % 3:
                body = json.dumps({"apk": wire, "lane": lane})
            else:
                body = json.dumps(wire, separators=(",", ":"))
            lines.append(v2_submit_line(seq, apk, lane, body))
            if seq == 1:
                lines.append(_done_line(1, apk.md5, finished))
        return lines

    v2_only = _replay_and_drain(
        models, _spool_with(tmp_path, "v2", segment(None)))
    mixed = _replay_and_drain(
        models, _spool_with(tmp_path, "mixed", segment(2)))

    assert v2_only == mixed
    replayed, recovered, results, done_counts = mixed
    assert replayed == len(apps) - 1
    assert recovered == {apps[0].md5: finished}
    assert results[apps[0].md5] == finished
    assert set(results) == {apk.md5 for apk in apps}
    assert all(r["status"] == "done" for r in results.values())
    # Exactly once: one terminal record per md5, none re-scored.
    assert done_counts == {apk.md5: 1 for apk in apps}


def test_v2_body_with_raw_newlines_replays(tmp_path, apps):
    spool = tmp_path / "spool"
    bodies = [
        json.dumps({"apk": apk_to_dict(apps[0]), "lane": "bulk"}, indent=2),
        json.dumps(apk_to_dict(apps[1]), separators=(",\r\n", ": ")),
        json.dumps(apk_to_dict(apps[2]), separators=(",", ":\r")),
    ]
    assert all("\n" in b or "\r" in b for b in bodies)
    with SubmissionQueue(spool) as queue:
        for apk, body in zip(apps, bodies):
            queue.submit(apk, "bulk", body)
    lines = (spool / "queue.wal").read_text("utf-8").split("\n")
    assert len([line for line in lines if line]) == len(bodies)

    with SubmissionQueue(spool) as replayed:
        taken = replayed.take_batch(10, timeout=0)
    assert [entry.md5 for entry in taken] == [a.md5 for a in apps[:3]]
    assert [entry.apk for entry in taken] == apps[:3]


def test_python_submit_writes_a_v2_body(tmp_path, apps):
    spool = tmp_path / "spool"
    with SubmissionQueue(spool) as queue:
        queue.submit(apps[0], "escalated")
    record = json.loads((spool / "queue.wal").read_text("utf-8"))
    assert record["v"] == 2 and record["lane"] == LANE_ESCALATED
    assert record["md5"] == apps[0].md5
    assert apk_from_dict(record["body"]) == apps[0]


def test_replay_rejects_body_whose_md5_differs_from_header(tmp_path, apps):
    body = apk_to_json(apps[1])
    forged = v2_submit_line(1, apps[0], LANE_BULK, body)
    spool = _spool_with(tmp_path, "forged", [forged])
    with pytest.raises(ValueError, match="does not match"):
        SubmissionQueue(spool)


def test_v1_wal_record_fails_replay_with_file_line(tmp_path, apps):
    assert READABLE_WAL_VERSIONS == (2,)
    lines = [
        v2_submit_line(1, apps[0], LANE_BULK, apk_to_json(apps[0])),
        v1_submit_line(2, apps[1], LANE_BULK),
    ]
    spool = _spool_with(tmp_path, "v1", lines)
    with pytest.raises(
        ValueError, match=r"queue\.wal:2: unsupported WAL version 1$"
    ):
        SubmissionQueue(spool)


def test_replay_rejects_undecodable_body(tmp_path, apps, v2_wire):
    wire = v2_wire(apps[0])
    wire["dex"]["call_sites"]["api_id"].pop()
    line = v2_submit_line(1, apps[0], LANE_BULK, json.dumps(wire))
    spool = _spool_with(tmp_path, "bad", [line])
    with pytest.raises(ValueError, match="bad submit record"):
        SubmissionQueue(spool)
