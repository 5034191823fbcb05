"""Crash-recovery acceptance tests.

The headline guarantee: kill the process at *any* point of an update
stream, run :func:`repro.resilience.recovery.recover_engine` on the
artifact directory, and the recovered engine has the exact entity matrix
— bit-identical — and the exact query answers of the crashed engine for
every acknowledged update. The crash is simulated honestly: the live
engine object is discarded and recovery starts from nothing but the
files on disk.
"""

import numpy as np
import pytest

from repro.dynamic.updater import OnlineUpdater
from repro.errors import RecoveryError
from repro.persistence import save_engine
from repro.query.spec import QuerySpec
from repro.resilience.recovery import recover_engine
from repro.resilience.wal import WAL_FILENAME, DurableUpdater, WriteAheadLog


def _durable(engine, directory):
    save_engine(engine, directory)
    return DurableUpdater(OnlineUpdater(engine, seed=0), directory)


def _apply_stream(durable, graph):
    """A mixed update stream: edge adds, a removal, a new entity."""
    likes = graph.relations.id_of("likes")
    reports = []
    for i in range(6):
        reports.append(
            durable.add_edge(
                graph.entities.id_of(f"user:{i}"),
                likes,
                graph.entities.id_of(f"movie:{i}"),
            )
        )
    durable.remove_edge(
        graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0")
    )
    durable.add_entity("user:new", near=graph.entities.id_of("user:1"))
    return likes


def test_recover_restores_bitidentical_state_after_crash(
    make_trainable_engine, tmp_path
):
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    likes = _apply_stream(durable, engine.graph)

    # What the crashed process would have answered.
    expected_matrix = np.array(engine.model.entity_vectors())
    expected_relations = np.array(engine.model.relation_vectors())
    probes = [engine.graph.entities.id_of(f"user:{i}") for i in range(6)]
    specs = [QuerySpec(entity=u, relation=likes, k=5) for u in probes]
    expected_answers = [engine.execute(spec).topk.entities for spec in specs]
    num_entities = engine.graph.num_entities

    # kill -9: the live engine is gone; only the files survive.
    del engine, durable

    recovered, report = recover_engine(artifact)
    assert report.applied == 8
    assert report.dangling == [] and report.torn_tail is False
    assert recovered.graph.num_entities == num_entities
    assert np.array_equal(recovered.model.entity_vectors(), expected_matrix)
    assert np.array_equal(recovered.model.relation_vectors(), expected_relations)
    for spec, want in zip(specs, expected_answers):
        assert recovered.execute(spec).topk.entities == want


def test_recover_after_checkpoint_skips_snapshotted_records(
    make_trainable_engine, tmp_path
):
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    durable.add_edge(graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0"))
    durable.checkpoint()
    durable.add_edge(graph.entities.id_of("user:1"), likes, graph.entities.id_of("movie:1"))
    expected = np.array(engine.model.entity_vectors())
    del engine, durable

    recovered, report = recover_engine(artifact)
    assert report.snapshot_lsn == 1
    assert report.applied == 1 and report.skipped == 0
    assert np.array_equal(recovered.model.entity_vectors(), expected)


def test_crash_between_snapshot_and_truncate_is_safe(
    make_trainable_engine, tmp_path
):
    """If the process dies after the snapshot rename but before the WAL
    truncate, the log still holds records the snapshot already absorbed;
    recovery must skip them by LSN, not apply them twice."""
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    durable.add_edge(graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0"))

    # A checkpoint whose truncate never happened: write the snapshot
    # directly, leaving the WAL records in place.
    save_engine(engine, artifact, extra_meta={"wal": {"last_lsn": 1}}, keep={WAL_FILENAME})
    expected = np.array(engine.model.entity_vectors())
    del engine, durable

    recovered, report = recover_engine(artifact)
    assert report.skipped == 1 and report.applied == 0
    assert np.array_equal(recovered.model.entity_vectors(), expected)


def test_dangling_begin_is_dropped_and_reported(make_trainable_engine, tmp_path):
    """A begin without a commit = the crash hit mid-apply. The update was
    never acknowledged, so recovery drops it."""
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    durable.add_edge(graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0"))
    snapshot = np.array(engine.model.entity_vectors())  # state after lsn 1

    # Crash mid-apply of lsn 2: append only the begin record.
    durable.wal.append(
        {"lsn": 2, "type": "begin", "op": "add_edge",
         "args": {"head": 0, "relation": 0, "tail": 1}}
    )
    del engine, durable

    recovered, report = recover_engine(artifact)
    assert report.applied == 1
    assert report.dangling == [2]
    assert "unacknowledged" in report.summary()
    assert np.array_equal(recovered.model.entity_vectors(), snapshot)


def test_torn_tail_record_is_discarded(make_trainable_engine, tmp_path):
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    durable.add_edge(graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0"))
    after_first = np.array(engine.model.entity_vectors())
    durable.add_edge(graph.entities.id_of("user:1"), likes, graph.entities.id_of("movie:1"))
    del engine, durable

    # Tear the final (commit of lsn 2) record mid-write.
    wal_path = artifact / WAL_FILENAME
    text = wal_path.read_text()
    wal_path.write_text(text[: len(text) - 30])

    recovered, report = recover_engine(artifact)
    assert report.torn_tail is True
    # lsn 2's commit is gone, so its begin dangles and only lsn 1 applies.
    assert report.applied == 1 and report.dangling == [2]
    assert np.array_equal(recovered.model.entity_vectors(), after_first)


def test_no_wal_degrades_to_plain_load(make_trainable_engine, tmp_path):
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    save_engine(engine, artifact)
    recovered, report = recover_engine(artifact)
    assert report.records_seen == 0 and report.applied == 0
    assert np.array_equal(
        recovered.model.entity_vectors(), engine.model.entity_vectors()
    )


def test_replay_divergence_is_detected(make_trainable_engine, tmp_path):
    """A WAL that doesn't match the snapshot (wrong artifact, manual
    tampering) must fail loudly, not corrupt silently."""
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    durable.wal.append(
        {"lsn": 1, "type": "begin", "op": "remove_edge",
         "args": {"head": 0, "relation": 0, "tail": 1}}
    )
    durable.wal.append(
        {"lsn": 1, "type": "commit", "op": "remove_edge",
         "args": {"head": 0, "relation": 0, "tail": 1},
         "effects": {"vectors": {}, "relations": {}, "reindexed": []}}
    )
    # The edge (0, 0, 1) does not exist in the snapshot.
    if not engine.graph.has_triple(0, 0, 1):
        with pytest.raises(RecoveryError, match="diverged"):
            recover_engine(artifact)


def test_recover_with_shards_routes_replay_through_the_router(
    make_trainable_engine, tmp_path
):
    """``recover_engine(shards=N)`` re-shards *before* WAL replay, so
    replayed inserts land in the owning shard's tree; the recovered
    sharded engine answers exactly like a plainly recovered one."""
    from repro.query.spec import QuerySpec

    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    likes = _apply_stream(durable, engine.graph)
    expected_matrix = np.array(engine.model.entity_vectors())
    probes = [engine.graph.entities.id_of(f"user:{i}") for i in range(6)]
    del engine, durable

    plain, _ = recover_engine(artifact)
    sharded, report = recover_engine(artifact, shards=3)
    try:
        assert report.applied == 8
        assert sharded.is_sharded and sharded.num_shards == 3
        assert np.array_equal(sharded.model.entity_vectors(), expected_matrix)
        # The WAL's add_entity landed in a shard tree, not outside them.
        new = sharded.graph.entities.id_of("user:new")
        assert sharded._shard_of(new) in range(3)
        sharded.check_shard_invariants()
        # epsilon=1.0 puts both engines on the exhaustive answer.
        for probe in probes:
            spec = QuerySpec(entity=probe, relation=likes, k=5, epsilon=1.0)
            assert sharded.execute(spec).topk.entities == plain.execute(spec).topk.entities
    finally:
        sharded.close()


def test_recovered_engine_accepts_further_durable_updates(
    make_trainable_engine, tmp_path
):
    """Recovery → more updates → recovery again: the cycle must close."""
    artifact = tmp_path / "artifact"
    engine = make_trainable_engine()
    durable = _durable(engine, artifact)
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    durable.add_edge(graph.entities.id_of("user:0"), likes, graph.entities.id_of("movie:0"))
    del engine, durable

    recovered, _ = recover_engine(artifact)
    # The recovered model is frozen (pretrained); the vector-set path
    # still works and must be durable too.
    durable2 = DurableUpdater(OnlineUpdater(recovered, seed=0), artifact)
    entity = recovered.graph.entities.id_of("user:2")
    vector = np.array(recovered.model.entity_vectors()[entity]) * 1.01
    durable2.set_entity_vector(entity, vector)
    expected = np.array(recovered.model.entity_vectors())
    del recovered, durable2

    again, report = recover_engine(artifact)
    assert report.applied == 2
    assert np.array_equal(again.model.entity_vectors(), expected)
