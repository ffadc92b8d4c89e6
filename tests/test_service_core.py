"""Unit tests for the service's transport-free layers.

Covers the wire protocol helpers, the :class:`Tenant` state machine
(grant policy, deterministic promotion, protocol violations, checkpoint
round-trips) and the :class:`ShardCore` command loop — in particular
*tick-consistent detection*: every detect in a batch is answered from
one batched reduction that reflects all mutations accepted earlier in
the same batch.
"""

import pytest

from repro.errors import ServiceError
from repro.service.protocol import (
    ADMIN_OPS,
    ERROR_CODES,
    TENANT_OPS,
    ServiceOpError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from repro.service.shard import ShardCore
from repro.service.tenant import Tenant


# ---------------------------------------------------------------------------
# protocol


def test_encode_decode_round_trip():
    message = {"op": "claim", "tenant": "t", "id": 7,
               "process": "p1", "resource": "q1"}
    assert decode_line(encode_message(message)) == message


def test_encode_is_one_line():
    line = encode_message({"op": "ping", "note": "a\nb"})
    assert line.endswith(b"\n")
    assert line.count(b"\n") == 1


def test_decode_rejects_bad_json():
    with pytest.raises(ServiceOpError) as excinfo:
        decode_line(b"{nope\n")
    assert excinfo.value.code == "bad-request"


def test_decode_rejects_non_object():
    with pytest.raises(ServiceOpError):
        decode_line(b"[1, 2]\n")


def test_validate_unknown_op():
    with pytest.raises(ServiceOpError) as excinfo:
        validate_request({"op": "frobnicate"})
    assert excinfo.value.code == "bad-request"


def test_validate_tenant_ops_need_tenant():
    for op in sorted(TENANT_OPS):
        with pytest.raises(ServiceOpError):
            validate_request({"op": op})
    for op in sorted(ADMIN_OPS):
        assert validate_request({"op": op}) == op


def test_responses_echo_id():
    request = {"op": "detect", "tenant": "t", "id": "abc"}
    assert ok_response(request, deadlock=False)["id"] == "abc"
    assert error_response(request, "backpressure")["id"] == "abc"
    assert "id" not in ok_response({"op": "ping"})


def test_error_codes_are_validated():
    with pytest.raises(ServiceError):
        error_response(None, "no-such-code")
    with pytest.raises(ServiceError):
        ServiceOpError("no-such-code")
    assert "backpressure" in ERROR_CODES


# ---------------------------------------------------------------------------
# tenant


def _claim(tenant, process, resource):
    return tenant.claim({"process": process, "resource": resource})


def _release(tenant, process, resource):
    return tenant.release({"process": process, "resource": resource})


def test_tenant_attach_dims():
    tenant = Tenant.from_attach("t", {"m": 3, "n": 5})
    assert (tenant.matrix.m, tenant.matrix.n) == (3, 5)
    assert tenant.op_seq == 0


def test_tenant_attach_rejects_oversize():
    from repro.service.tenant import MAX_TENANT_SIDE
    with pytest.raises(ServiceOpError) as excinfo:
        Tenant.from_attach("t", {"m": MAX_TENANT_SIDE + 1, "n": 4})
    assert excinfo.value.code == "bad-request"


def test_tenant_attach_accepts_multiword_dims():
    """65..512-wide tenants are admissible now — the multi-word plane
    packs them; only absurd sizes are rejected."""
    tenant = Tenant.from_attach("t", {"m": 65, "n": 128})
    assert (tenant.matrix.m, tenant.matrix.n) == (65, 128)


def test_tenant_attach_seeded_is_deterministic():
    a = Tenant.from_attach("a", {"seed": 11, "m": 8, "n": 8})
    b = Tenant.from_attach("b", {"seed": 11, "m": 8, "n": 8})
    state_a = a.matrix.snapshot_state()["state_hash"]
    state_b = b.matrix.snapshot_state()["state_hash"]
    assert state_a == state_b


def test_tenant_attach_rows():
    tenant = Tenant.from_attach("t", {"rows": ["g r", ". .", "r g"]})
    assert (tenant.matrix.m, tenant.matrix.n) == (3, 2)


def test_claim_grants_free_resource():
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    reply = _claim(tenant, "p1", "q1")
    assert reply == {"granted": True, "blocked": False, "op_seq": 1}


def test_claim_blocks_on_held_resource():
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _claim(tenant, "p1", "q1")
    reply = _claim(tenant, "p2", "q1")
    assert reply["granted"] is False and reply["blocked"] is True
    assert tenant.blocked == 1


def test_double_claim_is_protocol_violation():
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _claim(tenant, "p1", "q1")
    with pytest.raises(ServiceOpError) as excinfo:
        _claim(tenant, "p1", "q1")
    assert excinfo.value.code == "protocol-violation"


def test_release_promotes_lowest_index_waiter():
    tenant = Tenant.from_attach("t", {"m": 1, "n": 4})
    _claim(tenant, "p3", "q1")
    _claim(tenant, "p4", "q1")
    _claim(tenant, "p2", "q1")
    reply = _release(tenant, "p3", "q1")
    assert reply["promoted"] == "p2"      # lowest index, not FIFO
    reply = _release(tenant, "p2", "q1")
    assert reply["promoted"] == "p4"


def test_release_without_grant_is_violation():
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    with pytest.raises(ServiceOpError) as excinfo:
        _release(tenant, "p1", "q1")
    assert excinfo.value.code == "protocol-violation"


def test_unknown_names_rejected():
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    with pytest.raises(ServiceOpError):
        _claim(tenant, "nope", "q1")
    with pytest.raises(ServiceOpError):
        _claim(tenant, "p1", "nope")


def test_tenant_snapshot_round_trip():
    tenant = Tenant.from_attach("t", {"seed": 5, "m": 8, "n": 8})
    _release(tenant, *_first_grant(tenant))
    envelope = tenant.snapshot_state()
    twin = Tenant.restore_state(envelope)
    assert twin.tenant_id == "t"
    assert twin.op_seq == tenant.op_seq
    assert twin.snapshot_state()["state_hash"] == envelope["state_hash"]


def _first_grant(tenant):
    matrix = tenant.matrix
    for s in range(matrix.m):
        grants = matrix._row_g[s]
        if grants:
            t = (grants & -grants).bit_length() - 1
            return matrix.process_names[t], matrix.resource_names[s]
    raise AssertionError("seeded tenant has no grant")


# ---------------------------------------------------------------------------
# shard core


def _attach_op(tenant_id, **spec):
    return {"op": "attach", "tenant": tenant_id, **spec}


def _restore(core, tenant):
    """Install ``tenant`` on ``core`` as the front end does: a
    ``restore`` op in a batch."""
    reply, = core.handle_batch([{"op": "restore",
                                 "tenant": tenant.tenant_id,
                                 "envelope": tenant.snapshot_state()}])
    assert reply["ok"] is True, reply


def test_shard_batch_applies_in_order_then_detects():
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _restore(core, tenant)
    ops = [
        {"op": "claim", "tenant": "t", "process": "p1", "resource": "q1"},
        {"op": "claim", "tenant": "t", "process": "p2", "resource": "q2"},
        {"op": "detect", "tenant": "t"},
        {"op": "claim", "tenant": "t", "process": "p1", "resource": "q2"},
        {"op": "claim", "tenant": "t", "process": "p2", "resource": "q1"},
        {"op": "detect", "tenant": "t"},
    ]
    kind, replies = core.handle("batch", ops)
    assert kind == "results"
    assert replies[0]["granted"] and replies[1]["granted"]
    # Tick-consistent: BOTH detects see the full batch's mutations —
    # the cycle closed by ops 3-4 — and echo the final op_seq.
    assert replies[2]["deadlock"] is True
    assert replies[5]["deadlock"] is True
    assert replies[2]["op_seq"] == replies[5]["op_seq"] == 4
    assert core.detect_batches == 1


def test_shard_batch_one_reduction_for_many_tenants():
    core = ShardCore(0)
    ops = []
    for i in range(6):
        tenant = Tenant.from_attach(f"t{i}", {"seed": 100 + i,
                                              "m": 8, "n": 8})
        _restore(core, tenant)
        ops.append({"op": "detect", "tenant": f"t{i}"})
    kind, replies = core.handle("batch", ops)
    assert kind == "results"
    assert core.detect_batches == 1
    assert all(reply["batched"] == 6 for reply in replies)


def test_shard_batch_per_op_errors_do_not_poison_batch():
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _restore(core, tenant)
    ops = [
        {"op": "claim", "tenant": "ghost", "process": "p1",
         "resource": "q1"},
        {"op": "claim", "tenant": "t", "process": "p1", "resource": "q1"},
        {"op": "release", "tenant": "t", "process": "p2",
         "resource": "q1"},
        {"op": "detect", "tenant": "t"},
    ]
    kind, replies = core.handle("batch", ops)
    assert kind == "results"
    assert replies[0]["error"] == "unknown-tenant"
    assert replies[1]["granted"] is True
    assert replies[2]["error"] == "protocol-violation"
    assert replies[3]["ok"] is True and replies[3]["op_seq"] == 1


def test_shard_detect_matches_per_tenant_reduce():
    from repro.rag.bitmatrix import BitMatrix
    from repro.rag.generate import random_state, resolve_rng
    core = ShardCore(0)
    expected = {}
    ops = []
    for i in range(8):
        rag = random_state(10, 10, rng=resolve_rng(seed=500 + i))
        matrix = BitMatrix.from_rag(rag)
        tenant = Tenant(f"t{i}", matrix.copy())
        _restore(core, tenant)
        solo = matrix.copy()
        iterations, passes = solo.reduce()
        expected[f"t{i}"] = (not solo.is_empty(), iterations, passes)
        ops.append({"op": "detect", "tenant": f"t{i}"})
    _kind, replies = core.handle("batch", ops)
    for op, reply in zip(ops, replies):
        deadlock, iterations, passes = expected[op["tenant"]]
        assert reply["deadlock"] == deadlock
        assert reply["iterations"] == iterations
        assert reply["passes"] == passes


def test_shard_snapshot_restore_drop():
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"seed": 9, "m": 6, "n": 6})
    envelope = tenant.snapshot_state()
    kind, replies = core.handle("batch", [
        {"op": "restore", "tenant": "t", "envelope": envelope}])
    assert kind == "results"
    assert replies[0] == {"ok": True, "attached": True, "m": 6, "n": 6,
                          "shard": 0, "state_hash": envelope["state_hash"]}
    kind, detail = core.handle("restore", envelope)
    assert kind == "error" and "unknown shard command" in detail
    kind, snap = core.handle("snapshot", "t")
    assert kind == "snapshot"
    assert snap["state_hash"] == envelope["state_hash"]
    kind, reply = core.handle("drop", "t")
    assert kind == "ok" and reply["tenants"] == 0
    kind, detail = core.handle("snapshot", "t")
    assert kind == "error" and "not on shard" in detail


def test_shard_unknown_command_is_error_reply():
    core = ShardCore(3)
    kind, detail = core.handle("explode", None)
    assert kind == "error"
    assert "explode" in detail


# ---------------------------------------------------------------------------
# incremental tick reduction


def _detect(core, tenant_id):
    _kind, replies = core.handle("batch",
                                 [{"op": "detect", "tenant": tenant_id}])
    return replies[0]


def test_shard_clean_detect_skips_reduction():
    """A tenant that has not mutated since its last verdict is
    answered from the cache — no new reduction, same payload."""
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"seed": 3, "m": 8, "n": 8})
    _restore(core, tenant)
    first = _detect(core, "t")
    assert core.detect_batches == 1
    again = _detect(core, "t")
    assert core.detect_batches == 1, "clean detect must not re-reduce"
    assert core.detects_skipped == 1
    for key in ("deadlock", "iterations", "passes",
                "deadlocked_processes", "op_seq", "batched"):
        assert again[key] == first[key]


def test_shard_mutation_dirties_the_verdict():
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _restore(core, tenant)
    assert _detect(core, "t")["deadlock"] is False
    assert core.detect_batches == 1
    # Close a 2-cycle; the cached verdict must be abandoned.
    ops = [
        {"op": "claim", "tenant": "t", "process": "p1", "resource": "q1"},
        {"op": "claim", "tenant": "t", "process": "p2", "resource": "q2"},
        {"op": "claim", "tenant": "t", "process": "p1", "resource": "q2"},
        {"op": "claim", "tenant": "t", "process": "p2", "resource": "q1"},
    ]
    core.handle("batch", ops)
    reply = _detect(core, "t")
    assert reply["deadlock"] is True
    assert reply["op_seq"] == 4
    assert core.detect_batches == 2
    assert core.dirty_reduced == 2


def test_shard_only_dirty_tenants_reduced():
    """Of 4 tenants, mutate 1: the next all-tenant detect tick reduces
    only that one and serves the other 3 from cache."""
    core = ShardCore(0)
    for i in range(4):
        tenant = Tenant.from_attach(f"t{i}", {"m": 8, "n": 8})
        _restore(core, tenant)
    detect_all = [{"op": "detect", "tenant": f"t{i}"} for i in range(4)]
    core.handle("batch", detect_all)
    assert core.dirty_reduced == 4
    core.handle("batch", [{"op": "claim", "tenant": "t2",
                           "process": "p1", "resource": "q1"}])
    _kind, replies = core.handle("batch", detect_all)
    assert core.dirty_reduced == 5          # only t2 re-entered
    assert core.detects_skipped == 3
    assert replies[2]["op_seq"] == 1
    # Every reply is still correct against a solo reduction.
    for i, reply in enumerate(replies):
        solo = core.tenants[f"t{i}"].matrix.copy()
        iterations, passes = solo.reduce()
        assert (reply["deadlock"], reply["iterations"],
                reply["passes"]) == (not solo.is_empty(), iterations,
                                     passes)


def test_shard_restore_invalidates_cache_and_slot():
    """Migration/crash-recovery replaces the Tenant object; the stale
    cached verdict must never answer for the twin."""
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"m": 2, "n": 2})
    _restore(core, tenant)
    _detect(core, "t")
    # Build a deadlocked twin out-of-band and restore over the top.
    twin = Tenant.from_attach("t", {"m": 2, "n": 2})
    for process, resource in (("p1", "q1"), ("p2", "q2"),
                              ("p1", "q2"), ("p2", "q1")):
        twin.claim({"process": process, "resource": resource})
    _restore(core, twin)
    reply = _detect(core, "t")
    assert reply["deadlock"] is True
    assert reply["op_seq"] == 4


def test_shard_detach_frees_plane_slot():
    core = ShardCore(0)
    tenant = Tenant.from_attach("t", {"seed": 1, "m": 8, "n": 8})
    _restore(core, tenant)
    _detect(core, "t")
    core.handle("batch", [{"op": "detach", "tenant": "t"}])
    assert "t" not in core.tenants
    kind, reply = core.handle("ping", None)
    assert kind == "ok" and reply["tenants"] == 0
    # Reattach and detect again: a fresh reduction, not a stale verdict.
    fresh = Tenant.from_attach("t", {"m": 2, "n": 2})
    _restore(core, fresh)
    assert _detect(core, "t")["deadlock"] is False


def test_shard_ping_reports_reduction_tallies():
    core = ShardCore(2)
    tenant = Tenant.from_attach("t", {"seed": 2, "m": 8, "n": 8})
    _restore(core, tenant)
    _detect(core, "t")
    _detect(core, "t")
    kind, reply = core.handle("ping", None)
    assert kind == "ok"
    assert reply["detect_batches"] == 1
    assert reply["dirty_tenants"] == 1
    assert reply["skipped_detects"] == 1


def test_shard_obs_counters_attribute_the_win():
    from repro.obs import Observability
    obs = Observability(label="shard-test")
    core = ShardCore(0, obs=obs)
    for i in range(3):
        tenant = Tenant.from_attach(f"t{i}", {"seed": 60 + i,
                                              "m": 8, "n": 8})
        _restore(core, tenant)
    detect_all = [{"op": "detect", "tenant": f"t{i}"} for i in range(3)]
    core.handle("batch", detect_all)
    core.handle("batch", detect_all)
    metrics = obs.metrics
    assert metrics.counter("matrix.batch.dirty_tenants", "").value == 3
    assert metrics.counter("matrix.batch.skipped", "").value == 3


# ---------------------------------------------------------------------------
# exhaustive small scope: every legal state x every legal single op


def _single_ops(matrix):
    """Every legal claim (empty cell) and release (granted cell)."""
    from repro.rag.matrix import CellState
    for s in range(matrix.m):
        for t in range(matrix.n):
            cell = matrix.get(s, t)
            if cell is CellState.EMPTY:
                yield "claim", t, s
            elif cell is CellState.GRANT:
                yield "release", t, s


def _reference_verdict(matrix):
    from repro.deadlock.pdda import pdda_detect
    from repro.rag.bitmatrix import REFERENCE_BACKEND
    result = pdda_detect(matrix, backend=REFERENCE_BACKEND)
    residual = result.residual
    processes = [residual.process_names[t] for t in range(residual.n)
                 if residual.column_bwo(t) != (0, 0)]
    return (result.deadlock, processes, result.iterations, result.passes)


def _reply_verdict(reply):
    return (reply["deadlock"], reply["deadlocked_processes"],
            reply["iterations"], reply["passes"])


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_shard_every_single_op_matches_fresh_reduce(m, n):
    """Warm the verdict cache, apply one op, detect again: the answer
    must equal a from-scratch reference reduction of the new state."""
    from repro.experiments.exhaustive_bound import enumerate_states
    from repro.rag.bitmatrix import BitMatrix
    core = ShardCore(0)
    checked = 0
    for state in enumerate_states(m, n):
        before = _reference_verdict(state)
        for name, t, s in _single_ops(state):
            _restore(core, Tenant("t", BitMatrix.from_matrix(state)))
            assert _reply_verdict(_detect(core, "t")) == before
            tenant = core.tenants["t"]
            op = {"op": name, "tenant": "t",
                  "process": tenant.matrix.process_names[t],
                  "resource": tenant.matrix.resource_names[s]}
            _kind, replies = core.handle(
                "batch", [op, {"op": "detect", "tenant": "t"}])
            assert replies[0]["ok"] is True, replies[0]
            after = replies[1]
            assert after["op_seq"] == 1
            assert _reply_verdict(after) == _reference_verdict(
                tenant.matrix), (state.render(), op)
            checked += 1
    assert core.detect_batches == 2 * checked


def test_service_entry_point_does_not_import_numpy():
    """NumPy is a test dependency only: the server process never loads
    it, which keeps the shard workers' resident set small."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, repro.service.__main__\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
