"""Property-based invariants for the CoW block allocator.

The mapping RAM is the single authoritative copy; the owner table and
the refcount table are derived state.  Whatever interleaving of
G_alloc / G_share / write-fault / G_dealloc runs — and whatever the
fault backdoors corrupt in between — four invariants must hold:

* ``verify()`` is empty whenever no corruption is outstanding, and
  empty again right after an ``audit()``;
* ``audit()`` is idempotent (a second sweep repairs nothing);
* the refcount table sums to the number of mapping-RAM references;
* ``deallocate_all`` of every owner returns the pool to fully free —
  shared blocks free exactly once, never twice (no double-free, no
  leak).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.socdmmu.allocator import BlockAllocator

ROOT_SEED = 42

OWNERS = ("a", "b", "c", "d")

seeds = st.integers(0, 2**16)
pools = st.integers(4, 24)


def _rng(seed: int) -> random.Random:
    return random.Random(f"{ROOT_SEED}|{seed}")


def _total_references(allocator: BlockAllocator) -> int:
    return sum(len(allocator._mappings.get(owner, {})) for owner in OWNERS)


def _refcount_sum(allocator: BlockAllocator) -> int:
    return sum(allocator.refcount_of(block)
               for block in range(allocator.num_blocks))


def _torture(allocator: BlockAllocator, rng: random.Random,
             ops: int) -> None:
    """A random, always-legal op stream over the CoW command set."""
    for _ in range(ops):
        owner = rng.choice(OWNERS)
        mapping = allocator._mappings.get(owner, {})
        roll = rng.random()
        if roll < 0.4 or not mapping:
            blocks = rng.randint(1, 2)
            try:
                allocator.allocate(owner, blocks)
            except AllocationError:
                pass                        # pool full: legal refusal
        elif roll < 0.6:
            virtual = rng.choice(sorted(mapping))
            allocator.share(owner, virtual, rng.choice(OWNERS))
        elif roll < 0.8:
            virtual = rng.choice(sorted(mapping))
            try:
                allocator.write_fault(owner, virtual)
            except AllocationError:
                pass                        # no free block for the copy
        else:
            allocator.deallocate(owner, rng.choice(sorted(mapping)))


@given(seed=seeds, num_blocks=pools, ops=st.integers(10, 120))
@settings(max_examples=40, deadline=None)
def test_torture_keeps_derived_tables_consistent(seed, num_blocks, ops):
    allocator = BlockAllocator(num_blocks, 1024)
    _torture(allocator, _rng(seed), ops)
    assert allocator.verify() == []
    assert allocator.audit() == 0
    assert _refcount_sum(allocator) == _total_references(allocator)
    used = sum(1 for block in range(num_blocks)
               if allocator.refcount_of(block) > 0)
    assert used == allocator.used_blocks


@given(seed=seeds, num_blocks=pools, corruptions=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_audit_repairs_any_corruption_and_is_idempotent(
        seed, num_blocks, corruptions):
    rng = _rng(seed)
    allocator = BlockAllocator(num_blocks, 1024)
    _torture(allocator, rng, 60)
    reference = allocator.snapshot_payload()
    for _ in range(corruptions):
        block = rng.randrange(num_blocks)
        if rng.random() < 0.5:
            allocator.corrupt(block, rng.choice((None, "<ghost>", "a")))
        else:
            allocator.corrupt_refcount(block, rng.randint(0, 5))
    allocator.audit()
    assert allocator.verify() == []
    assert allocator.audit() == 0
    # The repaired tables match the never-corrupted reference exactly:
    # corruption of derived state is always fully reversible.
    assert allocator.snapshot_payload() == reference


@given(seed=seeds, num_blocks=pools)
@settings(max_examples=40, deadline=None)
def test_deallocate_all_returns_the_pool_to_fully_free(seed, num_blocks):
    allocator = BlockAllocator(num_blocks, 1024)
    _torture(allocator, _rng(seed), 80)
    dropped = sum(allocator.deallocate_all(owner) for owner in OWNERS)
    assert dropped == _refcount_sum_zero_check(allocator, dropped)
    assert allocator.free_blocks == num_blocks
    assert allocator.shared_blocks == 0
    assert _refcount_sum(allocator) == 0
    assert allocator.verify() == []


def _refcount_sum_zero_check(allocator: BlockAllocator,
                             dropped: int) -> int:
    """Every reference was dropped exactly once (no double-free)."""
    assert all(allocator.owner_of(block) is None
               for block in range(allocator.num_blocks))
    return dropped


@given(seed=seeds, num_blocks=pools, sharers=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_share_write_fault_free_round_trip(seed, num_blocks, sharers):
    rng = _rng(seed)
    allocator = BlockAllocator(num_blocks, 1024)
    virtual = allocator.allocate("a", 1)[0]
    physical = allocator.translate("a", virtual)
    peers = [(peer, allocator.share("a", virtual, peer))
             for peer in rng.sample(("b", "c", "d"), sharers)]
    assert allocator.refcount_of(physical) == 1 + sharers
    for peer, peer_virtual in peers:
        if allocator.free_blocks > 0:
            allocator.write_fault(peer, peer_virtual)
        allocator.deallocate(peer, peer_virtual)
    allocator.deallocate("a", virtual)
    assert allocator.free_blocks == num_blocks
    assert allocator.verify() == []


@given(seed=seeds, num_blocks=pools, ops=st.integers(10, 100))
@settings(max_examples=40, deadline=None)
def test_snapshot_payload_round_trips_any_state(seed, num_blocks, ops):
    allocator = BlockAllocator(num_blocks, 1024)
    _torture(allocator, _rng(seed), ops)
    payload = allocator.snapshot_payload()
    restored = BlockAllocator.from_payload(payload)
    assert restored.snapshot_payload() == payload
    assert restored.verify() == []


def test_churn_with_periodic_corruption_stays_consistent():
    """100k seeded ops; every 997th corrupts a derived table, then audits.

    Each audit must heal the corruption completely and idempotently,
    and freeing every owner at the end must return the whole pool.
    """
    num_blocks, audit_every = 48, 997
    rng = random.Random("memory-torture|42")
    allocator = BlockAllocator(num_blocks, 1024)
    owners = tuple(f"t{i}" for i in range(6))
    violations = []
    for index in range(100_000):
        owner = rng.choice(owners)
        mapping = allocator._mappings.get(owner, {})
        roll = rng.random()
        try:
            if roll < 0.35 or not mapping:
                allocator.allocate(owner, rng.randint(1, 3))
            elif roll < 0.55:
                allocator.share(owner, rng.choice(sorted(mapping)),
                                rng.choice(owners))
            elif roll < 0.75:
                allocator.write_fault(owner, rng.choice(sorted(mapping)))
            else:
                allocator.deallocate(owner, rng.choice(sorted(mapping)))
        except AllocationError:
            pass                            # a legal refusal
        if index % audit_every == audit_every - 1:
            block = rng.randrange(num_blocks)
            if rng.random() < 0.5:
                allocator.corrupt(block, rng.choice((None, "<ghost>")))
            else:
                allocator.corrupt_refcount(block, rng.randint(0, 5))
            allocator.audit()
            if allocator.verify() or allocator.audit() != 0:
                violations.append(index)
    assert violations == []
    for owner in owners:
        allocator.deallocate_all(owner)
    assert allocator.free_blocks == num_blocks
    assert allocator.verify() == []
