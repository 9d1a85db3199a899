"""DynamicBatcher.pop_oldest: the idle flush's half of the batcher."""

import threading

import numpy as np

from repro.serve.batching import DynamicBatcher, PendingRequest


def make_request(tenant="default", shape=(4, 3, 2)):
    return PendingRequest(window=np.zeros(shape), tenant=tenant)


def test_pops_the_bucket_whose_first_request_arrived_first():
    batcher = DynamicBatcher(max_batch_size=100, max_delay_ms=10_000)
    first = [make_request(tenant="a"), make_request(tenant="a")]
    batcher.add(first[0])
    batcher.add(make_request(tenant="b"))
    batcher.add(make_request(tenant="a", shape=(5, 3, 2)))
    batcher.add(first[1])  # a late joiner does not make its bucket younger
    batch = batcher.pop_oldest()
    assert batch.tenant == "a" and batch.requests == first
    assert not batch.due_to_deadline
    assert batcher.pop_oldest().tenant == "b"
    assert batcher.pop_oldest().requests[0].window.shape == (5, 3, 2)


def test_empties_the_bucket_map():
    batcher = DynamicBatcher(max_batch_size=100, max_delay_ms=10_000)
    batcher.add(make_request())
    assert len(batcher.pop_oldest()) == 1
    assert len(batcher) == 0 and not batcher._buckets
    assert batcher.pop_oldest() is None
    # The popped key starts over as a fresh bucket.
    batcher.add(make_request())
    assert len(batcher.pop_oldest()) == 1


def test_none_once_closed_leaving_the_bucket_to_drain():
    batcher = DynamicBatcher(max_batch_size=100, max_delay_ms=10_000)
    batcher.add(make_request())
    batcher.close()
    assert batcher.pop_oldest() is None
    assert [len(batch) for batch in batcher.drain()] == [1]


def test_wakes_no_flusher():
    batcher = DynamicBatcher(max_batch_size=100, max_delay_ms=10_000)
    batcher.add(make_request())
    returned = threading.Event()

    def flusher():
        batcher.wait_due()
        returned.set()

    thread = threading.Thread(target=flusher)
    thread.start()
    notified = []
    batcher._cond.notify_all = lambda: notified.append(True)
    assert batcher.pop_oldest() is not None
    assert not notified and not returned.is_set()
    del batcher._cond.notify_all
    batcher.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
