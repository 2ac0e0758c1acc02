"""Process pools whose forked workers keep the parent's heap shared.

A forked worker starts with every page of the parent shared
copy-on-write.  A full collection in the worker writes into the GC
header of every tracked object it walks, so it copies each page that
holds one of the parent's containers — tens of MB once the parent holds
a world and an inference result.  Whether a worker reaches a full
collection depends on which chunks it happens to be handed, so without
care the pool's memory moves from one run to the next.

:func:`fork_pool` moves everything alive at fork time into the
permanent generation (:func:`gc.freeze`) before the workers are forked,
so no collection — in a worker or in this process — walks those
objects while the pool is up; :func:`close_pool` shuts the pool down
and hands them back to the collector.
"""

from __future__ import annotations

import concurrent.futures
import gc


def fork_pool(**kwargs) -> concurrent.futures.ProcessPoolExecutor:
    """A :class:`~concurrent.futures.ProcessPoolExecutor` over a frozen
    heap; always release it with :func:`close_pool`."""
    gc.freeze()
    try:
        return concurrent.futures.ProcessPoolExecutor(**kwargs)
    except BaseException:
        gc.unfreeze()
        raise


def close_pool(executor: concurrent.futures.ProcessPoolExecutor) -> None:
    """Shut ``executor`` down, cancelling queued work, then unfreeze.

    Not the context manager: on error or interrupt its plain shutdown
    would still drain every queued chunk before this process can exit.
    """
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    finally:
        gc.unfreeze()
