"""Row-level exclusive locks with deadlock detection.

Models PostgreSQL's write-path behaviour as described in paper §4: a
writer takes an exclusive lock per row; waiters queue FIFO behind the
holder; the lock manager maintains a waits-for graph and aborts the
*requester* when its request would close a cycle (the database "detects
such deadlock and aborts any of the transactions").
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Generator, Hashable, Optional

from repro.errors import DeadlockDetected, TransactionAborted
from repro.sim import Event


class _Lock:
    __slots__ = ("stamp", "holder", "waiters")

    def __init__(self, stamp: int) -> None:
        #: creation order in the lock table: a release grants in this order
        self.stamp = stamp
        self.holder: Optional[Any] = None
        self.waiters: deque[tuple[Any, Event]] = deque()


class LockManager:
    """Exclusive locks keyed by arbitrary hashables ((table, pk) rows,
    or table names for the §7 baseline's table-level protocol)."""

    def __init__(self, name: str = "locks"):
        self.name = name
        self._locks: dict[Hashable, _Lock] = {}
        self._stamps = itertools.count()
        #: txn -> (lock stamp, key) of each lock it took or queued on,
        #: until its release_all
        self._keys: dict[Any, list[tuple[int, Hashable]]] = {}
        #: txn -> key it is currently waiting for (one at a time)
        self._waiting_for_key: dict[Any, Hashable] = {}
        self.deadlocks_detected = 0

    # -- introspection ------------------------------------------------------

    def holder(self, key: Hashable) -> Optional[Any]:
        lock = self._locks.get(key)
        return lock.holder if lock else None

    def _blockers(self, txn: Any) -> list[Any]:
        """Transactions ``txn`` currently waits behind (holder + earlier
        waiters of the key it's blocked on)."""
        key = self._waiting_for_key.get(txn)
        if key is None:
            return []
        lock = self._locks[key]
        blockers = []
        if lock.holder is not None:
            blockers.append(lock.holder)
        for waiter, _event in lock.waiters:
            if waiter is txn:
                break
            blockers.append(waiter)
        return blockers

    def _would_deadlock(self, requester: Any, key: Hashable) -> bool:
        """DFS over the waits-for graph assuming requester waits on key."""
        lock = self._locks[key]
        start = [lock.holder] + [w for w, _e in lock.waiters]
        seen = set()
        stack = [t for t in start if t is not None]
        while stack:
            txn = stack.pop()
            if txn is requester:
                return True
            if id(txn) in seen:
                continue
            seen.add(id(txn))
            stack.extend(self._blockers(txn))
        return False

    # -- acquire / release ---------------------------------------------------

    def acquire(self, txn: Any, key: Hashable) -> Generator[Any, Any, None]:
        """Take the exclusive lock on ``key`` for ``txn`` (reentrant).

        Blocks while another transaction holds it.  Raises
        :class:`DeadlockDetected` if waiting would close a cycle.
        """
        lock = self._locks.get(key)
        if lock is None:
            lock = _Lock(next(self._stamps))
            self._locks[key] = lock
        if lock.holder is None:
            lock.holder = txn
            self._track(txn, lock, key)
            return
        if lock.holder is txn:
            return
        if self._would_deadlock(txn, key):
            self.deadlocks_detected += 1
            raise DeadlockDetected(
                f"{self.name}: {txn!r} waiting on {key!r} would deadlock"
            )
        granted = Event()
        lock.waiters.append((txn, granted))
        self._track(txn, lock, key)
        self._waiting_for_key[txn] = key
        try:
            yield granted.wait()
        finally:
            self._waiting_for_key.pop(txn, None)

    def release_all(self, txn: Any) -> list[Hashable]:
        """Drop every lock ``txn`` holds, granting to next waiters FIFO.

        If ``txn`` is itself *waiting* on some lock (it was aborted
        externally — e.g. a kernel killing a backend), its pending
        request is cancelled and the blocked process is woken with
        :class:`DeadlockDetected`-style failure so it can observe the
        abort.  Returns the released keys.

        Only ``txn``'s own keys are visited, in lock-table insertion
        order, so its cost does not grow with other transactions' locks.
        """
        entries = self._keys.pop(txn, None)
        if entries is None:
            return []
        entries.sort()
        locks = self._locks
        released = []
        for _stamp, key in entries:
            lock = locks[key]
            if lock.holder is txn:
                released.append(key)
                self._grant_next(key, lock)
            else:
                remaining = deque()
                for waiter, event in lock.waiters:
                    if waiter is txn:
                        self._waiting_for_key.pop(txn, None)
                        event.throw(
                            TransactionAborted(
                                f"{self.name}: lock wait on {key!r} cancelled "
                                "(transaction aborted externally)"
                            )
                        )
                    else:
                        remaining.append((waiter, event))
                lock.waiters = remaining
            if lock.holder is None and not lock.waiters:
                del locks[key]
        return released

    def _track(self, txn: Any, lock: _Lock, key: Hashable) -> None:
        entries = self._keys.get(txn)
        if entries is None:
            self._keys[txn] = [(lock.stamp, key)]
        else:
            entries.append((lock.stamp, key))

    def _grant_next(self, key: Hashable, lock: _Lock) -> None:
        if lock.waiters:
            txn, granted = lock.waiters.popleft()
            lock.holder = txn
            self._waiting_for_key.pop(txn, None)
            granted.set(None)
        else:
            lock.holder = None

    # -- metrics -----------------------------------------------------------------

    def held_count(self) -> int:
        return sum(1 for lock in self._locks.values() if lock.holder is not None)

    def waiting_count(self) -> int:
        return sum(len(lock.waiters) for lock in self._locks.values())
