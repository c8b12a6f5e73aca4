"""Shared key-indexed conflict tracking for the replication hot paths.

Every conflict question the middleware asks — "does this writeset overlap
anything queued?", "which queued predecessor blocks this entry?", "how
many in-batch peers does this writeset touch?" — is a question about
*(table, pk)* key overlap.  The linear-scan formulations are O(window ×
|WS|) per question; the structures here answer them in O(|WS|) by keeping
per-key postings, exactly as the certifier's ``_last_writer`` map already
does for certification itself (see validation.py's module docstring).

The module is deliberately leaf-level (stdlib only, no ``repro``
imports): both ``repro.core.tocommit`` and ``repro.gcs.multicast`` use
it, and those packages sit on opposite sides of the ``repro.core`` ->
``repro.gcs`` import edge.

Observational equivalence with the linear scans is pinned by the
property suite in ``tests/conformance/test_conflict_index_equivalence.py``
against the oracles kept in ``repro.core._reference``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

Key = Any


class KeyIndex:
    """Per-key postings of *positions* (monotone integers).

    Positions must be issued by a monotone counter and never reused:
    postings are kept as insertion-ordered dicts, so each posting's
    iteration order IS ascending position order and the first surviving
    entry is the per-key minimum — deletions (``discard``) preserve both
    properties.  That makes every query below O(|keys|) plus, for
    predicate queries, the qualifying-prefix skips.
    """

    __slots__ = ("_postings",)

    def __init__(self) -> None:
        #: key -> {pos: None} insertion-ordered set of positions
        self._postings: dict[Key, dict[int, None]] = {}

    def add(self, pos: int, keys: Iterable[Key]) -> None:
        for key in keys:
            self._postings.setdefault(key, {})[pos] = None

    def discard(self, pos: int, keys: Iterable[Key]) -> None:
        for key in keys:
            posting = self._postings.get(key)
            if posting is None:
                continue
            posting.pop(pos, None)
            if not posting:
                del self._postings[key]

    def touches(self, keys: Iterable[Key]) -> bool:
        """Is any of ``keys`` currently posted? (= "overlaps the window")"""
        postings = self._postings
        return any(key in postings for key in keys)

    def shared_keys(self, keys: Iterable[Key]) -> list[Key]:
        """The subset of ``keys`` posted by at least one position."""
        postings = self._postings
        return [key for key in keys if key in postings]

    def earliest(
        self,
        keys: Iterable[Key],
        below: int,
        predicate: Optional[Callable[[int], bool]] = None,
    ) -> Optional[int]:
        """Smallest posted position < ``below`` over ``keys``.

        With a ``predicate``, per key the first qualifying position is
        taken (skipped positions are bounded by the qualifying prefix —
        in the to-commit queue, by the pipeline's installed run).  The
        minimum over keys equals what a front-to-back scan of the whole
        window would return first, because positions are issued in
        window order.
        """
        best: Optional[int] = None
        postings = self._postings
        for key in keys:
            posting = postings.get(key)
            if not posting:
                continue
            for pos in posting:
                if pos >= below:
                    break  # ascending: nothing earlier left on this key
                if predicate is None or predicate(pos):
                    if best is None or pos < best:
                        best = pos
                    break
        return best


def conflict_degrees(keysets: list[frozenset]) -> list[int]:
    """In-batch conflict degree of each keyset: |{j != i : Ki ∩ Kj ≠ ∅}|.

    One postings pass replaces the pairwise ``isdisjoint`` matrix; the
    numbers are identical (each neighbour set is exactly the union of the
    per-key posting lists, minus self), so a sort keyed on them yields
    the same permutation as the quadratic version.
    """
    postings: dict[Key, list[int]] = {}
    for i, keys in enumerate(keysets):
        for key in keys:
            postings.setdefault(key, []).append(i)
    degrees = [0] * len(keysets)
    for i, keys in enumerate(keysets):
        neighbours: set[int] = set()
        for key in keys:
            neighbours.update(postings[key])
        neighbours.discard(i)
        degrees[i] = len(neighbours)
    return degrees
