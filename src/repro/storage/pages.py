"""Page-addressed object store.

``PageStore`` assigns page ids and maps them to Python objects (R-tree
nodes).  The store itself is free to access — *timing* is the job of
:class:`repro.storage.disk.SimulatedDisk`, and *metering* the job of
:class:`repro.storage.buffer.BufferPool`, which all node reads must go
through.  Keeping the three concerns separate lets unit tests exercise
each in isolation.
"""

from __future__ import annotations

from typing import Any, Iterator


class PageStore:
    """Allocates page ids and stores one object per page.

    Page ids are dense non-negative integers, which keeps them cheap to use
    as dictionary keys and lets callers reason about store size.
    """

    def __init__(self) -> None:
        self._pages: dict[int, Any] = {}
        self._next_id = 0

    def allocate(self, obj: Any) -> int:
        """Store ``obj`` on a fresh page and return its page id."""
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = obj
        return page_id

    def read(self, page_id: int) -> Any:
        """Return the object stored on ``page_id``.

        Raises ``KeyError`` for unknown or freed pages: dangling page
        references are bugs and must not pass silently.
        """
        return self._pages[page_id]

    def write(self, page_id: int, obj: Any) -> None:
        """Overwrite the object on an existing page."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id} was never allocated")
        self._pages[page_id] = obj

    def free(self, page_id: int) -> None:
        """Release a page; subsequent reads raise ``KeyError``."""
        del self._pages[page_id]

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def page_ids(self) -> Iterator[int]:
        """Iterate over the ids of all live pages."""
        return iter(self._pages)
