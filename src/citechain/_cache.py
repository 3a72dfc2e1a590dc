"""The grow-only cache behind the scalar queries.

One `GrowOnlyCache` holds the trial chains' survival prefixes
(`trial_chain._log_survival_prefix`) and one the author series
(`author_model.author_pmf`).  An entry is only replaced by a longer one
that starts with the same bits, so entry n does not depend on the order of
requests, and a repeated scalar query reads one float from it.
"""

import threading
from collections import OrderedDict, namedtuple

import numpy as np

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class GrowOnlyCache:
    """Grow-only arrays keyed by params, for the 32 most recently used keys.

    The key is (params class, *numbers), a plain tuple, as a dataclass's
    __hash__ is slow; a miss builds the params from it.
    `grow(params, entry, n)` returns the entry that replaces `entry` (None
    for a new key): a tuple whose first item is a read-only array longer
    than n and whose other items are what the next growth resumes from.
    Growth and eviction run under the lock.  A hit in `value` takes none:
    entries are never changed, only replaced whole, and the dict's get and
    move_to_end are each one step under the interpreter lock, so a hit
    reads a whole old or new entry; its hit count is not locked, so
    concurrent hits may undercount it.  `info` and `clear` serve as the
    cached function's `cache_info` and `cache_clear`.
    """

    maxsize = 32

    def __init__(self, grow) -> None:
        self._grow = grow
        self.entries: OrderedDict = OrderedDict()  # least recently used first
        self._counts = [0, 0]  # hits, misses
        self._lock = threading.Lock()

    def array(self, key: tuple, n: int) -> np.ndarray:
        """The key's whole array, grown past index n."""
        with self._lock:
            entry = self.entries.pop(key, None)
            if entry is not None and entry[0].size > n:
                self._counts[0] += 1
            else:
                self._counts[1] += 1
                entry = self._grow(key[0](*key[1:]), entry, n)
            self.entries[key] = entry
            if len(self.entries) > self.maxsize:
                self.entries.popitem(last=False)
        return entry[0]

    def value(self, key: tuple, n: int) -> float:
        """Entry n of the key's array, as a float."""
        entry = self.entries.get(key)
        if entry is None or entry[0].size <= n:
            return self.array(key, n).item(n)
        self._counts[0] += 1
        try:
            self.entries.move_to_end(key)
        except KeyError:  # evicted by another thread since the get
            pass
        return entry[0].item(n)

    def info(self) -> _CacheInfo:
        return _CacheInfo(*self._counts, self.maxsize, len(self.entries))

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self._counts[:] = [0, 0]
