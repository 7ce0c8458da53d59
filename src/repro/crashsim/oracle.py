"""The tolerant reference: one crash-consistency oracle for any key space.

The paper's crash contract (Sections 3 and 4.3) has two halves: an
acknowledged write survives a crash, and an interrupted operation is
atomic.  :class:`TolerantReference` holds exactly the state that contract
needs, generic over the key (a logical address for one controller, a
string for the sharded service) and over the function that reads a key
back from the recovered system:

* the **acknowledged map** — key -> last acknowledged value; an absent
  key holds the default value (a zero block, or "no such key");
* a **tolerance set** per unresolved key — its last acknowledged value
  plus every unacknowledged value staged for it.  A key in this window
  may legally recover to any member, never to anything else;
* the **live read check** — a value an acknowledged read returned must
  lie in its key's tolerance (the acknowledged value, when the key is
  not in the window).  A mismatch is recorded, not raised, and reported
  by every later :meth:`~TolerantReference.sweep`;
* a pure :meth:`~TolerantReference.sweep` over the keys it is given —
  a whole key span catches bystander corruption the workload never
  touched — and an explicit :meth:`~TolerantReference.settle` that
  adopts the survivors before the workload resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Generic, Hashable, Iterable,
                    List, Optional, Set, TypeVar)

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CheckReport:
    """Result of one post-recovery verification pass."""

    checked: int
    violations: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.violations


def _show(value: Optional[bytes]) -> str:
    return "absent" if value is None else value[:8].hex()


class TolerantReference(Generic[K, V]):
    """Acknowledged values plus a per-key tolerance window.

    ``default`` is the value of a key nothing was acknowledged for;
    ``describe`` names a key in violation messages.
    """

    def __init__(self, default: V, describe: Callable[[K], str]):
        self.default = default
        self.describe = describe
        self._acknowledged: Dict[K, V] = {}
        self._window: Dict[K, Set[V]] = {}
        self._live_violations: List[str] = []

    def expected(self, key: K) -> V:
        """The key's last acknowledged value."""
        return self._acknowledged.get(key, self.default)

    def tolerated(self, key: K) -> Set[V]:
        """Every value the key may legally hold after a crash."""
        return self._window.get(key) or {self.expected(key)}

    @property
    def window(self) -> Dict[K, FrozenSet[V]]:
        """Read-only view of the unresolved keys and their tolerance sets."""
        return {key: frozenset(values) for key, values in self._window.items()}

    def tracked(self) -> List[K]:
        """Every key with an acknowledged value or a tolerance set, sorted."""
        return sorted(set(self._acknowledged) | set(self._window))

    # -- folding the workload in ----------------------------------------------

    def stage(self, key: K, value: V) -> None:
        """An unacknowledged op may have left ``value`` at ``key``."""
        self._window.setdefault(key, {self.expected(key)}).add(value)

    def acknowledge(self, key: K, value: V) -> None:
        """An op on ``key`` returned: ``value`` is now the only legal content."""
        self._acknowledged[key] = value
        self._window.pop(key, None)

    def check_read(self, key: K, value: V) -> None:
        """Record a violation if an acknowledged read returned an illegal value."""
        allowed = self.tolerated(key)
        if value not in allowed:
            self._live_violations.append(
                self._mismatch(key, "read returned a value out of tolerance",
                               value, allowed))

    # -- after a crash ---------------------------------------------------------

    def sweep(self, keys: Iterable[K],
              read_back: Callable[[K], V]) -> CheckReport:
        """Read every key back and check it against its tolerance.

        Pure: the reference is not changed, so sweeping twice after the
        same crash gives the same verdict.  Live read violations recorded
        earlier head the report.
        """
        violations = list(self._live_violations)
        checked = 0
        for key in keys:
            checked += 1
            actual = read_back(key)
            allowed = self.tolerated(key)
            if actual not in allowed:
                if key in self._window:
                    what = "in-flight op torn"
                elif key in self._acknowledged:
                    what = "acknowledged value lost"
                else:
                    what = "untouched key corrupted"
                violations.append(self._mismatch(key, what, actual, allowed))
        return CheckReport(checked=checked, violations=violations)

    def settle(self, read_back: Callable[[K], V]) -> Dict[K, V]:
        """Adopt each windowed key's surviving value as acknowledged.

        Returns the resolutions.  A key whose value is out of tolerance
        is not adopted: it stays in the window and keeps failing.
        """
        resolved: Dict[K, V] = {}
        for key, allowed in self._window.items():
            actual = read_back(key)
            if actual in allowed:
                resolved[key] = actual
        for key, value in resolved.items():
            self.acknowledge(key, value)
        return resolved

    def _mismatch(self, key: K, what: str, actual: V, allowed: Set[V]) -> str:
        want = " or ".join(sorted(_show(value) for value in allowed))
        return f"{self.describe(key)}: {what} (got {_show(actual)}, want {want})"
