"""Challenge-response authentication scheduling (paper §5.2).

The CRA defense modifies the active sensor's modulation unit with a
pseudo-random binary signal ``m(t)``: at the secret challenge instants
``T_c`` (``m = 0``) the probe is suppressed.  Security rests on the
attacker not being able to predict ``T_c``, so the schedule is driven
by a pseudo-random bit generator (a maximal-length LFSR here, the
classic PRBS construction) or, for exact reproduction of the paper's
experiments, by an explicit list of instants (k = 15, 50, 175, 182, …).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["PRBSGenerator", "ChallengeSchedule"]


class PRBSGenerator:
    """Maximal-length 16-bit LFSR pseudo-random binary sequence.

    A Fibonacci LFSR for the maximal polynomial
    ``x^16 + x^14 + x^13 + x^11 + 1`` (period ``2^16 - 1``).  The seed
    selects the starting state and must be non-zero modulo ``2^16``.
    """

    #: Feedback bit positions (from the LSB) for x^16 + x^14 + x^13 + x^11 + 1.
    _TAP_BITS = (0, 2, 3, 5)
    _WIDTH = 16

    def __init__(self, seed: int = 0xACE1):
        state = seed % (1 << self._WIDTH)
        if state == 0:
            raise ValueError("LFSR seed must be non-zero modulo 2^16")
        self._state = state

    def next_bit(self) -> int:
        """Advance the register and return the output bit (0 or 1).

        The feedback includes the shifted-out bit 0, which keeps the map
        invertible (the zero state is unreachable from any non-zero
        seed) and the cycle maximal.
        """
        feedback = 0
        for bit in self._TAP_BITS:
            feedback ^= (self._state >> bit) & 1
        output = self._state & 1
        self._state = (self._state >> 1) | (feedback << (self._WIDTH - 1))
        return output

    def next_word(self, n_bits: int) -> int:
        """Concatenate ``n_bits`` output bits into an integer."""
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        word = 0
        for _ in range(n_bits):
            word = (word << 1) | self.next_bit()
        return word

    def bernoulli(self, probability: float, resolution_bits: int = 16) -> bool:
        """Draw a pseudo-random Bernoulli(p) decision from the bit stream.

        For full-register draws (``resolution_bits >= 16``) the LFSR
        never emits the all-zeros word, so the word is uniform on
        ``[1, 2^b - 1]`` rather than ``[0, 2^b - 1]``; the naive
        ``word < p * 2^b`` threshold is therefore biased at the
        endpoints (any ``p`` below ``2 / 2^b`` could never fire).  The
        word is shifted onto ``[0, 2^b - 2]`` and compared against
        ``p * (2^b - 1)``, which makes the per-period fire count exactly
        ``floor(p * (2^b - 1))`` — in particular ``p = 0`` never fires
        and ``p = 1`` always fires.  Shorter draws can legitimately
        produce zero words and keep the plain comparison.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        word = self.next_word(resolution_bits)
        if resolution_bits >= self._WIDTH:
            threshold = int(probability * ((1 << resolution_bits) - 1))
            return (word - 1) < threshold
        threshold = int(probability * (1 << resolution_bits))
        return word < threshold


class ChallengeSchedule:
    """The set of challenge instants ``T_c`` over a simulation horizon.

    Construct either from an explicit list (to reproduce the paper's
    k = 15, 50, 175, 182, … experiments exactly) or pseudo-randomly
    from a PRBS at a given challenge rate.
    """

    def __init__(self, times: Iterable[float]):
        unique = frozenset(float(t) for t in times)
        # ``not t >= 0`` also rejects NaN, which cannot be sorted.
        if any(not t >= 0.0 for t in unique):
            raise ValueError("challenge times must be non-negative")
        self._times: Tuple[float, ...] = tuple(sorted(unique))

    @classmethod
    def from_times(cls, times: Iterable[float]) -> "ChallengeSchedule":
        """Schedule with the given explicit challenge instants."""
        return cls(times)

    @classmethod
    def random(
        cls,
        horizon: float,
        rate: float,
        sample_period: float = 1.0,
        seed: int = 0xACE1,
        min_gap: float = 0.0,
        exclude_start: float = 1.0,
    ) -> "ChallengeSchedule":
        """PRBS-driven schedule: each instant challenged with prob ``rate``.

        Parameters
        ----------
        horizon:
            Simulation length, seconds.
        rate:
            Per-sample challenge probability in [0, 1].
        sample_period:
            Spacing of the candidate instants, seconds.
        seed:
            LFSR seed (attacker-unpredictable secret).
        min_gap:
            Minimum spacing between consecutive challenges, seconds.
        exclude_start:
            No challenges before this time (the radar needs some initial
            unchallenged samples to acquire the target).
        """
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if sample_period <= 0.0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        prbs = PRBSGenerator(seed)
        times: List[float] = []
        t = 0.0
        last = -float("inf")
        while t <= horizon:
            eligible = t >= exclude_start and (t - last) >= min_gap
            if prbs.bernoulli(rate) and eligible:
                times.append(t)
                last = t
            t += sample_period
        return cls(times)

    def is_challenge(self, time: float, tolerance: float = 1e-9) -> bool:
        """True when ``time`` is a challenge instant.

        Only the two instants either side of ``time`` need checking:
        floating-point subtraction is monotone, so ``|time - t|`` only
        grows moving away from ``time`` on either side.
        """
        times = self._times
        i = bisect_left(times, time)
        if i < len(times) and times[i] == time:
            return True
        if tolerance > 0.0:
            # bisect_left puts times[i - 1] < time < times[i].
            return (i < len(times) and times[i] - time <= tolerance) or (
                i > 0 and time - times[i - 1] <= tolerance
            )
        return False

    @property
    def times(self) -> Sequence[float]:
        """Challenge instants, sorted ascending."""
        return self._times

    def __len__(self) -> int:
        return len(self._times)

    def __contains__(self, time: float) -> bool:
        return self.is_challenge(time)

    def next_challenge_at_or_after(self, time: float) -> Optional[float]:
        """Earliest challenge instant >= ``time``, or None.

        This is the soonest an attack starting at ``time`` can be
        detected — the structural bound on detection latency.
        """
        times = self._times
        i = bisect_left(times, time)
        # A NaN ``time`` lands on index 0 but compares false there.
        return times[i] if i < len(times) and times[i] >= time else None
