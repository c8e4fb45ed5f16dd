"""Exponential backoff with full jitter (§3.2).

Naively resubmitting timed-out HTTP requests causes request storms
that overwhelm the FaaS platform; the λFS client library instead
sleeps following an exponential backoff pattern with jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    base_ms: float = 20.0
    factor: float = 2.0
    max_ms: float = 2_000.0
    max_attempts: int = 16
    """The single source of truth for RPC attempt limits: everything
    that counts attempts (the client submit loop, its straggler
    watchdog guard) derives from this field rather than keeping a
    parallel constant."""

    def as_attrs(self) -> dict:
        """Span-attribute summary of this policy, so backoff spans in
        a trace carry enough context to be read without the config."""
        return {
            "policy_base_ms": self.base_ms,
            "policy_factor": self.factor,
            "policy_max_ms": self.max_ms,
        }

    def full_jitter_delay(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter backoff: uniform over [0, capped exponential].

        Decorrelates synchronized retry storms (e.g. many transactions
        aborted by the same lock-timeout burst) better than centred
        jitter: no two retriers share even the expected wait.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_ms * (self.factor ** (attempt - 1)), self.max_ms)
        return rng.uniform(0.0, raw)
