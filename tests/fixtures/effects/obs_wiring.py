"""Seeded OBS001 bugs: obs uses outside the ``is None`` guard, plus the
guarded shapes that must stay silent and two suppressions."""


class Engine:
    def __init__(self, obs=None):
        self._obs = obs
        self._obs_count = None

    def run_bad(self, n):
        self._obs_count.inc(n)  # BUG OBS001: no guard dominates this use
        return n

    def run_anti(self, n):
        if self._obs is None:
            self._obs_count.inc(n)  # BUG OBS001: proven-None branch
        return n

    def run_good(self, n):
        if self._obs is not None:
            self._obs_count.inc(n)  # OK: guarded
        return n

    def run_early_exit(self, n):
        if self._obs is None:
            return n
        self._obs_count.inc(n)  # OK: the early return promotes non-null
        return n

    def _helper(self, n):
        self._obs_count.inc(n)  # BUG OBS001: a guarded caller does not excuse it
        return n

    def run_caller_guarded(self, n):
        if self._obs is None:
            return n
        return self._helper(n)

    def run_suppressed(self, n):
        self._obs_count.inc(n)  # lint: disable=OBS001 reason=demonstrates a justified suppression
        return n

    def run_suppressed_reasonless(self, n):
        self._obs_count.inc(n)  # lint: disable=OBS001
        return n
