"""Seeded hot-path bugs: HOT001 (allocation), HOT002 (repeated attribute
lookup), HOT003 (exception control flow) — plus the negatives each rule
must stay silent on.  ``Queue.dispatch`` is declared hot by the fixture
manifest (lint.json); ``compute_slow`` is a cold boundary via the
inline marker.  BUG/OK comments mark the expectations pinned by
tests/unit/test_lint_effects.py.
"""


class Queue:
    def __init__(self):
        self.items = []
        self.count = 0

    def make_key(self, a, b):
        return (a, b)  # allocating helper: reported at its hot call site

    def compute_slow(self, n):  # lint: cold (memo-miss slow path)
        return [i * 2 for i in range(n)]

    def dispatch(self, events, limit):
        pairs = (limit, limit)  # BUG HOT001: tuple display
        labels = [e for e in events]  # BUG HOT001: list comprehension
        note = f"at {limit}"  # BUG HOT001: f-string formatting
        table = {"a": 1}  # BUG HOT001: dict display
        key = self.make_key(limit, limit)  # BUG HOT001: allocating callee

        def flush():  # BUG HOT001: closure defined per event
            return limit

        try:  # BUG HOT003: exception-based control flow
            value = table["a"]
        except KeyError:
            value = 0
        total = 0
        for e in events:
            total += self.count  # BUG HOT002: 'self.count' looked up twice
            total -= self.count
            total += e
        if limit < 0:
            raise ValueError(f"bad limit {limit}")  # OK: raise path is exempt
        cold = self.compute_slow(4)  # OK: callee is a declared cold boundary
        a, b = limit, total  # OK: small unpack builds no tuple
        junk = (1, 2)  # lint: disable=HOT001 reason=demonstrates a justified suppression
        junk2 = (3, 4)  # lint: disable=HOT001
        return (
            total + value + a + b + flush() + len(cold) + len(labels)
            + len(pairs) + len(note) + len(key) + len(junk) + len(junk2)
        )
