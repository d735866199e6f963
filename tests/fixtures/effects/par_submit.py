"""Seeded PAR001 bugs: un-picklable / fork-unsafe values submitted to
repro.parallel, plus the module-level shapes that must stay silent."""

import threading
from functools import partial

from repro.parallel.pool import Task


def _entry(x):
    return x + 1


def build_bad_lambda():
    return Task(name="t", fn=lambda x: x, args=(1,))  # BUG PAR001: lambda fn


def build_bad_nested():
    def inner(x):
        return x

    return Task(name="t", fn=inner, args=(2,))  # BUG PAR001: nested function


def build_bad_handle():
    f = open("data.txt")
    return Task(name="t", fn=_entry, args=(f,))  # BUG PAR001: open handle


def build_bad_lock():
    return Task(name="t", fn=_entry, args=(threading.Lock(),))  # BUG PAR001


def build_good():
    return Task(name="t", fn=_entry, args=(3,))  # OK: module-level callable


def build_good_partial():
    return Task(name="t", fn=partial(_entry, 4), args=())  # OK: partial


def build_suppressed():
    return Task(name="t", fn=lambda x: x, args=(5,))  # lint: disable=PAR001 reason=demonstrates a justified suppression


def build_suppressed_reasonless():
    return Task(name="t", fn=lambda x: x, args=(6,))  # lint: disable=PAR001
