"""A string-path sysfs tree bound to the machine's mechanisms.

The paper's footnotes name the exact files it manipulates:
``/sys/devices/system/cpu/cpu\\d+/cpuidle/state[012]`` for C-states and
``/sys/devices/system/cpu/cpu\\d+/online`` for hardware threads (§IV).
The emulation accepts those paths (plus the cpufreq ones) so experiment
code reads like the shell commands an operator would type.
"""

from __future__ import annotations

import re

from repro.cstate.states import CSTATES
from repro.errors import SysfsError

_CPU_PATH = re.compile(
    r"^/sys/devices/system/cpu/cpu(?P<cpu>\d+)/(?P<rest>.+)$"
)


class SysfsTree:
    """Dispatches reads/writes on sysfs paths to kernel subsystems."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    # --- public API -----------------------------------------------------------

    def read(self, path: str) -> str:
        """Read a sysfs file; returns the string content (no newline)."""
        cpu_id, rest = self._split(path)
        return self._dispatch(cpu_id, rest, None, path)

    def write(self, path: str, value: str) -> None:
        """Write a sysfs file (raises :class:`SysfsError` like EINVAL)."""
        cpu_id, rest = self._split(path)
        self._dispatch(cpu_id, rest, value.strip(), path)

    # --- internals ---------------------------------------------------------------

    def _split(self, path: str) -> tuple[int, str]:
        m = _CPU_PATH.match(path)
        if not m:
            raise SysfsError(path, "no such file")
        cpu_id = int(m.group("cpu"))
        if cpu_id not in self.kernel.machine.topology.cpus:
            raise SysfsError(path, "no such CPU")
        return cpu_id, m.group("rest")

    def _dispatch(self, cpu_id: int, rest: str, value: str | None, path: str) -> str:
        k = self.kernel
        if rest == "online":
            if value is None:
                return "1" if k.machine.topology.thread(cpu_id).online else "0"
            if value not in ("0", "1"):
                raise SysfsError(path, f"invalid value {value!r}")
            if value == "1":
                k.hotplug.set_online(cpu_id)
            else:
                k.hotplug.set_offline(cpu_id)
            return ""

        if rest == "cpufreq/scaling_governor":
            policy = k.cpufreq_policy(cpu_id)
            if value is None:
                return policy.governor.value
            policy.set_governor(value)
            return ""

        if rest == "cpufreq/scaling_setspeed":
            policy = k.cpufreq_policy(cpu_id)
            if value is None:
                return str(int(policy.thread.requested_freq_hz / 1e3))
            try:
                khz = float(value)
            except ValueError:
                raise SysfsError(path, f"invalid value {value!r}") from None
            policy.set_speed(khz * 1e3)
            return ""

        if rest == "cpufreq/scaling_available_frequencies":
            policy = k.cpufreq_policy(cpu_id)
            return " ".join(str(int(f / 1e3)) for f in policy.available_freqs_hz)

        if rest == "cpufreq/scaling_cur_freq":
            thread = k.machine.topology.thread(cpu_id)
            return str(int(thread.core.applied_freq_hz / 1e3))

        m = re.match(r"^cpuidle/state(\d+)/(\w+)$", rest)
        if m:
            idx, attr = int(m.group(1)), m.group(2)
            if not 0 <= idx < len(CSTATES):
                raise SysfsError(path, "no such idle state")
            state = CSTATES[idx]
            if attr == "name":
                if value is not None:
                    raise SysfsError(path, "read-only file")
                return state.name
            if attr == "latency":
                if value is not None:
                    raise SysfsError(path, "read-only file")
                return str(state.acpi_latency_ns // 1000)  # sysfs uses us
            if attr == "power":
                if value is not None:
                    raise SysfsError(path, "read-only file")
                return str(int(state.acpi_power_w))
            if attr == "time":
                if value is not None:
                    raise SysfsError(path, "read-only file")
                thread = k.machine.topology.thread(cpu_id)
                return str(int(thread.cstate_time_ns[state.name] / 1000))  # us
            if attr == "usage":
                if value is not None:
                    raise SysfsError(path, "read-only file")
                thread = k.machine.topology.thread(cpu_id)
                return str(thread.cstate_usage[state.name])
            if attr == "disable":
                ctrl = k.machine.cstates
                if value is None:
                    return "1" if ctrl.is_disabled(cpu_id, state.name) else "0"
                if value not in ("0", "1"):
                    raise SysfsError(path, f"invalid value {value!r}")
                if state.name == "C0":
                    raise SysfsError(path, "cannot disable the active state")
                if value == "1":
                    ctrl.disable_state(cpu_id, state.name)
                else:
                    ctrl.enable_state(cpu_id, state.name)
                k.machine.changed()
                return ""
            raise SysfsError(path, "no such attribute")

        raise SysfsError(path, "no such file")
