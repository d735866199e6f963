"""System Management Units (§III-C).

Each die carries an SMU; one is elected master and runs the package
control loops (power, temperature, EDC) and owns the frequency-update
slot grid (Burd et al., reproduced in §V-B's 1 ms interval finding).
Only the master is modelled (see :mod:`repro.smu.smu`).
"""

from repro.smu.edc import EdcManager, EdcAssessment
from repro.smu.smu import MasterSmu

__all__ = ["MasterSmu", "EdcManager", "EdcAssessment"]
