"""Task-size scaling analysis (Fig. 2c and Takeaway 2).

Sweeps a workload parameter (NVSA's RPM matrix size by default),
projects each run onto a device, and reports how total latency and the
neural/symbolic split evolve — the paper's observation that the ratio
stays roughly stable while total latency grows superlinearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.columns import seq_sum
from repro.core.profiler import PHASE_SYMBOLIC, Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import project_trace


@dataclass
class ScalePoint:
    """One sweep point of a scaling study."""

    parameter: Any
    total_time: float
    symbolic_fraction: float
    num_events: int
    total_flops: float
    total_bytes: int


@dataclass
class ScalingStudy:
    """A full sweep, with growth-factor helpers."""

    workload: str
    parameter_name: str
    device: str
    points: List[ScalePoint]

    def growth_factor(self) -> float:
        """Last total time over first total time."""
        if len(self.points) < 2 or self.points[0].total_time == 0:
            return 1.0
        return self.points[-1].total_time / self.points[0].total_time

    def symbolic_fraction_range(self) -> float:
        """Spread of the symbolic share across the sweep (stability)."""
        fracs = [p.symbolic_fraction for p in self.points]
        return max(fracs) - min(fracs) if fracs else 0.0


def sweep(workload_name: str, parameter_name: str,
          values: Sequence[Any], device: DeviceSpec,
          fixed_params: Optional[Dict[str, Any]] = None) -> ScalingStudy:
    """Run ``workload_name`` once per parameter value and project."""
    from repro.workloads import create  # deferred: avoids import cycle

    points: List[ScalePoint] = []
    for value in values:
        params = dict(fixed_params or {})
        params[parameter_name] = value
        workload = create(workload_name, **params)
        trace = workload.profile()
        projected = project_trace(trace, device)
        total = projected.total_time
        phase_times = projected.time_by_phase()
        symbolic = phase_times.get(PHASE_SYMBOLIC, 0.0)
        points.append(ScalePoint(
            parameter=value,
            total_time=total,
            symbolic_fraction=symbolic / total if total else 0.0,
            num_events=len(trace),
            total_flops=seq_sum(projected.columns.flops),
            total_bytes=sum(projected.columns.total_bytes.tolist()),
        ))
    return ScalingStudy(workload=workload_name,
                        parameter_name=parameter_name,
                        device=device.name, points=points)


def nvsa_task_size_study(device: DeviceSpec,
                         sizes: Sequence[int] = (2, 3),
                         seed: int = 0) -> ScalingStudy:
    """The Fig. 2c sweep: NVSA across RPM matrix sizes."""
    return sweep("nvsa", "matrix_size", list(sizes), device,
                 fixed_params={"seed": seed})
