"""Abstract reasoning with NVSA and PrAE on Raven's Progressive
Matrices — the paper's flagship cognitive workload.

Generates RPM problems, runs both reasoners end-to-end (ConvNet
perception -> probabilistic/vector-symbolic abduction -> rule
execution -> answer selection), and compares their answers, detected
rules, and profiled bottlenecks.

Run:  python examples/rpm_reasoning.py
"""

from repro.core.analysis import latency_breakdown
from repro.core.report import format_time, render_table
from repro.datasets import rpm
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import create

NUM_PROBLEMS = 5


def describe_problem(problem: rpm.RPMProblem) -> str:
    rules = ", ".join(str(rule) for rule in problem.rules.values())
    return f"{problem.matrix_size}x{problem.matrix_size} [{rules}]"


def main() -> None:
    rows = []
    score = {"nvsa": 0, "prae": 0}
    for seed in range(NUM_PROBLEMS):
        for name in ("nvsa", "prae"):
            workload = create(name, seed=seed)
            trace = workload.profile()
            result = trace.metadata["result"]
            score[name] += int(result["correct"])
            lb = latency_breakdown(project_trace(trace, RTX_2080TI))
            rows.append([
                seed, name.upper(),
                "yes" if result["correct"] else "NO",
                f"{result['rule_name_hits']}/3",
                format_time(lb.total_time),
                f"{lb.symbolic_fraction * 100:.0f}%",
            ])
    print(render_table(
        ["seed", "model", "correct", "rules detected",
         "latency (RTX model)", "symbolic share"],
        rows, title="NVSA vs PrAE on RPM problems"))
    print()
    for name, hits in score.items():
        print(f"{name.upper()} accuracy: {hits}/{NUM_PROBLEMS}")

    # peek inside one solved problem
    print()
    workload = create("nvsa", seed=1)
    trace = workload.profile()
    result = trace.metadata["result"]
    print("problem:", describe_problem(workload.problem))
    print("detected rules: ", result["detected_rules"])
    print("true rules:     ", result["true_rules"])
    print("picked candidate", result["predicted_index"],
          "(answer", str(result["answer_index"]) + ")")

    # where does the time go? (the paper's Takeaway 1)
    lb = latency_breakdown(project_trace(trace, RTX_2080TI))
    stage_rows = sorted(lb.stage_times.items(), key=lambda kv: -kv[1])
    print()
    print(render_table(
        ["stage", "time", "share"],
        [[stage, format_time(t), f"{t / lb.total_time * 100:.1f}%"]
         for stage, t in stage_rows],
        title="NVSA stage latency (rule detection dominates)"))


if __name__ == "__main__":
    main()
