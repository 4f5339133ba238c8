"""Figure-by-figure series builders.

Each ``figN_*`` function regenerates the data behind one figure of the
paper's evaluation and returns a :class:`FigureData` whose series can be
printed (see :mod:`repro.bench.report`) and shape-checked by the pytest
benchmarks in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.runtime import (
    ParadeRuntime,
    ExecConfig,
    ONE_THREAD_ONE_CPU,
    ONE_THREAD_TWO_CPU,
    TWO_THREAD_TWO_CPU,
    ALL_EXEC_CONFIGS,
)
from repro.bench.microbench import sweep_directive
from repro.apps import ep, cg, helmholtz, md

DEFAULT_NODES = (1, 2, 4, 8)


def registered_programs() -> Dict[str, dict]:
    """Registry of runnable figure workloads, by name.

    Each entry maps to ``{"factory": () -> program, "factory_ref":
    (module, function), "factory_kwargs": dict, "pool_bytes": int,
    "figure": str, "note": str}`` with scaled-down default sizes suitable
    for interactive runs.  ``factory`` is the in-process callable;
    ``factory_ref`` + ``factory_kwargs`` are the serializable form the
    fleet executor ships to worker processes
    (:meth:`repro.fleet.RunSpec.from_entry`).  Consumed by
    ``python -m repro run`` / ``sweep`` and the fleet; the full-size figure sweeps remain the
    ``figN_*`` functions above.
    """
    from repro.fleet.spec import make_entry

    return {
        "helmholtz": make_entry(
            ("repro.apps.helmholtz", "make_program"),
            {"n": 48, "m": 48, "max_iters": 3},
            pool_bytes=1 << 21,
            note="Helmholtz/Jacobi 48x48, 3 iterations",
            figure="fig10",
        ),
        "ep": make_entry(
            ("repro.apps.ep", "make_program"),
            {"klass": "T"},
            pool_bytes=1 << 20,
            note="NAS EP class T",
            figure="fig9",
        ),
        "cg": make_entry(
            ("repro.apps.cg", "make_program"),
            {"klass": "S", "niter": 1},
            pool_bytes=1 << 23,
            note="NAS CG class S, 1 outer iteration",
            figure="fig8",
        ),
        "md": make_entry(
            ("repro.apps.md", "make_program"),
            {"n_particles": 48, "steps": 2},
            pool_bytes=1 << 21,
            note="MD 48 particles, 2 steps",
            figure="fig11",
        ),
    }


@dataclass
class Series:
    label: str
    x: List[float]
    y: List[float]


@dataclass
class FigureData:
    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series] = field(default_factory=list)

    def by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure}")


# ----------------------------------------------------------------------
# Figures 6 and 7: microbenchmarks
# ----------------------------------------------------------------------
def fig6_critical(
    nodes: Sequence[int] = DEFAULT_NODES, iters: int = 50, cluster_config=None
) -> FigureData:
    data = sweep_directive(
        "critical", nodes=list(nodes), iters=iters, cluster_config=cluster_config
    )
    fd = FigureData(
        figure="fig6",
        title="critical directive: ParADE vs KDSM",
        xlabel="nodes",
        ylabel="time per critical (us)",
    )
    for system, ys in data.items():
        fd.series.append(Series(system, list(nodes), [y * 1e6 for y in ys]))
    return fd


def fig7_single(
    nodes: Sequence[int] = DEFAULT_NODES, iters: int = 50, cluster_config=None
) -> FigureData:
    data = sweep_directive(
        "single", nodes=list(nodes), iters=iters, cluster_config=cluster_config
    )
    fd = FigureData(
        figure="fig7",
        title="single directive: ParADE vs KDSM",
        xlabel="nodes",
        ylabel="time per single (us)",
    )
    for system, ys in data.items():
        fd.series.append(Series(system, list(nodes), [y * 1e6 for y in ys]))
    return fd


# ----------------------------------------------------------------------
# Figures 8-11: application execution time, 3 configurations x nodes
# ----------------------------------------------------------------------
def run_app_over_configs(
    program_factory: Callable[[], Callable],
    nodes: Sequence[int] = DEFAULT_NODES,
    exec_configs: Sequence[ExecConfig] = ALL_EXEC_CONFIGS,
    pool_bytes: int = 1 << 22,
    cluster_config=None,
) -> Dict[str, List[float]]:
    """Run one app for every (exec config, node count); returns execution
    times {config name: [seconds per node count]}.

    *program_factory* is called once per run so programs may not be
    shared between runtimes.
    """
    out: Dict[str, List[float]] = {}
    for ec in exec_configs:
        ys = []
        for n in nodes:
            rt = ParadeRuntime(
                n_nodes=n,
                exec_config=ec,
                mode="parade",
                pool_bytes=pool_bytes,
                cluster_config=cluster_config,
            )
            res = rt.run(program_factory())
            ys.append(res.elapsed)
        out[ec.name] = ys
    return out


def _app_figure(
    figure: str,
    title: str,
    program_factory: Callable[[], Callable],
    nodes: Sequence[int],
    pool_bytes: int,
    cluster_config=None,
) -> FigureData:
    data = run_app_over_configs(
        program_factory, nodes=nodes, pool_bytes=pool_bytes, cluster_config=cluster_config
    )
    fd = FigureData(
        figure=figure, title=title, xlabel="nodes", ylabel="execution time (ms, virtual)"
    )
    for name, ys in data.items():
        fd.series.append(Series(name, list(nodes), [y * 1e3 for y in ys]))
    return fd


def fig8_cg(
    klass: str = "S",
    niter: int = 3,
    nodes: Sequence[int] = DEFAULT_NODES,
    cluster_config=None,
) -> FigureData:
    matrix = cg.make_matrix(klass)
    return _app_figure(
        "fig8",
        f"NAS CG class {klass} on cLAN",
        lambda: cg.make_program(klass, a=matrix, niter=niter),
        nodes,
        pool_bytes=1 << 23,
        cluster_config=cluster_config,
    )


def fig9_ep(
    klass: str = "T", nodes: Sequence[int] = DEFAULT_NODES, cluster_config=None
) -> FigureData:
    return _app_figure(
        "fig9",
        f"NAS EP class {klass} on cLAN",
        lambda: ep.make_program(klass),
        nodes,
        pool_bytes=1 << 20,
        cluster_config=cluster_config,
    )


def fig10_helmholtz(
    n: int = 256,
    m: int = 256,
    max_iters: int = 25,
    nodes: Sequence[int] = DEFAULT_NODES,
    cluster_config=None,
) -> FigureData:
    return _app_figure(
        "fig10",
        f"Helmholtz {n}x{m} on cLAN",
        lambda: helmholtz.make_program(n=n, m=m, max_iters=max_iters),
        nodes,
        pool_bytes=1 << 22,
        cluster_config=cluster_config,
    )


def fig11_md(
    n_particles: int = 256,
    steps: int = 5,
    nodes: Sequence[int] = DEFAULT_NODES,
    cluster_config=None,
) -> FigureData:
    return _app_figure(
        "fig11",
        f"MD n={n_particles} on cLAN",
        lambda: md.make_program(n_particles=n_particles, steps=steps),
        nodes,
        pool_bytes=1 << 21,
        cluster_config=cluster_config,
    )


# ----------------------------------------------------------------------
# §5.1: atomic page update strategies
# ----------------------------------------------------------------------
def atomic_update_comparison(
    n_updates: int = 200, os_profiles: Sequence[str] = ("linux-2.4", "aix-4.3.3")
) -> FigureData:
    """Mean page-update cost per strategy per OS profile (§5.1's finding:
    all comparable on Linux; file mapping poor on AIX)."""
    import numpy as np

    from repro.sim import Simulator
    from repro.vm import (
        PhysicalMemory,
        AddressSpace,
        PROT_NONE,
        PROT_READ,
        strategy_by_name,
        STRATEGY_NAMES,
        LINUX_24,
        AIX_433,
    )
    from repro.vm.strategies import SimpleExecutor

    profiles = {"linux-2.4": LINUX_24, "aix-4.3.3": AIX_433}
    fd = FigureData(
        figure="sec5.1",
        title="atomic page update strategies",
        xlabel="strategy",
        ylabel="us per page update",
    )
    page = bytes(range(256)) * 16  # 4096 bytes
    for prof_name in os_profiles:
        xs, ys = [], []
        for i, name in enumerate(STRATEGY_NAMES):
            sim = Simulator()
            phys = PhysicalMemory(1, 4096)
            space = AddressSpace(phys)
            space.map_identity(1, prot=PROT_NONE)
            strat = strategy_by_name(name, profile=profiles[prof_name])
            ex = SimpleExecutor(sim)

            def run():
                for _ in range(n_updates):
                    space.protect(0, PROT_NONE)
                    yield from strat.update_page(ex, space, 0, page, PROT_READ)

            proc = sim.process(run())
            sim.run_until_complete(proc)
            xs.append(i)
            ys.append(sim.now / n_updates * 1e6)
        fd.series.append(Series(prof_name, xs, ys))
    fd.xlabel = " / ".join(STRATEGY_NAMES)
    return fd
