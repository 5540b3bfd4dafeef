"""Static invariants of the reproduction, checked over one parse of the tree.

Some properties of the simulator hold only while the code keeps a
convention, and no single run shows them.  These tests parse every Python
file under ``src``, ``tests``, ``examples`` and ``benchmarks`` once, walk
each tree once, and assert six of them:

* every sample descends from one seed (:func:`unseeded_draws`);
* a process generator never swallows an owner's preemption
  (:func:`swallowed_interrupts`);
* backends are reached through the registry (:func:`registry_bypasses`);
* the array kernel stays independent of the generator oracle it is pinned
  to (:func:`kernel_machinery_imports`);
* the pinned cores neither import the telemetry layer nor read a wall
  clock (:func:`pinned_core_leaks`);
* no module under ``src/repro`` imports a name it never reads
  (:func:`dead_imports`).

A deliberate exception is an entry of an allow-list below, with its
reason.  An entry that no longer matches fails its test as stale.  Each
check also runs on fixture snippets: the patterns it must report (among
them the incidents that motivated it) and the ones it must not.
"""

from __future__ import annotations

import ast
import textwrap
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "examples", "benchmarks")

#: The one module that builds generators from raw seeds.
RNG_MODULE = "src/repro/desim/rng.py"
#: The registry's own package, free to touch backend classes.
BACKENDS = "src/repro/backends/"
#: The array kernel; the rng layer is the one desim module it may import.
KERNEL = "src/repro/kernel/"
#: The cores pinned bitwise to each other and observed only through taps.
PINNED = ("src/repro/desim/", "src/repro/kernel/machine.py", "src/repro/cluster/")

#: numpy.random constructors that are deterministic when given a seed.
SEEDABLE = frozenset({"default_rng", "SeedSequence"})
#: numpy.random names that are types (annotations, isinstance), not draws.
NUMPY_TYPES = frozenset({"Generator", "BitGenerator", "PCG64", "Philox", "RandomState"})
PRIVATE_REGISTRY = frozenset({"_REGISTRY", "_BACKENDS"})
WALL_CLOCKS = frozenset(
    f"time.{name}"
    for name in (
        "time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "process_time", "thread_time",
    )
)

#: Generators that catch an Interrupt and resume on purpose, keyed by
#: (file, generator), with the number of such handlers each holds.
RESUMING_GENERATORS = {
    # times the preempt-resume loop of a task on a preemptive CPU
    ("benchmarks/bench_kernel_micro.py", "task"): 1,
    # an interrupted process continues with the rest of its timeout
    ("tests/test_desim_core.py", "victim"): 1,
    # record a preemption that an equal priority or a no-preempt request
    # must not cause
    ("tests/test_desim_resources.py", "first"): 1,
    ("tests/test_desim_resources.py", "low"): 1,
    # preempt-resume of a task through repeated preemptions
    ("tests/test_desim_resources.py", "task"): 1,
    # record an interrupt delivered while waiting on a store
    ("tests/test_edge_cases.py", "consumer"): 1,
    # record which of two low-priority holders a preemption hits
    ("tests/test_edge_cases.py", "low"): 1,
    # preempt-resume whose received service the property checks
    ("tests/test_property_systems.py", "task"): 1,
}

#: Files that reach backend classes or registry internals directly.
DIRECT_BACKEND_FILES = {
    "tests/test_admission.py": "unit tests drive the concrete backend",
    "tests/test_backends_registry.py": "tests of the registry internals themselves",
    "tests/test_cluster_simulation.py": "backend unit tests build the concrete classes",
    "tests/test_open_system.py": "unit tests drive the concrete backend",
    "tests/test_property_admission.py": "unit tests drive the concrete backend",
}

Finding = tuple[int, str]  # (line, what)


class Module:
    """One parsed file: its path from the repository root and its nodes by
    type, with the innermost function around each yield and ``try``."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.nodes: defaultdict[type, list] = defaultdict(list)
        self.function: dict[ast.AST, ast.AST | None] = {}
        stack: list[tuple[ast.AST, ast.AST | None]] = [(ast.parse(text, path), None)]
        while stack:
            node, function = stack.pop()
            self.nodes[type(node)].append(node)
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Try)):
                self.function[node] = function
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node
            for field in node._fields:
                value = getattr(node, field, None)
                for child in value if isinstance(value, list) else (value,):
                    if isinstance(child, ast.AST):
                        stack.append((child, function))

    def of(self, *types: type) -> list:
        return [node for kind in types for node in self.nodes.get(kind, ())]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _terminal(node: ast.AST) -> str:
    return (_dotted(node) or "").rpartition(".")[2]


def unseeded_draws(module: Module) -> list[Finding]:
    """Draws that bypass the seed tree, outside :data:`RNG_MODULE`.

    Every sample must descend from one ``StreamRegistry`` seed, or sweeps
    stop replaying bitwise and cache entries stop matching.  A call of the
    stdlib ``random`` module or a name imported from it, of a
    ``numpy.random`` function on the hidden global ``RandomState``, or of
    ``default_rng()``/``SeedSequence()`` without a seed breaks that chain,
    through any import alias.  A seeded ``default_rng(seed)`` is fine.
    """
    if module.path == RNG_MODULE:
        return []
    stdlib, numpy, numpy_random = set(), {"np", "numpy"}, set()
    drawing, seedable = set(), set()  # names imported from a random module
    for node in module.of(ast.Import):
        for alias in node.names:
            bound = alias.asname or alias.name
            if alias.name == "random":
                stdlib.add(bound)
            elif alias.name == "numpy":
                numpy.add(bound)
            elif alias.name == "numpy.random":
                numpy_random.add(bound)
    for node in module.of(ast.ImportFrom):
        for alias in node.names if node.level == 0 else ():
            bound = alias.asname or alias.name
            if node.module == "random":
                drawing.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                numpy_random.add(bound)
            elif node.module == "numpy.random" and alias.name in SEEDABLE:
                seedable.add(bound)
            elif node.module == "numpy.random" and alias.name not in NUMPY_TYPES:
                drawing.add(bound)
    numpy_random |= {f"{name}.random" for name in numpy}
    found = []
    for call in module.of(ast.Call):
        target = _dotted(call.func)
        if target is None:
            continue
        prefix, _, attr = target.rpartition(".")
        if (prefix and target.partition(".")[0] in stdlib) or target in drawing:
            found.append((call.lineno, f"{target}() draws from a global random state"))
        elif target in seedable or (prefix in numpy_random and attr in SEEDABLE):
            if not call.args and not call.keywords:
                found.append((call.lineno, f"{target}() seeds from OS entropy"))
        elif prefix in numpy_random and attr not in NUMPY_TYPES:
            found.append((call.lineno, f"{target}() draws from numpy's global state"))
    return found


def _caught(handler: ast.ExceptHandler) -> set[str] | None:
    """Terminal names of the types a handler catches; ``None`` if bare."""
    if handler.type is None:
        return None
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {_terminal(node) for node in types}


def _propagates(handler: ast.ExceptHandler) -> bool:
    """Whether the handler raises or reads the caught exception's cause."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "cause":
            value = node.value
            if handler.name is None or (isinstance(value, ast.Name) and value.id == handler.name):
                return True
    return False


def swallowed_interrupts(module: Module) -> list[Finding]:
    """Handlers that can swallow an ``Interrupt``, with their generator.

    desim delivers an owner's preemption and an admission kill as an
    ``Interrupt`` into a process generator (a function whose own body
    yields).  A handler that catches one and neither raises nor reads the
    exception's ``cause`` lets the process resume as if never interrupted,
    a bug that twice reached ``Workstation.execute_task``.  A handler can
    catch one when it names ``Interrupt``, or when it is bare or catches
    ``Exception`` or ``BaseException`` around a body that yields.
    """
    yields = (ast.Yield, ast.YieldFrom)
    generators = {module.function[node] for node in module.of(*yields)}
    found = []
    for statement in module.of(ast.Try):
        function = module.function[statement]
        if function is None or function not in generators:
            continue
        body_yields = any(
            isinstance(node, yields) for part in statement.body for node in ast.walk(part)
        )
        for handler in statement.handlers:
            caught = _caught(handler)
            if caught is None:
                catches = body_yields
            else:
                broad = body_yields and bool(caught & {"Exception", "BaseException"})
                catches = "Interrupt" in caught or broad
            if catches and not _propagates(handler):
                found.append((handler.lineno, function.name))
    return found


def _is_backend(node: ast.ClassDef) -> bool:
    decorators = {_terminal(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
    bases = {_terminal(base) for base in node.bases}
    return "register_backend" in decorators or "SimulationBackend" in bases


def registry_bypasses(modules: Iterable[Module]) -> dict[str, list[Finding]]:
    """Per file, each reach past the backend registry.

    Backend classes are the classes decorated ``register_backend`` or
    derived from ``SimulationBackend``, in any of the modules.  Outside
    :data:`BACKENDS` and a class's own module, calling such a class or
    reading an attribute off it ignores a backend registered in its place
    (``register_backend(replace=True)``); so does any use of the private
    registry dict.  Importing and re-exporting a class stays legal.
    """
    modules = list(modules)
    defined = defaultdict(set)
    for module in modules:
        for node in module.of(ast.ClassDef):
            if _is_backend(node):
                defined[node.name].add(module.path)
    report = {}
    for module in modules:
        if module.path.startswith(BACKENDS):
            continue
        foreign = {name for name, paths in defined.items() if module.path not in paths}
        # A local `_REGISTRY` is some other registry: only one imported
        # from a backends module counts.
        internals = {
            alias.asname or alias.name
            for node in module.of(ast.ImportFrom)
            if node.module and "backends" in node.module.split(".")
            for alias in node.names
            if alias.name in PRIVATE_REGISTRY
        }
        found = [
            (node.lineno, f"{node.func.id}()")
            for node in module.of(ast.Call)
            if isinstance(node.func, ast.Name) and node.func.id in foreign
        ]
        found += [
            (node.lineno, f"{node.value.id}.{node.attr}")
            for node in module.of(ast.Attribute)
            if isinstance(node.value, ast.Name)
            and (node.value.id in foreign or node.attr in PRIVATE_REGISTRY)
        ]
        found += [(node.lineno, node.id) for node in module.of(ast.Name) if node.id in internals]
        if found:
            report[module.path] = sorted(found)
    return report


def _desim_machinery(name: str) -> bool:
    """Whether a dotted module name is a desim module other than its rng."""
    parts = name.split(".")
    return "desim" in parts and ".".join(parts[parts.index("desim"):]) != "desim.rng"


def kernel_machinery_imports(module: Module) -> list[Finding]:
    """Imports of desim's generator machinery under :data:`KERNEL`.

    The array kernel is pinned bit for bit to the generator oracle.  The
    pin is a cross-check only while the two stay independent, sharing just
    the rng layer both must draw through.
    """
    if not module.path.startswith(KERNEL):
        return []
    found = [
        (node.lineno, alias.name)
        for node in module.of(ast.Import)
        for alias in node.names
        if _desim_machinery(alias.name)
    ]
    for node in module.of(ast.ImportFrom):
        name = node.module or ""
        if _desim_machinery(name) and any(
            _desim_machinery(f"{name}.{alias.name}") for alias in node.names
        ):
            found.append((node.lineno, name))
    return found


def pinned_core_leaks(module: Module) -> list[Finding]:
    """Telemetry imports and wall-clock reads under :data:`PINNED`.

    Telemetry never perturbs a result because the pinned cores never see
    it: they expose bare ``tap`` hooks that the backends wire up from
    outside.  The cores also advance simulated time only, so a
    ``time.<clock>()`` call there is dead code or a latent perturbation.
    """
    if not module.path.startswith(PINNED):
        return []
    found = [
        (node.lineno, alias.name)
        for node in module.of(ast.Import)
        for alias in node.names
        if "obs" in alias.name.split(".")
    ]
    for node in module.of(ast.ImportFrom):
        name = node.module or ""
        if "obs" in name.split("."):
            found.append((node.lineno, name))
        else:
            found += [(node.lineno, "obs") for alias in node.names if alias.name == "obs"]
    for call in module.of(ast.Call):
        if _dotted(call.func) in WALL_CLOCKS:
            found.append((call.lineno, f"{_dotted(call.func)}()"))
    return found


def _names_in(text: str) -> set[str]:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def dead_imports(module: Module) -> list[Finding]:
    """Imported names the module never reads.

    A name is read when the code loads it, when a string annotation names
    it, or when the module's ``__all__`` lists it.
    """
    read = {node.id for node in module.of(ast.Name)}
    annotations = [node.annotation for node in module.of(ast.arg, ast.AnnAssign)]
    annotations += [node.returns for node in module.of(ast.FunctionDef, ast.AsyncFunctionDef)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _names_in(node.value)
    for node in module.of(ast.Assign):
        targets = {target.id for target in node.targets if isinstance(target, ast.Name)}
        if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
            read |= {item.value for item in node.value.elts if isinstance(item, ast.Constant)}
    found = []
    for node in module.of(ast.Import, ast.ImportFrom):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                found.append((alias.lineno, name))
    return found


@pytest.fixture(scope="module")
def tree() -> list[Module]:
    """Every Python file of the checked trees, parsed once."""
    paths = sorted(path for top in TREES for path in (ROOT / top).rglob("*.py"))
    modules = [
        Module(path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in paths
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    assert len(modules) > 100 and RNG_MODULE in {module.path for module in modules}
    return modules


def _report(modules: Iterable[Module], check: Callable[[Module], list[Finding]]):
    found = {module.path: sorted(check(module)) for module in modules}
    return {path: findings for path, findings in found.items() if findings}


def test_every_draw_descends_from_one_seed(tree):
    assert _report(tree, unseeded_draws) == {}


def test_no_generator_swallows_an_interrupt(tree):
    found = Counter(
        (path, generator)
        for path, findings in _report(tree, swallowed_interrupts).items()
        for _, generator in findings
    )
    # An extra handler fails, and so does an entry whose handler is gone.
    assert dict(found) == RESUMING_GENERATORS


def test_backends_are_reached_through_the_registry(tree):
    report = registry_bypasses(tree)
    assert {p: found for p, found in report.items() if p not in DIRECT_BACKEND_FILES} == {}
    assert sorted(set(DIRECT_BACKEND_FILES) - set(report)) == [], "stale entries"


def test_kernel_imports_no_generator_machinery(tree):
    assert any(module.path.startswith(KERNEL) for module in tree)
    assert _report(tree, kernel_machinery_imports) == {}


def test_pinned_cores_see_no_telemetry_and_no_wall_clock(tree):
    for prefix in PINNED:
        assert any(module.path.startswith(prefix) for module in tree), prefix
    assert _report(tree, pinned_core_leaks) == {}


def test_no_module_imports_a_name_it_never_reads(tree):
    modules = [
        module
        for module in tree
        if module.path.startswith("src/repro/") and not module.path.endswith("/__init__.py")
    ]
    assert len(modules) > 50 and "src/repro/kernel/machine.py" in {m.path for m in modules}
    assert _report(modules, dead_imports) == {}


# ---------------------------------------------------------------------------
# fixtures: each pattern a check must report (count > 0) or must not (0)
# ---------------------------------------------------------------------------


def _module(code: str, path: str = "fixture.py") -> Module:
    return Module(path, textwrap.dedent(code))


DRAWS = {
    "stdlib_random_call_flagged": (1, """
        import random

        def draw():
            return random.random()
    """),
    "name_imported_from_random_flagged": (1, """
        from random import shuffle

        def mix(items):
            shuffle(items)
    """),
    "numpy_global_state_flagged": (2, """
        import numpy as np

        def draw():
            np.random.seed(0)
            return np.random.normal(size=3)
    """),
    "bare_default_rng_flagged": (1, """
        import numpy as np

        def make():
            return np.random.default_rng()
    """),
    "bare_default_rng_imported_name_flagged": (1, """
        from numpy.random import default_rng

        def make():
            return default_rng()
    """),
    "aliased_numpy_random_flagged": (3, """
        import numpy as xp
        import numpy.random as nr
        from numpy import random as npr

        xp.random.seed(0)
        nr.normal()
        npr.SeedSequence()
    """),
    "seeded_default_rng_clean": (0, """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
    """),
    "generator_type_annotation_clean": (0, """
        import numpy as np

        def sample(rng: np.random.Generator):
            return rng.normal()
    """),
}


@pytest.mark.parametrize("name", DRAWS)
def test_draw_fixture(name):
    expected, code = DRAWS[name]
    assert len(unseeded_draws(_module(code))) == expected


def test_draw_fixture_in_the_rng_module_is_exempt():
    expected, code = DRAWS["bare_default_rng_flagged"]
    assert unseeded_draws(_module(code, RNG_MODULE)) == []


INTERRUPTS = {
    # The incident shape: the grant `yield req` sits in the same try as the
    # service timeout, so an Interrupt delivered at the grant instant lands
    # in a handler that neither re-raises nor checks the cause.
    "interrupt_at_grant_instant_pattern_flagged": (1, """
        def execute_task(env, cpu, demand):
            remaining = demand
            while remaining > 0:
                with cpu.request(priority=5) as req:
                    try:
                        yield req
                        start = env.now
                        yield env.timeout(remaining)
                        remaining = 0
                    except Interrupt:
                        remaining -= env.now - start
    """),
    "broad_exception_around_yield_flagged": (1, """
        def proc(env):
            try:
                yield env.timeout(1)
            except Exception:
                pass
    """),
    "bare_except_around_yield_flagged": (1, """
        def proc(env):
            try:
                yield env.timeout(1)
            except:
                pass
    """),
    # Naming Interrupt says the handler is about preemptions; even around
    # a body that does not yield it must not swallow one.
    "explicit_interrupt_handler_flagged_even_without_yield": (1, """
        def proc(env):
            try:
                account()
            except Interrupt:
                pass
            yield env.timeout(1)
    """),
    "cause_checking_handler_clean": (0, """
        def execute_task(env, cpu, demand):
            try:
                yield env.timeout(demand)
            except Interrupt as exc:
                if not isinstance(exc.cause, Preempted):
                    raise
                record(exc.cause)
    """),
    "reraising_handler_clean": (0, """
        def proc(env):
            try:
                yield env.timeout(1)
            except Interrupt:
                cleanup()
                raise
    """),
    # Without a yield in the try no Interrupt can arrive there.
    "broad_exception_without_yield_in_body_clean": (0, """
        def proc(env):
            try:
                value = parse(env.payload)
            except Exception:
                value = None
            yield env.timeout(value or 1)
    """),
    "non_generator_function_ignored": (0, """
        def helper(env):
            try:
                return env.compute()
            except Exception:
                return None
    """),
    "nested_function_try_attributed_to_inner": (0, """
        def proc(env):
            def helper():
                try:
                    return compute()
                except Exception:
                    return None
            yield env.timeout(helper())
    """),
    # A yield in a nested function does not make the outer one a generator.
    "generator_detection_ignores_nested_yield": (0, """
        def outer():
            try:
                def inner():
                    yield 1
            except Exception:
                pass
            return inner
    """),
    "unrelated_exception_type_clean": (0, """
        def proc(env):
            try:
                yield env.timeout(1)
            except ValueError:
                pass
    """),
}


@pytest.mark.parametrize("name", INTERRUPTS)
def test_interrupt_fixture(name):
    expected, code = INTERRUPTS[name]
    assert len(swallowed_interrupts(_module(code))) == expected


BACKEND_MODULE = ("src/repro/backends/monte_carlo.py", """
    from .base import SimulationBackend, register_backend

    @register_backend
    class MonteCarloSampler(SimulationBackend):
        name = "monte-carlo"

        def run(self):
            return None
""")
CLIENT = "src/repro/engine/client.py"

REGISTRY = {
    "direct_instantiation_flagged": (1, [BACKEND_MODULE, (CLIENT, """
        from repro.backends import MonteCarloSampler

        def run(config):
            return MonteCarloSampler(config).run()
    """)]),
    "class_attribute_access_flagged": (1, [BACKEND_MODULE, (CLIENT, """
        from repro.backends import MonteCarloSampler

        def run(configs):
            return MonteCarloSampler.run_batch(configs)
    """)]),
    "private_registry_attribute_flagged": (1, [BACKEND_MODULE, (CLIENT, """
        from repro.backends import base

        def names():
            return list(base._REGISTRY)
    """)]),
    # The import itself is fine; the use is the bypass.
    "imported_private_registry_name_flagged": (1, [BACKEND_MODULE, (CLIENT, """
        from repro.backends.base import _REGISTRY

        def names():
            return list(_REGISTRY)
    """)]),
    "subclass_of_base_counts_as_backend": (1, [
        ("src/repro/backends/event_driven.py", """
            class EventDrivenClusterSimulator(SimulationBackend):
                name = "event-driven"
        """),
        (CLIENT, """
            from repro.backends import EventDrivenClusterSimulator

            def run(config):
                return EventDrivenClusterSimulator(config).run()
        """),
    ]),
    "unrelated_local_registry_name_clean": (0, [BACKEND_MODULE, (CLIENT, """
        _REGISTRY = {}

        def register(name, value):
            _REGISTRY[name] = value
    """)]),
    "registry_dispatch_clean": (0, [BACKEND_MODULE, (CLIENT, """
        from repro.backends import get_backend

        def run(config, mode):
            return get_backend(mode)(config).run()
    """)]),
    "reexport_import_clean": (0, [BACKEND_MODULE, ("src/repro/cluster/simulation.py", """
        from repro.backends import MonteCarloSampler

        __all__ = ["MonteCarloSampler"]
    """)]),
    "backends_package_itself_exempt": (0, [BACKEND_MODULE, ("src/repro/backends/batching.py", """
        from .monte_carlo import MonteCarloSampler

        def fast_path(configs):
            return MonteCarloSampler.run_batch(configs)
    """)]),
    "defining_module_exempt": (0, [("src/repro/cluster/legacy.py", """
        @register_backend
        class MonteCarloSampler(SimulationBackend):
            name = "monte-carlo"

        def _self_test(config):
            return MonteCarloSampler(config)
    """)]),
}


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_fixture(name):
    expected, files = REGISTRY[name]
    report = registry_bypasses(_module(code, path) for path, code in files)
    assert sum(map(len, report.values())) == expected


MACHINE = "src/repro/kernel/machine.py"

LAYERING = {
    "kernel_flags_generator_machinery_imports": (kernel_machinery_imports, 3, MACHINE, """
        from ..desim.core import Environment
        from repro.desim import Process
        import repro.desim.resources
    """),
    # `from ..desim import rng, Environment` smuggles machinery past the
    # rng allowance, so the whole statement is reported.
    "kernel_mixed_package_from_import_is_flagged": (kernel_machinery_imports, 1, MACHINE, """
        from ..desim import rng, Environment
    """),
    "kernel_rng_layer_is_allowed": (kernel_machinery_imports, 0, MACHINE, """
        from ..desim.rng import StreamRegistry, make_variate
        from repro.desim.rng import derive_seed
        from ..desim import rng
        from ..cluster.owner import OwnerBehavior
        import numpy as np
    """),
    "kernel_other_packages_are_out_of_scope": (
        kernel_machinery_imports, 0, "src/repro/backends/event_driven.py", """
        from repro.desim import Environment
    """),
    "telemetry_flags_every_obs_import_spelling": (pinned_core_leaks, 5, MACHINE, """
        import repro.obs
        import repro.obs.metrics
        from repro.obs import trace_span
        from ..obs.tracing import Tracer
        from .. import obs
    """),
    "telemetry_flags_wall_clock_reads": (pinned_core_leaks, 2, "src/repro/desim/core.py", """
        import time

        def tick():
            a = time.perf_counter()
            b = time.monotonic_ns()
            return a, b
    """),
    # The sanctioned pattern: a bare `tap` called with the simulated clock.
    "telemetry_bare_tap_hook_and_sim_clock_are_clean": (pinned_core_leaks, 0, MACHINE, """
        class EventKernel:
            def __init__(self):
                self.tap = None

            def _run(self, now):
                tap = self.tap
                if tap is not None:
                    tap("owner-arrival", now, station=0)
    """),
    # The backends are where telemetry wiring and timing belong.
    "telemetry_outside_guarded_packages_is_out_of_scope": (
        pinned_core_leaks, 0, "src/repro/backends/event_driven.py", """
        import time
        from ..obs import get_sim_tap

        started = time.perf_counter()
    """),
}


@pytest.mark.parametrize("name", LAYERING)
def test_layering_fixture(name):
    check, expected, path, code = LAYERING[name]
    assert len(check(_module(code, path))) == expected


def test_detects_an_unused_import_and_honours_the_exemptions():
    module = _module(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from json import dumps, loads\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Path') -> None:\n"
        "    '''Sequence is only mentioned here.'''\n"
    )
    # A `noqa` comment exempts nothing: the check reads no comments.
    assert sorted(dead_imports(module)) == [(2, "os"), (3, "sys"), (4, "Sequence"), (5, "loads")]
