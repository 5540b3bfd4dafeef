"""Per-rule fixture tests for the simlint static-analysis pass.

Every rule gets at least one fixture it must flag (the true positive) and
one clean fixture it must stay silent on, including the incident-class
fixture the pass exists for: the Interrupt-at-grant-instant pattern
(SL003).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import LintConfig, all_rules, get_rule, register_rule, rule_names
from repro.lint.core import Finding, LintRule, SourceFile
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.interrupts import InterruptSafetyRule
from repro.lint.rules.layering import KernelLayeringRule
from repro.lint.rules.registry_bypass import RegistryBypassRule
from repro.lint.rules.telemetry import TelemetryLayeringRule


def _source(code: str, path: str = "fixture.py") -> SourceFile:
    return SourceFile(path, text=textwrap.dedent(code))


def _file_findings(rule_cls, code: str, path: str = "fixture.py", config=None):
    rule = rule_cls(config or LintConfig())
    return list(rule.check_file(_source(code, path)))


def _project_findings(rule_cls, *sources, config=None):
    rule = rule_cls(config or LintConfig())
    return list(rule.check_project(list(sources)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_builtin_rules_registered_in_order(self):
        assert rule_names() == (
            "SL001", "SL003", "SL004", "SL006", "SL007",
        )
        assert [rule.rule_id for rule in all_rules()] == list(rule_names())

    def test_get_rule_unknown_id_lists_known(self):
        with pytest.raises(ValueError, match="SL001"):
            get_rule("SL999")

    def test_double_registration_refused_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_rule
            class Clone(LintRule):
                rule_id = "SL001"
                summary = "clone"

    def test_replace_reinstates_original(self):
        original = get_rule("SL001")

        @register_rule(replace=True)
        class Shadow(LintRule):
            rule_id = "SL001"
            summary = "shadow"

        try:
            assert get_rule("SL001") is Shadow
        finally:
            register_rule(original, replace=True)
        assert get_rule("SL001") is original

    def test_rule_without_id_rejected(self):
        with pytest.raises(ValueError, match="rule_id"):

            @register_rule
            class Nameless(LintRule):
                summary = "no id"


# ---------------------------------------------------------------------------
# SL001 determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_stdlib_random_call_flagged(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert len(findings) == 1
        assert "random.random" in findings[0].message

    def test_name_imported_from_random_flagged(self):
        findings = _file_findings(
            DeterminismRule,
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """,
        )
        assert len(findings) == 1

    def test_numpy_global_state_flagged(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import numpy as np

            def draw():
                np.random.seed(0)
                return np.random.normal(size=3)
            """,
        )
        assert len(findings) == 2

    def test_bare_default_rng_flagged(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
        )
        assert len(findings) == 1
        assert "OS entropy" in findings[0].message

    def test_bare_default_rng_imported_name_flagged(self):
        findings = _file_findings(
            DeterminismRule,
            """
            from numpy.random import default_rng

            def make():
                return default_rng()
            """,
        )
        assert len(findings) == 1

    def test_seeded_default_rng_clean(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []

    def test_generator_type_annotation_clean(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import numpy as np

            def sample(rng: np.random.Generator):
                return rng.normal()
            """,
        )
        assert findings == []

    def test_allowed_module_exempt(self):
        findings = _file_findings(
            DeterminismRule,
            """
            import numpy as np

            def root():
                return np.random.default_rng()
            """,
            path="src/repro/desim/rng.py",
        )
        assert findings == []

    def test_repo_rng_module_is_clean(self):
        source = SourceFile("src/repro/desim/rng.py")
        rule = DeterminismRule(LintConfig())
        # The exemption applies by path; without it the module would trip
        # (it is the one place allowed to build raw generators).
        assert list(rule.check_file(source)) == []


# ---------------------------------------------------------------------------
# SL003 interrupt safety
# ---------------------------------------------------------------------------


class TestInterruptSafety:
    def test_pr3_interrupt_at_grant_instant_pattern_flagged(self):
        # The PR-3 incident shape: the grant `yield req` sits inside the same
        # try as the service timeout, so an Interrupt delivered at the grant
        # instant lands in a handler that neither re-raises nor checks the
        # cause — the task resumes as if never preempted.
        findings = _file_findings(
            InterruptSafetyRule,
            """
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
            """,
        )
        assert len(findings) == 1
        assert "swallow" in findings[0].message

    def test_cause_checking_handler_clean(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def execute_task(env, cpu, demand):
                try:
                    yield env.timeout(demand)
                except Interrupt as exc:
                    if not isinstance(exc.cause, Preempted):
                        raise
                    record(exc.cause)
            """,
        )
        assert findings == []

    def test_reraising_handler_clean(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    yield env.timeout(1)
                except Interrupt:
                    cleanup()
                    raise
            """,
        )
        assert findings == []

    def test_broad_exception_around_yield_flagged(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    yield env.timeout(1)
                except Exception:
                    pass
            """,
        )
        assert len(findings) == 1

    def test_bare_except_around_yield_flagged(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    yield env.timeout(1)
                except:
                    pass
            """,
        )
        assert len(findings) == 1

    def test_broad_exception_without_yield_in_body_clean(self):
        # No yield inside the try: the runtime cannot deliver an Interrupt
        # there, so a broad handler is ordinary error handling.
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    value = parse(env.payload)
                except Exception:
                    value = None
                yield env.timeout(value or 1)
            """,
        )
        assert findings == []

    def test_explicit_interrupt_handler_flagged_even_without_yield(self):
        # Naming Interrupt is an explicit statement about preemptions; even
        # around a non-yielding body it must not swallow silently.
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    account()
                except Interrupt:
                    pass
                yield env.timeout(1)
            """,
        )
        assert len(findings) == 1

    def test_non_generator_function_ignored(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def helper(env):
                try:
                    return env.compute()
                except Exception:
                    return None
            """,
        )
        assert findings == []

    def test_nested_function_try_attributed_to_inner(self):
        # The try belongs to the nested *non*-generator helper, so the outer
        # generator's scan must not claim it.
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                def helper():
                    try:
                        return compute()
                    except Exception:
                        return None
                yield env.timeout(helper())
            """,
        )
        assert findings == []

    def test_unrelated_exception_type_clean(self):
        findings = _file_findings(
            InterruptSafetyRule,
            """
            def proc(env):
                try:
                    yield env.timeout(1)
                except ValueError:
                    pass
            """,
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SL004 registry bypass
# ---------------------------------------------------------------------------

_BACKEND_MODULE = """
from .base import SimulationBackend, register_backend

@register_backend
class MonteCarloSampler(SimulationBackend):
    name = "monte-carlo"

    def run(self):
        return None
"""


class TestRegistryBypass:
    def _sources(self, client_code: str, client_path: str = "src/repro/engine/client.py"):
        backend = _source(_BACKEND_MODULE, path="src/repro/backends/monte_carlo.py")
        client = _source(client_code, path=client_path)
        return backend, client

    def test_direct_instantiation_flagged(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends import MonteCarloSampler

                def run(config):
                    return MonteCarloSampler(config).run()
                """
            ),
        )
        assert len(findings) == 1
        assert "direct instantiation" in findings[0].message

    def test_class_attribute_access_flagged(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends import MonteCarloSampler

                def run(configs):
                    return MonteCarloSampler.run_batch(configs)
                """
            ),
        )
        assert len(findings) == 1
        assert "run_batch" in findings[0].message

    def test_private_registry_attribute_flagged(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends import base

                def names():
                    return list(base._REGISTRY)
                """
            ),
        )
        assert len(findings) == 1
        assert "_REGISTRY" in findings[0].message

    def test_imported_private_registry_name_flagged(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends.base import _REGISTRY

                def names():
                    return list(_REGISTRY)
                """
            ),
        )
        # the import itself is fine; the *use* is the bypass
        assert len(findings) == 1
        assert "private registry state" in findings[0].message

    def test_unrelated_local_registry_name_clean(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                _REGISTRY = {}

                def register(name, value):
                    _REGISTRY[name] = value
                """
            ),
        )
        assert findings == []

    def test_registry_dispatch_clean(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends import get_backend

                def run(config, mode):
                    return get_backend(mode)(config).run()
                """
            ),
        )
        assert findings == []

    def test_reexport_import_clean(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from repro.backends import MonteCarloSampler

                __all__ = ["MonteCarloSampler"]
                """,
                client_path="src/repro/cluster/simulation.py",
            ),
        )
        assert findings == []

    def test_backends_package_itself_exempt(self):
        findings = _project_findings(
            RegistryBypassRule,
            *self._sources(
                """
                from .monte_carlo import MonteCarloSampler

                def fast_path(configs):
                    return MonteCarloSampler.run_batch(configs)
                """,
                client_path="src/repro/backends/batching.py",
            ),
        )
        assert findings == []

    def test_defining_module_exempt(self):
        backend = _source(
            _BACKEND_MODULE
            + """

def _self_test(config):
    return MonteCarloSampler(config)
""",
            path="src/repro/cluster/legacy.py",
        )
        assert _project_findings(RegistryBypassRule, backend) == []

    def test_subclass_of_base_counts_as_backend(self):
        backend = _source(
            """
            class EventDrivenClusterSimulator(SimulationBackend):
                name = "event-driven"
            """,
            path="src/repro/backends/event_driven.py",
        )
        client = _source(
            """
            from repro.backends import EventDrivenClusterSimulator

            def run(config):
                return EventDrivenClusterSimulator(config).run()
            """,
            path="src/repro/engine/client.py",
        )
        findings = _project_findings(RegistryBypassRule, backend, client)
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# SL006 kernel layering
# ---------------------------------------------------------------------------


class TestKernelLayering:
    PATH = "src/repro/kernel/machine.py"

    def test_flags_generator_machinery_imports(self):
        findings = _file_findings(
            KernelLayeringRule,
            """
            from ..desim.core import Environment
            from repro.desim import Process
            import repro.desim.resources
            """,
            path=self.PATH,
        )
        assert len(findings) == 3
        assert all(f.rule == "SL006" for f in findings)
        assert "bitwise-pinning" in findings[0].message

    def test_rng_layer_is_allowed(self):
        findings = _file_findings(
            KernelLayeringRule,
            """
            from ..desim.rng import StreamRegistry, make_variate
            from repro.desim.rng import derive_seed
            from ..desim import rng
            from ..cluster.owner import OwnerBehavior
            import numpy as np
            """,
            path=self.PATH,
        )
        assert findings == []

    def test_mixed_package_from_import_is_flagged(self):
        # `from ..desim import rng, Environment` smuggles machinery past the
        # submodule allowance, so the whole statement is flagged
        findings = _file_findings(
            KernelLayeringRule,
            "from ..desim import rng, Environment\n",
            path=self.PATH,
        )
        assert len(findings) == 1

    def test_other_packages_are_out_of_scope(self):
        findings = _file_findings(
            KernelLayeringRule,
            "from repro.desim import Environment\n",
            path="src/repro/backends/event_driven.py",
        )
        assert findings == []

    def test_real_kernel_package_is_clean(self):
        from pathlib import Path

        for path in sorted(Path("src/repro/kernel").glob("*.py")):
            assert _file_findings(
                KernelLayeringRule, Path(path).read_text(), path=str(path)
            ) == []


# ---------------------------------------------------------------------------
# SL007 telemetry layering
# ---------------------------------------------------------------------------


class TestTelemetryLayering:
    PATH = "src/repro/kernel/machine.py"

    def test_flags_every_obs_import_spelling(self):
        findings = _file_findings(
            TelemetryLayeringRule,
            """
            import repro.obs
            import repro.obs.metrics
            from repro.obs import trace_span
            from ..obs.tracing import Tracer
            from .. import obs
            """,
            path=self.PATH,
        )
        assert len(findings) == 5
        assert all(f.rule == "SL007" for f in findings)
        assert "perturb" in findings[0].message

    def test_flags_wall_clock_reads(self):
        findings = _file_findings(
            TelemetryLayeringRule,
            """
            import time

            def tick():
                a = time.perf_counter()
                b = time.monotonic_ns()
                return a, b
            """,
            path="src/repro/desim/core.py",
        )
        assert len(findings) == 2
        assert "time.perf_counter()" in findings[0].message
        assert "simulated time" in findings[0].message

    def test_bare_tap_hook_and_sim_clock_are_clean(self):
        # The sanctioned pattern: a bare `tap` attribute called with the
        # *simulated* clock; no obs import, no wall-clock read.
        findings = _file_findings(
            TelemetryLayeringRule,
            """
            class EventKernel:
                def __init__(self):
                    self.tap = None

                def _run(self, now):
                    tap = self.tap
                    if tap is not None:
                        tap("owner-arrival", now, station=0)
            """,
            path=self.PATH,
        )
        assert findings == []

    def test_outside_guarded_packages_is_out_of_scope(self):
        # The backends are exactly where obs wiring and timing belong.
        findings = _file_findings(
            TelemetryLayeringRule,
            """
            import time
            from ..obs import get_sim_tap

            started = time.perf_counter()
            """,
            path="src/repro/backends/event_driven.py",
        )
        assert findings == []

    def test_config_moves_the_boundary(self):
        config = LintConfig(
            telemetry_forbidden_packages=("src/other/core.py",),
            telemetry_wallclock_names=("time",),
        )
        flagged = _file_findings(
            TelemetryLayeringRule,
            "import time\nnow = time.time()\n",
            path="src/other/core.py",
            config=config,
        )
        assert len(flagged) == 1
        ignored = _file_findings(
            TelemetryLayeringRule,
            "import time\nnow = time.perf_counter()\n",
            path="src/other/core.py",
            config=config,
        )
        assert ignored == []

    def test_real_guarded_packages_are_clean(self):
        from pathlib import Path

        config = LintConfig()
        for fragment in config.telemetry_forbidden_packages:
            root = Path(fragment)
            files = [root] if root.is_file() else sorted(root.glob("**/*.py"))
            assert files, f"guarded path {fragment} vanished"
            for path in files:
                assert _file_findings(
                    TelemetryLayeringRule,
                    path.read_text(),
                    path=str(path),
                ) == [], f"SL007 fired on {path}"


# ---------------------------------------------------------------------------
# shared core: suppressions, generators, findings
# ---------------------------------------------------------------------------


class TestSourceFileCore:
    def test_per_line_pragma_suppresses_only_that_rule(self):
        source = _source(
            """
            x = 1  # simlint: ignore[SL001]
            y = 2  # simlint: ignore[SL001, SL003]
            z = 3  # simlint: ignore
            """
        )
        assert source.is_suppressed("SL001", 2)
        assert not source.is_suppressed("SL004", 2)
        assert source.is_suppressed("SL003", 3)
        # a bare ignore mutes every rule on its line
        assert source.is_suppressed("SL006", 4)
        assert not source.is_suppressed("SL001", 5)

    def test_file_pragma_requires_rule_list(self):
        listed = _source("# simlint: ignore-file[SL004]\nx = 1\n")
        assert listed.is_suppressed("SL004", 99)
        assert not listed.is_suppressed("SL001", 99)
        blanket = _source("# simlint: ignore-file\nx = 1\n")
        assert not blanket.is_suppressed("SL004", 99)

    def test_generator_detection_ignores_nested_yield(self):
        source = _source(
            """
            def outer():
                def inner():
                    yield 1
                return inner

            def gen():
                yield 2
            """
        )
        names = {fn.name for fn in source.generator_functions()}
        assert names == {"inner", "gen"}

    def test_finding_render_format(self):
        finding = Finding(rule="SL001", path="a.py", line=3, column=7, message="boom")
        assert finding.render() == "a.py:3:7: SL001 boom"
        assert finding.as_dict()["line"] == 3
