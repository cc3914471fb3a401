"""Fixtures for the invariant linter (``tools.lint``).

Each rule gets one flagging and one passing snippet, the noqa machinery
is exercised (waive / unjustified / code-less), and a meta-test asserts
the repository itself lints clean — new violations fail CI here before
ruff even runs.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from tools.lint import lint_source, parse_suppressions  # noqa: E402
from tools.lint.rules import ALL_RULES  # noqa: E402


def codes(source, path):
    return sorted({v.code for v in lint_source(source, Path(path))})


class TestRPR001LineageComposeOnly:
    PATH = "src/repro/exec/vector/executor.py"

    def test_flags_direct_backward_mutation(self):
        assert codes("node.backward[key] = rid_array\n", self.PATH) == ["RPR001"]

    def test_flags_forward_delete(self):
        assert codes("del node.forward[key]\n", self.PATH) == ["RPR001"]

    def test_flags_scatter_assignment(self):
        src = "import numpy as np\nout[rids] = np.arange(n, dtype=np.int64)\n"
        assert codes(src, "src/repro/exec/late_mat.py") == ["RPR001"]

    def test_passes_composer_folds(self):
        src = (
            "node = compose_node(rows, child, local_bw, local_fw)\n"
            "drop_setop_right_indexes(node, left_node, right_node)\n"
        )
        assert codes(src, self.PATH) == []

    def test_kernels_out_of_scope(self):
        # Kernels build *local* indexes by design; the scatter idiom is
        # legal there (its sanctioned shared home is indexes.scatter_forward).
        src = "import numpy as np\nout[rids] = np.arange(n)\n"
        assert codes(src, "src/repro/exec/vector/kernels.py") == []


class TestRPR002NoInplaceOnHandout:
    def test_flags_subscript_write_on_view(self):
        src = "arr = vec.view()\narr[0] = 1\n"
        assert codes(src, "src/repro/exec/anything.py") == ["RPR002"]

    def test_flags_augassign_on_cache_resolve(self):
        src = "rids = cache.resolve(key)\nrids += 1\n"
        assert codes(src, "benchmarks/bench_x.py") == ["RPR002"]

    def test_flags_inplace_method_in_function(self):
        src = "def f(vec):\n    arr = vec.view()\n    arr.sort()\n"
        assert codes(src, "src/repro/api.py") == ["RPR002"]

    def test_passes_after_copy(self):
        src = "arr = vec.view().copy()\narr[0] = 1\n"
        assert codes(src, "src/repro/api.py") == []


class TestRPR003TimingsRegistry:
    def test_flags_string_literal_subscript(self):
        assert codes('x = res.timings["late_mat_joins"]\n', "benchmarks/b.py") == [
            "RPR003"
        ]

    def test_flags_string_literal_get(self):
        assert codes('x = res.timings.get("execute", 0.0)\n', "benchmarks/b.py") == [
            "RPR003"
        ]

    def test_flags_dict_literal_keys(self):
        src = 'self.timings = {"execute": elapsed}\n'
        assert codes(src, "src/repro/exec/vector/executor.py") == ["RPR003"]

    def test_passes_registry_constant(self):
        src = (
            "from repro.exec.timings import EXECUTE\n"
            "x = res.timings[EXECUTE]\n"
            "y = res.timings.get(EXECUTE, 0.0)\n"
        )
        assert codes(src, "benchmarks/b.py") == []


class TestRPR004ReproErrorsOnly:
    def test_flags_bare_valueerror(self):
        assert codes('raise ValueError("bad hi/lo")\n', "src/repro/substrate/x.py") == [
            "RPR004"
        ]

    def test_flags_uncalled_builtin(self):
        assert codes("raise RuntimeError\n", "src/repro/exec/x.py") == ["RPR004"]

    def test_passes_taxonomy_and_exemptions(self):
        src = (
            'raise InvalidArgumentError("max_entries must be positive")\n'
            'raise NotImplementedError\n'  # abstract-method marker stays legal
            "raise\n"  # bare re-raise stays legal
        )
        assert codes(src, "src/repro/lineage/cache.py") == []

    def test_out_of_scope_outside_src_repro(self):
        assert codes('raise ValueError("x")\n', "benchmarks/b.py") == []


class TestRPR005EpochThreading:
    def test_flags_naked_get_in_exec(self):
        src = "table = catalog.get(name)\n"
        assert codes(src, "src/repro/exec/lineage_scan.py") == ["RPR005"]

    def test_flags_attribute_catalog_resolve(self):
        src = "table = self.catalog.resolve(name)\n"
        assert codes(src, "src/repro/lineage/cache.py") == ["RPR005"]

    def test_passes_get_versioned(self):
        src = "table, epoch = self.catalog.get_versioned(name)\n"
        assert codes(src, "src/repro/exec/vector/executor.py") == []

    def test_binder_out_of_scope(self):
        # Schema inference holds no rids; plain .get is legal there.
        assert codes("t = catalog.get(name)\n", "src/repro/sql/binder.py") == []


class TestRPR007DurableWritesOnly:
    PATH = "src/repro/lineage/persist.py"

    def test_flags_bare_write_open(self):
        assert codes('f = open(path, "wb")\n', self.PATH) == ["RPR007"]

    def test_flags_append_and_update_modes(self):
        assert codes('open(path, "ab")\n', self.PATH) == ["RPR007"]
        assert codes('open(path, "r+b")\n', "src/repro/lineage/wal.py") == [
            "RPR007"
        ]

    def test_flags_mode_keyword_and_dynamic_mode(self):
        assert codes('open(path, mode="w")\n', self.PATH) == ["RPR007"]
        # A mode the linter cannot read statically is treated as writable.
        assert codes("open(path, mode)\n", self.PATH) == ["RPR007"]

    def test_flags_os_open(self):
        assert codes("fd = os.open(path, os.O_WRONLY)\n", self.PATH) == [
            "RPR007"
        ]

    def test_passes_read_only_open(self):
        assert codes('data = open(path, "rb").read()\n', self.PATH) == []
        assert codes("open(path)\n", self.PATH) == []

    def test_passes_durable_helpers(self):
        src = (
            "durable_atomic_write(path, payload)\n"
            "handle = durable_open_append(path)\n"
            "durable_truncate(path, length)\n"
        )
        assert codes(src, self.PATH) == []

    def test_out_of_scope_elsewhere(self):
        # Non-durable modules may write files directly (reports, plots).
        assert codes('open(path, "wb")\n', "src/repro/apps/report.py") == []


class TestRPR008StableGroupOrderOnly:
    def test_flags_np_stable_argsort_in_exec(self):
        src = 'order = np.argsort(chunk, kind="stable")\n'
        assert codes(src, "src/repro/exec/vector/groupby.py") == ["RPR008"]

    def test_flags_method_form_in_lineage(self):
        src = 'order = targets.argsort(kind="stable")\n'
        assert codes(src, "src/repro/lineage/indexes.py") == ["RPR008"]

    def test_passes_kernel_call_and_unstable_sorts(self):
        src = (
            "order = stable_group_order(ids, num_groups)\n"
            "order = np.argsort(values)\n"
            'order = np.argsort(values, kind="quicksort")\n'
        )
        assert codes(src, "src/repro/exec/vector/join.py") == []

    def test_kernel_body_is_exempt(self):
        src = (
            "def stable_group_order(ids, num_groups):\n"
            '    return np.argsort(ids.astype(np.uint16), kind="stable")\n'
        )
        assert codes(src, "src/repro/lineage/indexes.py") == []
        # Only the kernel in indexes.py: a same-named helper elsewhere is not.
        assert codes(src, "src/repro/exec/late_mat.py") == ["RPR008"]

    def test_justified_noqa_waives(self):
        src = (
            'order = np.argsort(first_idx, kind="stable")'
            "  # repro: noqa RPR008 -- ranks first occurrences\n"
        )
        assert codes(src, "src/repro/exec/vector/kernels.py") == []

    def test_out_of_scope_elsewhere(self):
        src = 'order = np.argsort(ids, kind="stable")\n'
        assert codes(src, "src/repro/apps/crossfilter.py") == []
        assert codes(src, "benchmarks/bench_x.py") == []


class TestRPR009CompiledReferenceTestOnly:
    def test_flags_a_lazy_import_inside_a_function(self):
        src = (
            "def run_plan(catalog, results):\n"
            "    from .exec.compiled.executor import CompiledExecutor\n"
            "    return CompiledExecutor(catalog, results=results)\n"
        )
        assert codes(src, "src/repro/api.py") == ["RPR009"]

    def test_flags_absolute_and_package_imports(self):
        assert codes("import repro.exec.compiled.codegen\n", "src/repro/serve.py") == [
            "RPR009"
        ]
        assert codes("from repro.exec import compiled\n", "src/repro/serve.py") == [
            "RPR009"
        ]
        assert codes("from ..compiled import CompiledExecutor\n",
                     "src/repro/exec/vector/executor.py") == ["RPR009"]

    def test_passes_other_engine_imports(self):
        src = (
            "from .exec.vector.executor import VectorExecutor\n"
            "from .exec import late_mat\n"
        )
        assert codes(src, "src/repro/api.py") == []

    def test_engine_and_tests_out_of_scope(self):
        assert codes("from .codegen import CodeContext\n",
                     "src/repro/exec/compiled/executor.py") == []
        src = "from repro.exec.compiled import CompiledExecutor\n"
        assert codes(src, "tests/unit/test_compiled.py") == []
        assert codes(src, "benchmarks/bench_x.py") == []


class TestSuppressions:
    def test_justified_noqa_waives(self):
        src = 'raise ValueError("x")  # repro: noqa RPR004 -- fixture needs a builtin\n'
        assert codes(src, "src/repro/x.py") == []

    def test_unjustified_noqa_reports_rpr000_and_keeps_violation(self):
        src = 'raise ValueError("x")  # repro: noqa RPR004\n'
        assert codes(src, "src/repro/x.py") == ["RPR000", "RPR004"]

    def test_codeless_noqa_reports_rpr000(self):
        assert codes("x = 1  # repro: noqa -- because\n", "src/repro/x.py") == [
            "RPR000"
        ]

    def test_wrong_code_does_not_waive(self):
        src = 'raise ValueError("x")  # repro: noqa RPR001 -- wrong code\n'
        assert "RPR004" in codes(src, "src/repro/x.py")

    def test_parse_multiple_codes(self):
        sups = parse_suppressions("x = 1  # repro: noqa RPR001,RPR003 -- reason\n")
        assert sups[1].codes == ("RPR001", "RPR003")
        assert sups[1].justified

    def test_syntax_error_reports_rpr999(self):
        assert codes("def f(:\n", "src/repro/x.py") == ["RPR999"]


class TestRuleMetadata:
    def test_every_rule_has_code_name_and_docstring(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.code.startswith("RPR") and len(rule.code) == 6
            assert rule.code not in seen
            seen.add(rule.code)
            assert rule.name
            assert rule.__doc__ and "Autofix hint" in rule.__doc__

    def test_eight_rules_active(self):
        # A retired code is never reused: noqa comments cite codes.
        assert [rule.code for rule in ALL_RULES] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR007", "RPR008",
            "RPR009",
        ]


class TestRepositoryIsClean:
    def test_linter_exits_clean_at_head(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src", "benchmarks"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"lint violations:\n{proc.stdout}{proc.stderr}"


class TestTimingsRegistryCompleteness:
    def test_bench_gated_keys_exist_in_registry(self):
        from repro.exec import timings

        # Every constant the BENCH gates read must be a registered key;
        # a typo'd constant would silently gate on a missing counter.
        for const in (
            timings.EXECUTE,
            timings.LATE_MAT_SUBTREES,
            timings.LATE_MAT_JOINS,
            timings.LATE_MAT_DISTINCTS,
            timings.LATE_MAT_CHAIN_HOPS,
            timings.LATE_MAT_BUILD_SWAPS,
            timings.LATE_MAT_PKFK_DETECTED,
        ):
            assert const in timings.ALL_KEYS

    def test_registry_has_no_duplicates(self):
        from repro.exec import timings

        names = [
            n
            for n in dir(timings)
            if n.isupper() and n != "ALL_KEYS" and isinstance(getattr(timings, n), str)
        ]
        values = [getattr(timings, n) for n in names]
        assert len(values) == len(set(values))
        assert set(values) == set(timings.ALL_KEYS)
