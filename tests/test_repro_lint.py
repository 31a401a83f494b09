"""Tests for the repro-lint static-analysis pass (tools/repro_lint).

Every rule gets a good/bad fixture pair, the pragma machinery gets its
own section (suppression, mandatory reasons, stale detection, unknown
ids, string-literal inertness), and the final test runs the real linter
over the real ``src``/``tests``/``tools`` trees — the same invocation CI
runs — and requires zero findings.

Fixture pragmas live inside string literals on purpose: the engine's
tokenize-based parser ignores pragma-shaped text in strings, so this
file itself lints clean.
"""

from __future__ import annotations

import pathlib
import textwrap

from tools.repro_lint import lint_paths, lint_source
from tools.repro_lint.engine import (
    PRAGMA_RULE_ID,
    STALE_PRAGMA_RULE_ID,
    SYNTAX_RULE_ID,
    classify_scope,
    parse_pragmas,
)
from tools.repro_lint.rules import ALL_RULES, rule_by_id

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def rules_of(source: str, scope: str = "src") -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source), scope=scope)]


class TestRngRules:
    def test_legacy_global_flagged(self):
        assert rules_of("import numpy as np\nx = np.random.rand(3)\n") == [
            "rng-legacy-global"
        ]

    def test_legacy_seed_flagged_even_in_tests_scope(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert "rng-legacy-global" in rules_of(src, scope="tests")

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_of(src) == []

    def test_generator_type_annotation_clean(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> None: ...\n"
        )
        assert rules_of(src) == []

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(src) == ["rng-unseeded"]

    def test_explicit_none_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rules_of(src) == ["rng-unseeded"]

    def test_unseeded_bare_name_constructor_flagged(self):
        src = (
            "from numpy.random import default_rng\n"
            "rng = default_rng()\n"
        )
        assert "rng-unseeded" in rules_of(src)

    def test_unseeded_only_checked_in_src(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(src, scope="tests") == []

    def test_stdlib_random_import_flagged(self):
        assert rules_of("import random\n") == ["rng-stdlib-random"]
        assert rules_of("from random import shuffle\n") == ["rng-stdlib-random"]

    def test_stdlib_random_fine_outside_src(self):
        assert rules_of("import random\n", scope="tools") == []


class TestUlpRule:
    def test_variable_argument_flagged(self):
        src = "import math\ny = math.exp(x)\n"
        assert rules_of(src) == ["ulp"]

    def test_from_import_alias_flagged(self):
        src = "from math import exp as e\ny = e(x)\n"
        assert rules_of(src) == ["ulp"]

    def test_constant_argument_exempt(self):
        src = (
            "import math\n"
            "A = math.sqrt(5.0)\n"
            "B = math.log(2.0 * math.pi)\n"
            "C = math.exp(-1)\n"
        )
        assert rules_of(src) == []

    def test_non_transcendental_clean(self):
        src = "import math\nok = math.isfinite(x) and math.floor(y)\n"
        assert rules_of(src) == []

    def test_numpy_ufunc_clean(self):
        assert rules_of("import numpy as np\ny = np.exp(x)\n") == []


class TestCacheKeyRules:
    def test_id_key_flagged(self):
        assert rules_of("cache[id(spec)] = factor\n") == ["cache-key-id"]

    def test_shadowed_or_attribute_id_clean(self):
        assert rules_of("value = row.id(3)\n") == []

    def test_for_over_set_flagged(self):
        assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["set-iteration"]
        assert rules_of("out = [f(x) for x in set(items)]\n") == [
            "set-iteration"
        ]
        assert rules_of("for x in a_set | b_set:\n    pass\n") == []

    def test_set_algebra_of_set_exprs_flagged(self):
        src = "for x in set(a) - set(b):\n    pass\n"
        assert rules_of(src) == ["set-iteration"]

    def test_sorted_set_clean(self):
        assert rules_of("for x in sorted(set(items)):\n    pass\n") == []


class TestAtomicWriteRule:
    def test_open_for_write_flagged(self):
        src = "with open(p, 'w') as fh:\n    fh.write(s)\n"
        assert rules_of(src) == ["atomic-write"]

    def test_append_and_nonliteral_mode_flagged(self):
        assert rules_of("fh = open(p, 'ab')\n") == ["atomic-write"]
        assert rules_of("fh = open(p, mode)\n") == ["atomic-write"]

    def test_read_modes_clean(self):
        assert rules_of("data = open(p).read()\n") == []
        assert rules_of("data = open(p, 'rb').read()\n") == []

    def test_write_text_flagged(self):
        assert rules_of("path.write_text(s)\n") == ["atomic-write"]
        assert rules_of("path.write_bytes(b)\n") == ["atomic-write"]

    def test_persistence_module_exempt(self):
        findings = lint_source(
            "path.write_text(s)\n",
            path="src/repro/tuning/persistence.py",
            scope="src",
        )
        assert findings == []

    def test_tests_scope_exempt(self):
        assert rules_of("path.write_text(s)\n", scope="tests") == []


class TestBroadExceptRule:
    def test_bare_and_broad_excepts_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert rules_of(src) == ["broad-except"]
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert rules_of(src) == ["broad-except"]

    def test_broad_name_in_tuple_flagged(self):
        src = "try:\n    f()\nexcept (ValueError, DbmsError):\n    pass\n"
        assert rules_of(src) == ["broad-except"]

    def test_narrow_except_clean(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert rules_of(src) == []

    def test_reraising_cleanup_exempt(self):
        src = (
            "try:\n"
            "    f()\n"
            "except BaseException:\n"
            "    cleanup()\n"
            "    raise\n"
        )
        assert rules_of(src) == []

    def test_faults_module_exempt(self):
        findings = lint_source(
            "try:\n    f()\nexcept Exception:\n    pass\n",
            path="src/repro/tuning/faults.py",
            scope="src",
        )
        assert findings == []


class TestRawSleepRule:
    def test_time_sleep_flagged(self):
        src = "import time\ntime.sleep(0.5)\n"
        assert rules_of(src) == ["raw-sleep"]

    def test_from_import_and_alias_flagged(self):
        src = "from time import sleep\nsleep(1)\n"
        assert rules_of(src) == ["raw-sleep"]
        src = "from time import sleep as zzz\nzzz(1)\n"
        assert rules_of(src) == ["raw-sleep"]

    def test_injected_clock_sleep_clean(self):
        src = (
            "def wait(clock, seconds):\n"
            "    clock.sleep(seconds)\n"
            "    self.clock.sleep(seconds)\n"
        )
        assert rules_of(src) == []

    def test_faults_module_exempt(self):
        findings = lint_source(
            "import time\ntime.sleep(0.5)\n",
            path="src/repro/tuning/faults.py",
            scope="src",
        )
        assert findings == []

    def test_only_polices_src(self):
        assert rules_of("import time\ntime.sleep(0.5)\n", scope="tests") == []
        assert rules_of("import time\ntime.sleep(0.5)\n", scope="tools") == []


def tuning_rules_of(source: str) -> list[str]:
    """Like :func:`rules_of` but with a path inside ``tuning/`` so the
    path-scoped module-state rule engages."""
    findings = lint_source(
        textwrap.dedent(source),
        path="src/repro/tuning/example.py",
        scope="src",
    )
    return [f.rule for f in findings]


class TestModuleStateRule:
    def test_empty_dict_and_list_flagged(self):
        assert tuning_rules_of("_CACHE: dict[str, int] = {}\n") == [
            "module-state"
        ]
        assert tuning_rules_of("_SEEN = []\n") == ["module-state"]
        assert tuning_rules_of("_PENDING = set()\n") == ["module-state"]

    def test_empty_factory_calls_flagged(self):
        assert tuning_rules_of(
            "import collections\n_BY_KEY = collections.defaultdict(list)\n"
        ) == ["module-state"]
        assert tuning_rules_of("_Q = dict()\n") == ["module-state"]

    def test_global_statement_flagged(self):
        src = (
            "_handle = None\n"
            "def load():\n"
            "    global _handle\n"
            "    _handle = 1\n"
        )
        assert tuning_rules_of(src) == ["module-state"]

    def test_populated_registry_clean(self):
        src = (
            "OPTIMIZERS = {'smac': 1, 'gp-bo': 2}\n"
            "__all__ = ['OPTIMIZERS']\n"
            "NAMES = list(OPTIMIZERS)\n"
        )
        assert tuning_rules_of(src) == []

    def test_function_local_and_class_state_clean(self):
        src = (
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.items = {}\n"
            "def f():\n"
            "    seen = []\n"
            "    return seen\n"
        )
        assert tuning_rules_of(src) == []

    def test_gated_definition_still_flagged(self):
        src = (
            "import sys\n"
            "if sys.platform == 'linux':\n"
            "    _STATE = {}\n"
        )
        assert tuning_rules_of(src) == ["module-state"]

    def test_accumulating_cache_under_dbms_flagged(self):
        """The simulator's plans live on the instance; a new module-level
        cache under dbms/ needs a reviewed pragma like the engine's two."""
        src = (
            "_PLAN_CACHE: dict[tuple, object] = {}\n"
            "def plan_for(key):\n"
            "    return _PLAN_CACHE.setdefault(key, object())\n"
        )
        findings = lint_source(
            src, path="src/repro/dbms/components/texture.py", scope="src"
        )
        assert [f.rule for f in findings] == ["module-state"]

    def test_only_polices_optimizers_and_tuning_paths(self):
        findings = lint_source(
            "_CACHE = {}\n",
            path="src/repro/analysis/example.py",
            scope="src",
        )
        assert findings == []
        assert rules_of("_CACHE = {}\n") == []  # default "<string>" path

    def test_pragma_names_the_guard(self):
        src = (
            "# repro-lint: allow[module-state] reason=guarded by _lock\n"
            "_CACHE = {}\n"
        )
        findings = lint_source(
            src, path="src/repro/optimizers/example.py", scope="src"
        )
        assert findings == []


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        src = (
            "import math\n"
            "y = math.exp(x)  "
            "# repro-lint: allow[ulp] reason=scalar-only, no array twin\n"
        )
        assert lint_source(src) == []

    def test_comment_line_pragma_targets_next_line(self):
        src = (
            "import math\n"
            "# repro-lint: allow[ulp] reason=scalar-only, no array twin\n"
            "y = math.exp(x)\n"
        )
        assert lint_source(src) == []

    def test_pragma_without_reason_rejected_and_finding_kept(self):
        src = "import math\ny = math.exp(x)  # repro-lint: allow[ulp]\n"
        found = {f.rule for f in lint_source(src)}
        assert found == {"ulp", PRAGMA_RULE_ID}

    def test_empty_reason_rejected(self):
        src = "import math\ny = math.exp(x)  # repro-lint: allow[ulp] reason=\n"
        assert PRAGMA_RULE_ID in {f.rule for f in lint_source(src)}

    def test_empty_rule_list_rejected(self):
        src = "x = 1  # repro-lint: allow[] reason=nothing\n"
        assert {f.rule for f in lint_source(src)} == {PRAGMA_RULE_ID}

    def test_unknown_rule_id_rejected(self):
        src = "x = 1  # repro-lint: allow[no-such-rule] reason=typo\n"
        findings = lint_source(src)
        assert [f.rule for f in findings] == [PRAGMA_RULE_ID]
        assert "no-such-rule" in findings[0].message

    def test_malformed_pragma_rejected(self):
        src = "x = 1  # repro-lint: allowed[ulp] reason=typo\n"
        assert PRAGMA_RULE_ID in {f.rule for f in lint_source(src)}

    def test_stale_pragma_flagged(self):
        src = "x = 1  # repro-lint: allow[ulp] reason=nothing here\n"
        assert {f.rule for f in lint_source(src)} == {STALE_PRAGMA_RULE_ID}

    def test_pragma_only_covers_listed_rules(self):
        src = (
            "import math, numpy as np\n"
            "y = math.exp(x) + np.random.default_rng().normal()  "
            "# repro-lint: allow[ulp] reason=scalar-only\n"
        )
        assert [f.rule for f in lint_source(src)] == ["rng-unseeded"]

    def test_multi_rule_pragma(self):
        src = (
            "import math, numpy as np\n"
            "y = math.exp(x) + np.random.default_rng().normal()  "
            "# repro-lint: allow[ulp, rng-unseeded] reason=fixture\n"
        )
        assert lint_source(src) == []

    def test_pragma_in_string_literal_inert(self):
        src = 's = "# repro-lint: allow[ulp] reason=not a real pragma"\n'
        assert lint_source(src) == []
        pragmas, errors = parse_pragmas(src)
        assert pragmas == [] and errors == []


class TestEngine:
    def test_syntax_error_reported(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_RULE_ID]

    def test_scope_classification(self):
        assert classify_scope(pathlib.PurePath("tests/test_x.py")) == "tests"
        assert classify_scope(pathlib.PurePath("tools/lint/a.py")) == "tools"
        assert classify_scope(pathlib.PurePath("src/repro/gp.py")) == "src"

    def test_findings_sorted_and_rendered(self):
        src = "import math\nb = math.exp(x)\na = math.log(y)\n"
        findings = lint_source(src, path="m.py")
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].render().startswith("m.py:2:")

    def test_every_rule_documents_its_contract(self):
        for rule in ALL_RULES:
            assert rule.rule_id and rule.title and rule.scopes
            assert len(rule.contract) > 80, rule.rule_id
        assert rule_by_id("ulp") is not None
        assert rule_by_id("definitely-not-a-rule") is None

    def test_rule_ids_unique(self):
        ids = [r.rule_id for r in ALL_RULES]
        assert len(ids) == len(set(ids))


class TestCli:
    def test_explain_prints_contract(self, capsys):
        from tools.repro_lint.__main__ import main

        assert main(["--explain", "atomic-write"]) == 0
        out = capsys.readouterr().out
        assert "atomic-write" in out and "os.replace" in out

    def test_explain_unknown_rule_errors(self, capsys):
        from tools.repro_lint.__main__ import main

        assert main(["--explain", "nope"]) == 2

    def test_list_rules(self, capsys):
        from tools.repro_lint.__main__ import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_no_paths_is_usage_error(self, capsys):
        from tools.repro_lint.__main__ import main

        assert main([]) == 2

    def test_findings_set_exit_code(self, tmp_path, capsys):
        from tools.repro_lint.__main__ import main

        bad = tmp_path / "src_mod.py"
        bad.write_text("import math\ny = math.exp(x)\n")
        assert main([str(bad)]) == 1
        assert "[ulp]" in capsys.readouterr().out
        good = tmp_path / "clean_mod.py"
        good.write_text("import numpy as np\ny = np.exp(x)\n")
        assert main([str(good)]) == 0


class TestRealTree:
    def test_repo_lints_clean(self):
        """The committed tree must lint clean — the same gate CI runs."""
        paths = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "tools"]
        assert all(p.is_dir() for p in paths)
        findings = lint_paths(paths)
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
