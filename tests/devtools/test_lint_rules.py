"""Per-rule linter tests: each rule fires on a violating snippet and is
silenced by ``# repro: noqa[RULE]`` on the violating line."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import lint_source


def lint(source: str, path: str = "src/repro/sample/module.py"):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(source: str, path: str = "src/repro/sample/module.py"):
    return [violation.rule_id for violation in lint(source, path)]


CLEAN = '''
    """A clean module."""
    __all__ = ["f"]

    def f():
        return 1
'''


def test_clean_module_has_no_violations():
    assert lint(CLEAN) == []


def test_syntax_error_is_reported_not_raised():
    findings = lint("def broken(:\n")
    assert [v.rule_id for v in findings] == ["REP000"]


# -- REP001: unseeded randomness --------------------------------------------


REP001_CASES = [
    'import random\n__all__ = []\n\ndef f(xs):\n    return random.choice(xs)\n',
    'import random\n__all__ = []\n\ndef f(xs):\n    random.shuffle(xs)\n',
    'import random as rnd\n__all__ = []\n\ndef f():\n    return rnd.random()\n',
    'from random import shuffle\n__all__ = []\n\ndef f(xs):\n    shuffle(xs)\n',
    'import numpy as np\n__all__ = []\n\ndef f():\n    return np.random.rand(3)\n',
    'import random\n__all__ = []\n\ndef f():\n    return random.Random()\n',
    'import random\n__all__ = []\n_RNG = random.Random(0)\n',
]


@pytest.mark.parametrize("source", REP001_CASES)
def test_rep001_fires(source):
    assert "REP001" in rule_ids(source)


def test_rep001_allows_local_seeded_rng():
    source = """
        import random
        import numpy as np
        __all__ = ["f"]

        def f(seed):
            rng = random.Random(seed)
            npr = np.random.default_rng(seed)
            return rng.random() + float(npr.random())
    """
    assert rule_ids(source) == []


def test_rep001_noqa_suppresses():
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro: noqa[REP001]\n"
    )
    assert lint(source) == []


# -- REP002: private adjacency mutation --------------------------------------


REP002_CASES = [
    "__all__ = []\n\ndef f(g, u, v):\n    g._adj[u].add(v)\n",
    "__all__ = []\n\ndef f(g, u, v):\n    g._succ[u].discard(v)\n",
    "__all__ = []\n\ndef f(g, u):\n    g._pred[u] = set()\n",
    "__all__ = []\n\ndef f(g):\n    g._adj = {}\n",
    "__all__ = []\n\ndef f(g, u):\n    del g._adj[u]\n",
    "__all__ = []\n\ndef f(g, u):\n    g._adj.pop(u)\n",
]


@pytest.mark.parametrize("source", REP002_CASES)
def test_rep002_fires(source):
    assert "REP002" in rule_ids(source)


def test_rep002_allows_reads():
    source = """
        __all__ = ["f"]

        def f(g, u):
            return g._adj[u] | g._adj.get(u, set())
    """
    assert rule_ids(source) == []


def test_rep002_noqa_suppresses():
    source = (
        "__all__ = []\n"
        "\n"
        "def f(g, u, v):\n"
        "    g._adj[u].add(v)  # repro: noqa[REP002]\n"
    )
    assert lint(source) == []


def test_rep002_exempts_the_graph_package():
    """The package that owns the adjacency may write it, subpackages
    included; every other package may not."""
    source = REP002_CASES[0]
    assert rule_ids(source, "src/repro/analysis/x.py") == ["REP002"]
    assert rule_ids(source, "src/repro/graph/x.py") == []
    assert rule_ids(source, "src/repro/graph/io/x.py") == []


# -- REP003: mutate while iterating ------------------------------------------


REP003_CASES = [
    "__all__ = []\n\ndef f(g):\n    for u, v in g.edges:\n        g.remove_edge(u, v)\n",
    "__all__ = []\n\ndef f(g):\n    for n in g:\n        g.remove_node(n)\n",
    "__all__ = []\n\ndef f(g):\n    for n, nb in g.adjacency():\n        g.add_edge(n, 0)\n",
]


@pytest.mark.parametrize("source", REP003_CASES)
def test_rep003_fires(source):
    assert "REP003" in rule_ids(source)


def test_rep003_allows_materialized_iteration():
    source = """
        __all__ = ["f"]

        def f(g):
            for u, v in list(g.edges):
                g.remove_edge(u, v)
            for n in sorted(g):
                g.add_node(n)
    """
    assert rule_ids(source) == []


def test_rep003_allows_mutating_a_different_graph():
    source = """
        __all__ = ["f"]

        def f(g, h):
            for u, v in g.edges:
                h.add_edge(u, v)
    """
    assert rule_ids(source) == []


def test_rep003_noqa_suppresses():
    source = (
        "__all__ = []\n"
        "\n"
        "def f(g):\n"
        "    for u, v in g.edges:\n"
        "        g.remove_edge(u, v)  # repro: noqa[REP003]\n"
    )
    assert lint(source) == []


# -- REP006: broad excepts ----------------------------------------------------


REP006_CASES = [
    "__all__ = []\n\ndef f():\n    try:\n        g()\n    except:\n        pass\n",
    "__all__ = []\n\ndef f():\n    try:\n        g()\n    except Exception:\n        pass\n",
    "__all__ = []\n\ndef f():\n    try:\n        g()\n    except (ValueError, BaseException):\n        pass\n",
]


@pytest.mark.parametrize("source", REP006_CASES)
def test_rep006_fires(source):
    assert "REP006" in rule_ids(source)


def test_rep006_allows_specific_exceptions():
    source = """
        __all__ = ["f"]

        def f():
            try:
                g()
            except (ValueError, KeyError):
                pass
    """
    assert rule_ids(source) == []


def test_rep006_noqa_suppresses():
    source = (
        "__all__ = []\n"
        "\n"
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:  # repro: noqa[REP006]\n"
        "        pass\n"
    )
    assert lint(source) == []


# -- suppression mechanics ----------------------------------------------------


def test_blanket_noqa_suppresses_everything():
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro: noqa\n"
    )
    assert lint(source) == []


def test_noqa_for_other_rule_does_not_suppress():
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro: noqa[REP006]\n"
    )
    assert rule_ids(source) == ["REP001"]


def test_violation_format_is_addressable():
    findings = lint("import random\n\nx = random.random()\n")
    assert len(findings) == 1
    formatted = findings[0].format()
    assert "src/repro/sample/module.py:3:" in formatted
    assert "REP001" in formatted


# -- noqa parsing edge cases -------------------------------------------------


def test_noqa_with_space_before_bracket_suppresses():
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro:noqa [REP001]\n"
    )
    assert rule_ids(source) == []


def test_noqa_with_interior_whitespace_in_list():
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro: noqa[ REP001 , REP006 ]\n"
    )
    assert rule_ids(source) == []


def test_noqa_unknown_rule_id_produces_rep000():
    source = (
        '"""Doc."""\n'
        "__all__ = []\n"
        "\n"
        "x = 1  # repro: noqa[REP999]\n"
    )
    findings = lint(source)
    assert [v.rule_id for v in findings] == ["REP000"]
    assert "REP999" in findings[0].message


def test_noqa_typo_still_suppresses_known_ids_on_same_line():
    # One valid + one unknown id: the valid suppression works, the typo
    # is still reported so it cannot silently rot.
    source = (
        "import random\n"
        "__all__ = []\n"
        "\n"
        "def f(xs):\n"
        "    return random.choice(xs)  # repro: noqa[REP001, REP9999]\n"
    )
    assert rule_ids(source) == ["REP000"]


def test_rep000_for_unknown_noqa_id_is_not_itself_suppressible():
    source = (
        '"""Doc."""\n'
        "__all__ = []\n"
        "\n"
        "x = 1  # repro: noqa[REP999]  # repro: noqa\n"
    )
    assert "REP000" in rule_ids(source)
