"""Every builtin ``ValueError``, ``TypeError`` or ``KeyError`` that ``src/`` raises.

A check that the command line can reach raises a typed ``CostSenseError``,
which ``cli.main`` reports as one line with exit status 1 or 2; ``cli.main``
does not catch the builtin errors. The builtin raises that remain are listed
here by module and function, one entry per raise, each with the reason no
command-line input reaches it. A new one fails this test until it is typed or
listed.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import costsense

_SRC = Path(costsense.__file__).parent
_UNTYPED = {"ValueError", "TypeError", "KeyError"}

_PARAMS = ("INI values reach it only inside config._model_from_row, parse_apparent or "
           "_scenario_errors, which re-raise a ValueError as a ConfigError")
_SCENARIO = ("INI sections build scenarios only inside config._scenario_errors, which "
             "re-raises a ValueError as a ConfigError naming the section")
_APPARENT = "config.parse_apparent re-raises a ValueError as a ConfigError"

UNTYPED_RAISES = [
    ("config", "_model_from_row",
     "raised inside the function's own try, which re-raises it as a ConfigError"),
    ("diagnostics", "_reports", "the CLI passes only the methods 'pearson' and 'spearman'"),
    ("diagnostics", "_reports", "the CLI asks only for the dataset's own covariate names"),
    ("sensitivity", "ConfounderFamily.from_string",
     "config._family re-raises a ValueError as a ConfigError"),
    ("sensitivity", "BernoulliParams.__post_init__", _PARAMS),
    ("sensitivity", "NormalParams.__post_init__", _PARAMS),
    ("sensitivity", "NormalParams.__post_init__", _PARAMS),
    ("sensitivity", "PoissonParams.__post_init__", _PARAMS),
    ("sensitivity", "GammaParams.__post_init__", _PARAMS),
    ("sensitivity", "check_params",
     "config builds each family's parameters with the family's own class"),
    ("sensitivity", "z_quantile",
     "cli._effective_level checks --level first, and an [apparent] level enters through "
     "config.parse_apparent"),
    ("sensitivity", "ApparentEffect.__post_init__",
     "a fit that converged has finite coefficients, and " + _APPARENT),
    ("sensitivity", "ApparentEffect.__post_init__",
     "cli._resolve_apparent checks the fitted variance first, and " + _APPARENT),
    ("sensitivity", "ApparentEffect.from_ratio_ci", _APPARENT),
    ("sensitivity", "ApparentEffect.from_ratio_ci", _APPARENT),
    ("sensitivity", "gamma_arms_from_mean_ratio", _PARAMS),
    ("sensitivity", "gamma_arms_from_mean_ratio", _PARAMS),
    ("simulation", "CIScenario.__post_init__", _SCENARIO),
    ("simulation", "CIScenario.__post_init__", _SCENARIO),
    ("simulation", "CIScenario.__post_init__", _SCENARIO),
    ("simulation", "CIScenario.__post_init__", _SCENARIO),
    ("simulation", "CDScenario.__post_init__", _SCENARIO),
    ("simulation", "CDScenario.__post_init__", _SCENARIO),
    ("simulation", "CDScenario.__post_init__", _SCENARIO),
    ("simulation", "PropensityScenario.__post_init__", _SCENARIO),
    ("simulation", "_arm_mass", "called only while a CDScenario is built; " + _SCENARIO),
    ("simulation", "_arm_moments", "called only while a CDScenario is built; " + _SCENARIO),
]


def _raised_name(exc) -> str | None:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


def _untyped_raises(node, scope=()):
    """``scope`` names of the functions under ``node`` that raise an untyped error,
    once per raise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _untyped_raises(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise) and _raised_name(child.exc) in _UNTYPED:
            yield ".".join(scope)
        yield from _untyped_raises(child, scope)


def test_every_untyped_raise_in_src_is_listed_with_its_reason():
    found = Counter(
        (path.stem, function)
        for path in sorted(_SRC.glob("*.py"))
        for function in _untyped_raises(ast.parse(path.read_text(encoding="utf-8")))
    )
    listed = Counter((module, function) for module, function, _ in UNTYPED_RAISES)
    assert found == listed, (
        f"unlisted: {sorted((found - listed).elements())}; "
        f"listed but gone: {sorted((listed - found).elements())}"
    )
    assert all(reason.strip() and "\n" not in reason for _, _, reason in UNTYPED_RAISES)
