"""docs/TUNING.md must stay in sync with the code, and so must the rule.

Two tables, two contracts:

* *process-wide settings* (``| env | field | type | default | when |``):
  every ``REPRO_*`` environment variable the config module reads appears
  in the *env* column, every ``ReproConfig`` field in the *field* column,
  and each backticked default equals the field's actual default;
* *constructor arguments* (``| class | keyword | default | set through |
  when |``): each backticked default equals the default
  ``inspect.signature`` reports for that keyword, and every
  ``QueryService`` keyword is documented in one table or the other.

The rule that keeps the first table short — an environment variable
stays only while something sets it — is checked here too.
"""

import dataclasses
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from repro.config import ReproConfig
from repro.service import QueryService

REPO_ROOT = Path(__file__).resolve().parents[2]
TUNING = REPO_ROOT / "docs" / "TUNING.md"
CONFIG = REPO_ROOT / "src" / "repro" / "config.py"

#: Where an environment variable's witness may live: a test, a benchmark
#: or a CI job has to *set* it.
WITNESS_DIRS = ("tests", "benchmarks", ".github/workflows")
#: Deployment settings (a path, a port) stay without a witness.
DEPLOYMENT_ENV = {"REPRO_OBS_CAPTURE", "REPRO_OBS_HTTP_PORT"}
#: Read outside ``config.py`` (``benchmarks/_smoke.py``).
BENCH_ENV = {"REPRO_BENCH_SMOKE"}

ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _skip_unless_checkout():
    if not TUNING.is_file() or not CONFIG.is_file():
        pytest.skip("docs only present in a repository checkout")


def _read_by_config() -> set[str]:
    names = set(re.findall(r'"(REPRO_[A-Z0-9_]+)"', CONFIG.read_text("utf-8")))
    assert names, "config.py should read REPRO_* variables"
    return names


def _table_rows(first_header: str):
    """Body rows of the five-column table whose header starts with
    ``first_header`` (``env`` or ``class``)."""
    rows, inside = [], False
    for line in TUNING.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            inside = False
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] in ("env", "class"):
            inside = cells[0] == first_header
            continue
        if not inside or len(cells) != 5 or set(cells[0]) <= {"-", " "}:
            continue
        rows.append(cells)
    assert rows, f"docs/TUNING.md has no `{first_header}` table"
    return rows


def _backticked(cell):
    match = re.match(r"^`([^`]+)`", cell)
    return match.group(1) if match else None


def test_every_env_knob_is_documented():
    _skip_unless_checkout()
    documented = {
        _backticked(row[0]) for row in _table_rows("env") if row[0] != "—"
    }
    missing = _read_by_config() - documented
    assert not missing, f"env knobs missing from docs/TUNING.md: {sorted(missing)}"


def test_every_config_field_is_documented():
    _skip_unless_checkout()
    fields = {f.name for f in dataclasses.fields(ReproConfig)}
    documented = {
        _backticked(row[1]) for row in _table_rows("env") if row[1] != "—"
    }
    missing = fields - documented
    assert not missing, f"config fields missing from docs/TUNING.md: {sorted(missing)}"
    unknown = documented - fields
    assert not unknown, f"docs/TUNING.md documents unknown fields: {sorted(unknown)}"


def test_documented_defaults_match_config():
    _skip_unless_checkout()
    defaults = ReproConfig()
    for row in _table_rows("env"):
        field = _backticked(row[1]) if row[1] != "—" else None
        if field is None:
            continue
        documented = _backticked(row[3])
        assert documented is not None, f"{field}: default not backticked"
        actual = repr(getattr(defaults, field))
        assert documented == actual, (
            f"{field}: docs/TUNING.md says default `{documented}`, "
            f"config.py says `{actual}`"
        )


def test_documented_defaults_match_signatures():
    """A constructor-argument row cannot drift from the literal in the
    signature it names."""
    _skip_unless_checkout()
    for path, keyword, default, _, _ in _table_rows("class"):
        path, keyword = _backticked(path), _backticked(keyword)
        params = inspect.signature(pkgutil.resolve_name(f"repro.{path}")).parameters
        assert keyword in params, f"{path} takes no `{keyword}`"
        actual = repr(params[keyword].default)
        assert _backticked(default) == actual, (
            f"{path}({keyword}=): docs/TUNING.md says default {default}, "
            f"the signature says `{actual}`"
        )


def test_every_service_keyword_is_documented():
    """Each ``QueryService`` keyword has a row: forwarded ones in the
    *set through* column, config-backed ones in the settings table."""
    _skip_unless_checkout()
    forwarded = {
        _backticked(row[3]) for row in _table_rows("class") if row[3] != "—"
    }
    settings_text = " ".join(row[4] for row in _table_rows("env"))
    keywords = set(inspect.signature(QueryService).parameters)
    keywords -= {"engine", "coalesce"}  # the fronted engine; an on/off path
    unknown = forwarded - keywords
    assert not unknown, f"docs/TUNING.md forwards unknown keywords: {sorted(unknown)}"
    missing = {
        k
        for k in keywords - forwarded
        if f"QueryService({k}=)" not in settings_text
    }
    assert not missing, f"QueryService keywords without a row: {sorted(missing)}"


def test_every_env_knob_has_a_witness():
    """No witness, no knob: a ``REPRO_*`` variable ``config.py`` reads is
    set by a test, a benchmark or a CI job — or it is one of the two
    deployment settings."""
    _skip_unless_checkout()
    this_file = Path(__file__).resolve()
    witnessed: set[str] = set()
    for directory in WITNESS_DIRS:
        for path in (REPO_ROOT / directory).rglob("*"):
            if path.suffix in (".py", ".yml", ".yaml") and path != this_file:
                witnessed.update(ENV_NAME.findall(path.read_text("utf-8")))
    orphans = _read_by_config() - witnessed - DEPLOYMENT_ENV
    assert not orphans, (
        f"config.py reads {sorted(orphans)}, which no test, benchmark or "
        "CI job sets: make each a constructor argument or add its witness"
    )


def test_no_stale_env_names():
    """Nothing the docs or docstrings call a knob is a name nobody reads."""
    _skip_unless_checkout()
    read = _read_by_config() | BENCH_ENV
    files = [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
    files += (REPO_ROOT / "src").rglob("*.py")
    stale = {}
    for path in files:
        for name in ENV_NAME.findall(path.read_text(encoding="utf-8")):
            # ``REPRO_FAULT_*`` names a family: some read name must be in it.
            known = (
                any(r.startswith(name) for r in read)
                if name.endswith("_")
                else name in read
            )
            if not known:
                stale.setdefault(name, path.relative_to(REPO_ROOT).as_posix())
    assert not stale, f"names nothing reads: {stale}"
