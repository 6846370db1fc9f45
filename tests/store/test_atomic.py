"""Atomic-write helper contract: atomicity plus umask-honoring modes.

``tempfile.mkstemp`` creates files 0600 regardless of umask; the repo's
durable artifacts (store entries, the store's version marker) are
*published* files that must carry the permissions a plain
``open(path, "w")`` would produce.  These tests pin that, including the
resume-from-a-shared-directory regression the helper was introduced to
fix.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.store.atomic import atomic_write_bytes, atomic_write_text, current_umask


@pytest.fixture
def restore_umask():
    before = os.umask(0o022)
    os.umask(before)
    yield
    os.umask(before)


def _mode(path: str) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_writes_bytes(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write_bytes(str(path), b"\x00\x01payload")
    assert path.read_bytes() == b"\x00\x01payload"


def test_writes_text_utf8(tmp_path):
    path = tmp_path / "note.txt"
    atomic_write_text(str(path), "héllo\n")
    assert path.read_text(encoding="utf-8") == "héllo\n"


def test_overwrites_existing_file(tmp_path):
    path = tmp_path / "target"
    path.write_text("old")
    atomic_write_text(str(path), "new")
    assert path.read_text() == "new"


def test_no_tmp_files_left_behind(tmp_path):
    atomic_write_text(str(tmp_path / "a"), "x")
    atomic_write_text(str(tmp_path / "a"), "y")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


def test_failure_leaves_target_and_no_droppings(tmp_path):
    path = tmp_path / "target"
    path.write_text("original")
    with pytest.raises(TypeError):
        atomic_write_bytes(str(path), "not-bytes")  # type: ignore[arg-type]
    assert path.read_text() == "original"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


def test_current_umask_reads_without_changing(restore_umask):
    os.umask(0o027)
    assert current_umask() == 0o027
    assert current_umask() == 0o027  # idempotent: set-and-restore


@pytest.mark.parametrize("umask,expected", [(0o022, 0o644), (0o077, 0o600),
                                            (0o002, 0o664)])
def test_mode_honors_umask(tmp_path, restore_umask, umask, expected):
    os.umask(umask)
    path = tmp_path / "published"
    atomic_write_text(str(path), "data")
    assert _mode(str(path)) == expected


def test_config_entries_honor_umask(tmp_path, restore_umask):
    """Regression: resume state used to be written with a raw mkstemp
    and came out 0600 under any umask — unreadable by a teammate
    resuming the sweep from a shared directory.  The engine's
    per-configuration entries must be world-readable under 022."""
    from repro.apps import CoulombicPotential
    from repro.store import CONFIG_TIER, ResultStore

    os.umask(0o022)
    app = CoulombicPotential().test_instance()
    store = ResultStore(str(tmp_path / "store"))
    configs = app.space().configurations()[:2]
    with app.search_engine(store=store) as engine:
        engine.seconds_for(configs)
    entries = [
        os.path.join(folder, name)
        for folder, _dirs, names in os.walk(tmp_path / "store" / CONFIG_TIER)
        for name in names
    ]
    assert len(entries) == len(configs)
    assert {_mode(path) for path in entries} == {0o644}
