"""tools/lint_builders.py: the library's single points of assembly."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _lint():
    path = os.path.join(ROOT, "tools", "lint_builders.py")
    spec = importlib.util.spec_from_file_location("lint_builders", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_source_passes(capsys):
    assert _lint().main(["lint_builders", os.path.join(ROOT, "src")]) == 0
    assert "lint_builders: ok" in capsys.readouterr().out


def test_stray_front_state_is_flagged(tmp_path, capsys):
    package = tmp_path / "repro" / "protocols"
    package.mkdir(parents=True)
    (package / "base.py").write_text("blacklist = ClientBlacklist()\n")
    (package / "mine.py").write_text(
        "from repro.common.executed import ExecutedIds\n"
        "\n"
        "executed_ids = ExecutedIds()\n"
    )
    assert _lint().main(["lint_builders", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    stray = os.path.join("repro", "protocols", "mine.py")
    assert "%s:3: ExecutedIds constructed outside ReplicaFront" % stray in out
    assert "base.py" not in out
