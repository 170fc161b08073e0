from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_runs(capsys):
    exec(compile(quickstart_block(), f"{README}:quickstart", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "(2, 4)"
    assert printed[1] == "[(4,), (8,), (12,)]"
