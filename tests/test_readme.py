"""README's "Library use" holds: its snippets run as written, so the example
cannot drift, and every name in a module's __all__ imports from gazefield."""

import re
import types
from pathlib import Path

import gazefield
from gazefield import cli, errors, foa, mass, optical_flow, potential, retina, save_pgm, synth

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippets():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_snippets_run(tmp_path, monkeypatch):
    first, second = library_snippets()
    frames = tmp_path / "frames"
    frames.mkdir()
    clip = synth.moving_blob_frames(16, 16, 4, (5.0, 8.0), (6.0, 0.0), 1.0 / 30.0)
    for k, f in enumerate(clip):
        (frames / f"frame_{k:04d}.pgm").write_bytes(save_pgm(f))
    monkeypatch.chdir(tmp_path)

    namespace = {}
    exec(compile(first, str(README), "exec"), namespace)
    substeps = namespace["cfg"].substeps_per_frame
    assert len(namespace["path"]) == 1 + 600 * substeps
    exec(compile(second, str(README), "exec"), namespace)
    assert len(namespace["path"]) == 1 + 3 * substeps


def test_package_names_are_the_modules_all_lists():
    public = {name for name, v in vars(gazefield).items()
              if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    declared = {name for module in (errors, retina, optical_flow, mass, potential, foa)
                for name in module.__all__}
    assert public == declared
    assert {"hs_jacobi_step", "FlowField"} <= public
    assert not hasattr(gazefield, "__all__")  # each name is declared once, in its module


def config_table():
    # (key, default) of each row of the table under "### Configuration file"
    section = README.read_text(encoding="utf-8").split("\n### Configuration file\n", 1)[1]
    table = section.split("\n| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    return [tuple(cell.strip() for cell in row.strip("|").split("|")[:2]) for row in rows]


def test_config_table_defaults_are_the_dataclass_defaults():
    # "Each default below is the default of the matching dataclass field": a float
    # agrees to the digits printed, so 0.0333333333 is 1/30
    rows = config_table()
    assert [key for key, _ in rows] == list(cli._CONFIG_KEYS)
    defaults = cli.parse_config("")
    for key, printed in rows:
        owner, name, kind = cli._CONFIG_KEYS[key]
        want, got = (getattr(c if owner is None else getattr(c, owner), name)
                     for c in (defaults, cli.parse_config(f"{key} = {printed}")))
        if kind is float:
            digits = len(printed.split("e")[0].replace(".", "").lstrip("0")) or 1
            want = float(f"{want:.{digits}g}")
        assert got == want, key
