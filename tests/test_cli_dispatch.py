"""The command-line parser is built once per process, and each call runs the cmd_*
function that the module binds at that call, wrapped or not."""

import functools

import cardiomotion.cli as cli


def test_the_parser_is_built_once_and_each_call_runs_the_current_command(monkeypatch, tmp_path):
    real = cli.cmd_config_reference
    calls = []

    def wrap(tag):
        @functools.wraps(real)
        def wrapper(args):
            calls.append(tag)
            return real(args)
        return wrapper

    cli._parser.cache_clear()
    # the parser is built while the command is wrapped, then the wrapper goes
    monkeypatch.setattr(cli, "cmd_config_reference", wrap("first"))
    assert cli.main(["config-reference", "--out", str(tmp_path / "a.json")]) == 0
    monkeypatch.setattr(cli, "cmd_config_reference", real)
    assert cli.main(["config-reference", "--out", str(tmp_path / "b.json")]) == 0
    # a wrapper installed after the parser was built runs
    monkeypatch.setattr(cli, "cmd_config_reference", wrap("second"))
    assert cli.main(["config-reference", "--out", str(tmp_path / "c.json")]) == 0
    assert calls == ["first", "second"]
    assert cli._parser.cache_info().misses == 1
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()
