import pytest

from coupledrec.config import ConfigError, SCHEMA_VERSION, load_config, parse_config


GOOD = """
# reconstruction run
schema = 1
grid.dims = 32 32   # trailing comment
channel.1.kind = kl
channel.1.lambda = 2.5
solver.max_iters = 800
solver.verbose = off
rates.mu = 1.0 2.0
"""


def test_parse_basics():
    cfg = parse_config(GOOD)
    assert cfg.get_ints("grid.dims") == (32, 32)
    assert cfg.get_str("channel.1.kind") == "kl"
    assert cfg.get_float("channel.1.lambda") == 2.5
    assert cfg.get_int("solver.max_iters") == 800
    assert cfg.get_floats("rates.mu") == (1.0, 2.0)


def test_defaults_and_required():
    cfg = parse_config("schema = 1")
    assert cfg.get_int("solver.max_iters", 500) == 500
    assert cfg.get_str("reg.kind", "tgv") == "tgv"
    with pytest.raises(ConfigError, match="missing required key"):
        cfg.get_float("channel.1.lambda")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("schema = 1\na = 1\na = 2\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("schema = 1\n\nthis is not a binding\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_typed_accessor_errors_carry_source_line():
    cfg = parse_config("schema = 1\nsolver.max_iters = soon\n")
    with pytest.raises(ConfigError) as exc:
        cfg.get_int("solver.max_iters")
    assert exc.value.line == 2
    with pytest.raises(ConfigError, match="not a list of numbers"):
        parse_config("schema = 1\nx = 1.0 two").get_floats("x")


def test_schema_version_checked():
    assert parse_config("").get_int("schema", SCHEMA_VERSION) == SCHEMA_VERSION
    with pytest.raises(ConfigError, match="unsupported schema version"):
        parse_config("schema = 99")


def test_dump_is_sorted_and_reparseable():
    cfg = parse_config(GOOD)
    echoed = parse_config(cfg.dump())
    assert echoed.values == cfg.values
    keys = [line.split(" = ")[0] for line in cfg.dump().splitlines()]
    assert keys == sorted(keys)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")
    p = tmp_path / "run.cfg"
    p.write_text("schema = 1\na = 4\n")
    assert load_config(p).get_int("a") == 4


def test_choice_accessor_checks_the_value_against_its_choices():
    cfg = parse_config("schema = 1\nregularizer.kind = tgv2\nchannel.1.kind = l1\n")
    kinds = ("tgv2", "wavelet", "quadratic")
    assert cfg.get_choice("regularizer.kind", kinds) == "tgv2"
    assert cfg.get_choice("regularizer.coupling", ("frobenius", "nuclear"), "nuclear") == "nuclear"
    with pytest.raises(ConfigError) as exc:
        cfg.get_choice("channel.1.kind", ("l2", "kl"), "l2")
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: channel.1.kind = 'l1' is not one of l2, kl"
    with pytest.raises(ConfigError, match="missing required key"):
        cfg.get_choice("rates.rule", ("two_norm",))


def test_config_records_the_keys_its_accessors_read():
    cfg = parse_config("schema = 1\nsolver.max_iter = 3\nchannels = 2\n")
    cfg.get_int("channels")
    cfg.get_int("solver.max_iters", 2000)
    assert cfg.values.keys() - cfg.read == {"solver.max_iter"}
    assert cfg == parse_config("schema = 1\nsolver.max_iter = 3\nchannels = 2\n")


def test_a_present_value_must_pass_the_rule_of_its_read():
    cfg = parse_config("schema = 1\nchannels = 0\n")
    at_least_one = (lambda n: n >= 1, "be >= 1")
    with pytest.raises(ConfigError) as exc:
        cfg.get_int("channels", must=at_least_one)
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: channels = 0 must be >= 1"
    # a default is the program's own value and is not checked
    assert cfg.get_float("rates.start", -1.0, must=at_least_one) == -1.0
