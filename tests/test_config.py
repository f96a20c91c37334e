import math

import pytest

from nsmaxwell.config import ConfigError, RunConfig, parse_config


def test_defaults_from_empty_text():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.d == 2 and cfg.n == 64
    assert cfg.scheme == "exp-trapezoid"
    assert cfg.epsilons == (0.01, 0.1, 1.0)


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a comment
        n = 32   # trailing comment

        T = 2.5
        """
    )
    assert cfg.n == 32 and cfg.T == 2.5


def test_list_parsing():
    cfg = parse_config(
        "epsilons = 0.1, 0.5\n"
        "estimates = est1-2D, est4-2D\n"
        "norms = v_l2, B_l2log\n"
    )
    assert cfg.epsilons == (0.1, 0.5)
    assert cfg.estimates == ("est1-2D", "est4-2D")
    assert cfg.norms == ("v_l2", "B_l2log")


def test_all_errors_reported_with_line_numbers():
    text = "\n".join(
        [
            "d = 5",             # line 1: invalid dimension
            "n = 33",            # line 2: not a power of two
            "dt = oops",         # line 3: parse failure
            "bogus_key = 1",     # line 4: unknown key
            "no equals here",    # line 5: malformed
            "n = 64",            # line 6: duplicate
            "init = nonsense",   # line 7: unknown preset
        ]
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) == 7
    assert any(e.startswith("line 1:") and "dimension" in e for e in errors)
    assert any(e.startswith("line 2:") and "power of two" in e for e in errors)
    assert any(e.startswith("line 3:") and "cannot parse" in e for e in errors)
    assert any(e.startswith("line 4:") and "unknown key" in e for e in errors)
    assert any(e.startswith("line 5:") and "key = value" in e for e in errors)
    assert any(e.startswith("line 6:") and "duplicate" in e for e in errors)
    assert any(e.startswith("line 7:") and "preset" in e for e in errors)


def test_constraint_validation():
    with pytest.raises(ConfigError) as exc:
        parse_config("T = 0.005\ndt = 0.01\n")
    assert any("exceeds T" in e for e in exc.value.errors)
    with pytest.raises(ConfigError):
        parse_config("box_length = -1\n")
    with pytest.raises(ConfigError):
        parse_config("stride = 0\n")
    with pytest.raises(ConfigError):
        parse_config("seed = -3\n")
    with pytest.raises(ConfigError):
        parse_config("scheme = rk4\n")
    with pytest.raises(ConfigError):
        parse_config("epsilons = 0.1, -0.2\n")
    with pytest.raises(ConfigError):
        parse_config("estimates = est9-5D\n")
    with pytest.raises(ConfigError):
        parse_config("norms = v_l3\n")


@pytest.mark.parametrize("text", [
    "T = nan\n", "dt = nan\n", "T = inf\n", "amplitude = nan\n", "amplitude = inf\n",
    "slope = nan\n", "box_length = inf\n", "delta_target = -inf\n",
    "epsilons = 0.1, nan\n", "epsilons = inf\n",
])
def test_non_finite_floats_rejected(text):
    # Every range check is a comparison that NaN passes: non-finite values
    # are refused where they are parsed, each with one error.
    key = text.split("=")[0].strip()
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith(f"line 1: {key}: cannot parse")
    assert "finite" in exc.value.errors[0]


@pytest.mark.parametrize("text, messages", [
    ("estimates =\n", ["line 1: estimates: must not be empty"]),
    ("epsilons =\n", ["line 1: epsilons: must not be empty"]),
    ("epsilons = 0.1, 0.5, 0.10\n", ["line 1: epsilons: repeated entry 0.1"]),
    ("estimates = est4-2D, est1-2D, est4-2D\n", ["line 1: estimates: repeated entry 'est4-2D'"]),
    ("norms = v_l2, B_l2, v_l2, v_l2\n", ["line 1: norms: repeated entry 'v_l2'"]),
    ("norms = B_l2, v_l2, B_l2, v_l2\n", ["line 1: norms: repeated entry 'B_l2'",
                                          "line 1: norms: repeated entry 'v_l2'"]),
], ids=["empty_estimates", "empty_epsilons", "repeated_epsilon", "repeated_estimate",
        "repeated_norm", "two_repeated_norms"])
def test_empty_or_repeated_list_rejected(text, messages):
    # One error per problem, however often an entry repeats.
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == messages


def test_file_preset_requires_path():
    with pytest.raises(ConfigError) as exc:
        parse_config("init = file\n")
    assert any("init_file" in e for e in exc.value.errors)
    cfg = parse_config("init = file\ninit_file = /tmp/x\n")
    assert cfg.init_file == "/tmp/x"


def test_box_length_default_is_two_pi():
    assert abs(parse_config("").box_length - 2.0 * math.pi) < 1e-15
