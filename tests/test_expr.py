"""Expression mini-language: grammar, errors, and exact forward-mode partials."""

import numpy as np
import pytest

from pss.expr import (
    ArityMismatch,
    DomainError,
    ExprError,
    SyntaxErrorAt,
    UnknownIdentifier,
    parse_expression,
)


def test_parse_and_evaluate_hand_value():
    # 1*(-2)^2 = 4
    e = parse_expression("z0*(z1-z0)^2", ["z0", "z1"])
    assert e({"z0": 1.0, "z1": -1.0}) == 4.0


def test_constant_zero_tree():
    e = parse_expression("0", ["z0"])
    assert e({"z0": 123.0}) == 0.0
    assert e.free == frozenset()


def test_syntax_error_offset():
    with pytest.raises(SyntaxErrorAt) as err:
        parse_expression("z0 +", ["z0"])
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_expression("z0 + q1", ["z0"])


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_expression("sin(z0, z1)", ["z0", "z1"])


def test_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse_expression("sinh(z0)", ["z0"])


def test_reserved_variable_name_rejected():
    with pytest.raises(ExprError):
        parse_expression("sin + 1", ["sin"])


def test_precedence_power_tighter_than_unary_minus():
    e = parse_expression("-z0^2", ["z0"])
    assert e({"z0": 3.0}) == -9.0


def test_precedence_mul_over_add():
    e = parse_expression("1 + 2*z0^2", ["z0"])
    assert e({"z0": 2.0}) == 9.0


def test_integer_exponent_required():
    with pytest.raises(SyntaxErrorAt):
        parse_expression("z0^1.5", ["z0"])


def test_negative_exponent():
    e = parse_expression("z0^-2", ["z0"])
    assert e({"z0": 2.0}) == 0.25
    with pytest.raises(DomainError):
        e({"z0": 0.0})


def test_empty_and_bad_vars():
    with pytest.raises(SyntaxErrorAt):
        parse_expression("", ["z0"])
    with pytest.raises(ExprError):
        parse_expression("1", [])
    with pytest.raises(ExprError):
        parse_expression("1", ["z0", "z0"])
    with pytest.raises(ExprError):
        parse_expression("1", ["Z0"])


def test_division_by_zero_is_hard_error():
    e = parse_expression("1/(z0 - 1)", ["z0"])
    with pytest.raises(DomainError) as err:
        e({"z0": 1.0})
    assert "division" in str(err.value)


def test_sqrt_of_negative_is_hard_error():
    e = parse_expression("sqrt(z0)", ["z0"])
    with pytest.raises(DomainError):
        e({"z0": -0.5})
    assert e({"z0": 4.0}) == 2.0
    assert e({"z0": 0.0}) == 0.0  # a plain float at 0 is valid; a derivative there is not
    with pytest.raises(DomainError):
        e.with_partials({"z0": 0.0})


def test_domain_checks_cover_arrays():
    e = parse_expression("1/z0", ["z0"])
    with pytest.raises(DomainError):
        e({"z0": np.array([1.0, 0.0, 2.0])})


def test_monomial_partial():
    e = parse_expression("z0^2", ["z0"])
    v, parts = e.with_partials({"z0": 3.0})
    assert v == 9.0 and parts["z0"] == 6.0


def test_exp_partial_at_zero():
    e = parse_expression("exp(z1)", ["z1"])
    v, parts = e.with_partials({"z1": 0.0})
    assert v == 1.0 and parts["z1"] == 1.0


def test_partials_cover_exactly_declared_variables():
    e = parse_expression("z0 + 1", ["z0", "z1"])
    _, parts = e.with_partials({"z0": 1.0, "z1": 2.0})
    assert set(parts) == {"z0", "z1"}
    assert parts["z1"] == 0.0


def _central(fn, env, name, step=1e-5):
    lo = dict(env, **{name: env[name] - step})
    hi = dict(env, **{name: env[name] + step})
    return (fn(hi) - fn(lo)) / (2 * step)


@pytest.mark.parametrize(
    "src,names",
    [
        ("sin(z0)*z2", ["z0", "z1", "z2"]),
        ("exp(z0*z1) - tan(z1/3)", ["z0", "z1"]),
        ("sqrt(1 + z0^2)*arctan(z1)", ["z0", "z1"]),
        ("z0*(z1-z0)^2/(2 + cos(z2))", ["z0", "z1", "z2"]),
    ],
)
def test_partials_match_central_differences(src, names):
    e = parse_expression(src, names)
    rng = np.random.default_rng(42)
    for _ in range(250):
        env = {nm: rng.uniform(-1, 1) for nm in names}
        _, parts = e.with_partials(env)
        for nm in names:
            fd = _central(e, env, nm)
            assert abs(parts[nm] - fd) <= 1e-6 * max(1e-3, abs(fd)) + 1e-9


def test_evaluation_is_vectorized():
    e = parse_expression("z0^2 + sin(z1)", ["z0", "z1"])
    z0 = np.linspace(0, 1, 7)
    z1 = np.linspace(-1, 1, 7)
    out = e({"z0": z0, "z1": z1})
    assert np.allclose(out, z0**2 + np.sin(z1))


def test_offsets_are_byte_offsets():
    # a two-byte character before the bad token shifts the byte offset
    with pytest.raises(SyntaxErrorAt) as err:
        parse_expression("z0 + é", ["z0"])
    assert err.value.offset == 5  # "z0 + " is five bytes; the bad char starts there
    with pytest.raises(SyntaxErrorAt) as err2:
        parse_expression("(é)", ["z0"])
    assert err2.value.offset == 1
