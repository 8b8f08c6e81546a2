"""Expression mini-language: grammar, errors, and exact forward-mode partials."""

import random
import tracemalloc

import numpy as np
import pytest

from pss import dual
from pss.catalog import Branch, FamilyParams, build_family, novikov_preset
from pss.expr import (
    FUNCTIONS,
    ArityMismatch,
    Bin,
    Call,
    DomainError,
    Expression,
    ExprError,
    Neg,
    Num,
    Pow,
    SyntaxErrorAt,
    UnknownIdentifier,
    Var,
    _all_finite,
    _any_negative,
    _any_zero,
    parse_expression,
)
from pss.pde import Grid1D, solve_mol
from references import dense_seed, tower, tower_seed, tower_value_grad


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
    assert e({"z0": 1.0}) == 2.0  # the value reads only the free variables


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


# ----------------------------------------------------------------------
# Compiled programs against the closure evaluator and the dual tower


def _compile(node):
    """The reference evaluator: closures that walk the tree, env -> value."""
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        nm = node.name
        return lambda env: env[nm]
    if isinstance(node, Neg):
        f = _compile(node.arg)
        return lambda env: -f(env)
    if isinstance(node, Bin):
        lf, rf = _compile(node.left), _compile(node.right)
        off = node.offset
        if node.op == "+":
            return lambda env: lf(env) + rf(env)
        if node.op == "-":
            return lambda env: lf(env) - rf(env)
        if node.op == "*":
            return lambda env: lf(env) * rf(env)

        def div(env):
            den = rf(env)
            if _any_zero(den):
                raise DomainError("division by zero", off)
            return lf(env) / den

        return div
    if isinstance(node, Pow):
        bf = _compile(node.base)
        k, off = node.exponent, node.offset

        def power(env):
            base = bf(env)
            if k < 0 and _any_zero(base):
                raise DomainError("zero raised to a negative power", off)
            try:
                return base**k
            except OverflowError:  # a Python float power, as the programs raise it
                raise DomainError("power overflows", off) from None

        return power
    if isinstance(node, Call):
        af = _compile(node.arg)
        fn = FUNCTIONS[node.fn]
        off = node.offset
        if node.fn == "sqrt":

            def fsqrt(env):
                arg = af(env)
                if _any_negative(arg):
                    raise DomainError("sqrt of a negative value", off)
                if isinstance(arg, (dual.Dual, dual.Taylor)) and _any_zero(arg):
                    raise DomainError("sqrt at zero has no derivative", off)
                return fn(arg)

            return fsqrt
        if node.fn == "tan":

            def ftan(env):
                out = fn(af(env))
                if not _all_finite(out):
                    raise DomainError("tan at a pole", off)
                return out

            return ftan
        return lambda env: fn(af(env))
    raise TypeError(f"unhandled node {node!r}")


def _tower_partials(expr, env):
    """The former with_partials body through the nestable reference dual:
    lift dual inputs to level-1 ``TowerDual``s, seed the declared variables
    one level above them and evaluate the closures."""
    names = expr.variables
    vals = {nm: tower(env[nm]) for nm in names}
    lvl, seeded = tower_seed(vals, names)
    value, grads = tower_value_grad(_compile(expr.root)(seeded), lvl, len(names))
    return value, dict(zip(names, grads))


def _bits(x):
    """Type and exact bytes of a float, array, (nested) Dual or Taylor."""
    if isinstance(x, dual.Dual):
        return ("Dual", _bits(x.val), tuple(_bits(g) for g in x.grad))
    if isinstance(x, dual.Taylor):
        return ("Taylor", tuple(_bits(c) for c in x.c))
    a = np.asarray(x)
    return (type(x).__name__, a.dtype.str, a.shape, a.tobytes())


def _outcome(fn, env):
    """fn(env), or the DomainError it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn(env)
        except DomainError as err:
            return err


def _assert_same_error(got, want, where):
    assert isinstance(got, DomainError), where
    assert (str(got), got.offset) == (str(want), want.offset), where


_TABLE_EXPRS = [
    "z0 + z1", "z0 - z1", "z0 * z1", "z0 / z1", "-z0", "-(z0 - z1)",
    "z0^0", "z1^1", "z0^3", "z0^-2", "(z0*z1)^0 + z1^-2",
    "exp(z0)", "sin(z0)", "cos(z1)", "tan(z0)", "sqrt(z0)", "arctan(z1)",
    "2 + z0", "z0 + 2", "2 - z0", "z0 - 2", "3*z1", "z1*3", "3/z0", "z0/3",
    "2*3 - 1/4 + z0", "(1 - 4/2)^3*z1 - sin(0.5)", "cos(2)^-1/z0 + 2^-2",
    "1e999*z0", "z0 - 1e999", "1e999 - 1e999 + z1", "(1e999 - 1e999) + z0", "(1e999 - 1e999)*z0",
    "z0/1e999", "0*z0 + z0*0",
    "7", "sin(1)", "z0*(z1-z0)^2", "exp(z0)*z1", "sin(z0)+2*z0",
    "-(z0*z1)/(1+z0^2) + sqrt(z0*z0 + 1)*arctan(z1)", "tan(z0/2)/cos(z1) - exp(-z1)^2",
    "1/(z0 - z1)", "sqrt(z0)/(z1 - z1)", "tan(1e999*z0)", "sqrt(-1) + z0", "1/0 + z0",
    "0^-1*z1", "sqrt(0) + z0", "tan(1e999) + z1",
    "1e200^2 + z0", "z0^400*z1", "z0^1100*z1",
]


def _table_inputs():
    rng = np.random.default_rng(8)
    a0, a1 = rng.uniform(-2, 2, 256), rng.uniform(-2, 2, 256)
    p0, p1 = rng.uniform(0.5, 2, 256), rng.uniform(0.5, 2, 256)
    z0 = a0.copy()
    z0[17] = 0.0
    # NaNs of both signs show operand order.  Arrays only: CPython's
    # specialized float instructions may return either NaN operand of a
    # Python float sum, whichever code runs it.
    n0, n1 = a0.copy(), p1.copy()
    n0[[3, 5]] = np.nan, -np.nan
    n1[[3, 9]] = -np.nan, np.inf
    return [
        {"z0": 0.7, "z1": -1.3},
        {"z0": 0.0, "z1": 2.0},
        {"z0": -0.0, "z1": 0.0},
        {"z0": -2.0, "z1": 0.5},
        {"z0": p0, "z1": a1},
        {"z0": a0, "z1": a1},
        {"z0": z0, "z1": p1},
        {"z0": 1.25, "z1": a1},
        {"z0": 2.0, "z1": 3.0},
        {"z0": n0, "z1": n1},
        # level-1 duals with dense float unit grads, as a seeding of z0, z1, w
        # that writes its zeros: TowerDual reads no None partial
        {"z0": dual.Dual(p0, (1.0, 0.0, 0.0)), "z1": dual.Dual(a1, (0.0, 1.0, 0.0))},
        {"z0": dual.Dual(p0, (a1, 0.0)), "z1": dual.Dual(a1, (p1, a0))},
        {"z0": dual.Dual(z0, (a1,)), "z1": dual.Dual(p1, (a0,))},
    ]


def _taylor_inputs():
    """Series envs as exact sampling builds them: float, array and level-1
    dual coefficients; z0 is zero at one point of each."""
    rng = np.random.default_rng(9)
    a0, a1, p1 = rng.uniform(-2, 2, 64), rng.uniform(-2, 2, 64), rng.uniform(0.5, 2, 64)
    z0 = a0.copy()
    z0[11] = 0.0
    T = dual.Taylor
    return [
        {"z0": T([0.7, 1.0, 0.0, 0.0]), "z1": T([-1.3, 0.5, 0.25, 0.0])},
        {"z0": T([0.0, 1.0, 0.0, 0.0]), "z1": T([2.0, -0.5, 0.0, 0.125])},
        {"z0": T([z0, 1.0 + 0 * z0, a1, 0 * z0]), "z1": T([p1, a0, 0 * z0, a1])},
        {"z0": T([dual.Dual(z0, (a1,)), 1.0 + 0 * z0, 0 * z0, 0 * z0]),
         "z1": T([dual.Dual(p1, (1.0 + 0 * z0,)), a0, a1, 0 * z0])},
    ]


def _assert_value_program_equals_the_closures(src, inputs, bits=_bits):
    e = parse_expression(src, ["z0", "z1"])
    ref = _compile(e.root)
    for i, env in enumerate(inputs):
        want = _outcome(ref, env)
        got = _outcome(e, env)
        if isinstance(want, DomainError):
            _assert_same_error(got, want, (src, i))
        else:
            assert not isinstance(got, DomainError), (src, i, got)
            assert bits(got) == bits(want), (src, i)


def _assert_partials_equal_the_tower(src, inputs, bits=_bits):
    e = parse_expression(src, ["z0", "z1"])
    for i, env in enumerate(inputs):
        want = _outcome(lambda env: _tower_partials(e, env), env)
        got = _outcome(e.with_partials, env)
        if isinstance(want, DomainError):
            _assert_same_error(got, want, (src, i))
            continue
        assert not isinstance(got, DomainError), (src, i, got)
        assert bits(got[0]) == bits(want[0]), (src, i)
        assert list(got[1]) == list(want[1])
        for nm in e.variables:
            assert bits(got[1][nm]) == bits(want[1][nm]), (src, i, nm)


@pytest.mark.parametrize("src", _TABLE_EXPRS)
def test_value_program_equals_the_closures_bit_for_bit(src):
    _assert_value_program_equals_the_closures(src, _table_inputs() + _taylor_inputs())


def test_value_program_frees_its_temporaries():
    # the sine-Gordon kink over a 201x201 mesh, with the series env that
    # exact sampling builds; a temporary kept alive to the end of the
    # program raises the peak above the closures'
    x, t = np.meshgrid(np.linspace(-2.1, -0.2, 201), np.linspace(-2.1, -0.2, 201))
    zero = np.zeros_like(x)
    env = {"x": dual.Taylor([x, 1.0 + zero, zero, zero]),
           "t": dual.Taylor([dual.Dual(t + zero, (1.0 + zero,)), zero, zero, zero])}
    e = parse_expression("4*arctan(exp(0.5*x + t/0.5))", ["x", "t"])
    peaks = []
    for fn in (_compile(e.root), e):
        tracemalloc.start()
        try:
            fn(env)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


@pytest.mark.parametrize("src", _TABLE_EXPRS)
def test_compiled_partials_equal_the_dual_tower_bit_for_bit(src):
    _assert_partials_equal_the_tower(src, _table_inputs())


def test_compiled_partials_make_no_duals(monkeypatch):
    e = parse_expression("z0*(z1-z0)^2 + sin(z1)/z0", ["z0", "z1"])

    def no_seed(*args):
        raise AssertionError("dual.seed called")

    monkeypatch.setattr(dual, "seed", no_seed)
    v, parts = e.with_partials({"z0": np.full(4, 0.5), "z1": np.full(4, 2.0)})
    assert type(v) is np.ndarray and all(type(g) is np.ndarray for g in parts.values())
    with pytest.raises(KeyError):
        e.with_partials({"z0": 1.0})


@pytest.mark.parametrize("op", ["__add__", "__mul__", "__truediv__", "__neg__", "__pow__", "_apply"])
def test_the_partials_program_is_written_by_the_dual_operators(op, monkeypatch):
    # the arithmetic of the partials program has one definition, dual.Dual's:
    # its operators run while the program is built, and never when it runs
    src, names = "-(z0*z1)/(1 + z0^2) + exp(z1)", ["z0", "z1"]
    calls = []
    original = getattr(dual.Dual, op)

    def recording(self, *args):
        calls.append(op)
        return original(self, *args)

    monkeypatch.setattr(dual.Dual, op, recording)
    e = Expression(src, parse_expression(src, names).root, names)  # not the memoized one
    env = {"z0": np.full(3, 0.5), "z1": np.full(3, 2.0)}
    e.with_partials(env)
    assert calls
    calls.clear()
    e.with_partials(env)
    assert calls == []


@pytest.mark.parametrize("value", [dual.Dual(0.5, (1.0,)), dual.Taylor([0.5, 1.0])], ids=["dual", "taylor"])
def test_seed_refuses_a_dual_or_series_value(value):
    # a seeded key or a constant one: either would mix two sets of variables
    for env in ({"z0": value, "z1": 2.0}, {"z0": 0.5, "z1": value}):
        with pytest.raises(TypeError, match=r"^cannot seed over the \w+ value of 'z[01]': duals do not nest$"):
            dual.seed(env, ("z0",))
    assert dual.seed({"z0": 0.5, "z1": 2.0}, ("z0",))[0] == 1


def test_parse_is_memoized_per_source_and_variables():
    a = parse_expression("z0*z1 + 1", ["z0", "z1"])
    assert parse_expression("z0*z1 + 1", ("z0", "z1")) is a
    assert parse_expression("z0*z1 + 1", ["z1", "z0"]) is not a
    assert parse_expression("z0*z1 + 1", ["z1", "z0"]).variables == ("z1", "z0")
    with pytest.raises(SyntaxErrorAt):
        parse_expression("z0 +", ["z0"])


def test_novikov_partials_program_runs_no_product_by_one(monkeypatch):
    """The compiler writes no line for x * 1.0, 1.0 * x or x / 1.0: the
    partials program of novikov's phi12, whose seeds' units Dual's product
    rule multiplies by, computes 12 arrays."""
    from pss import expr

    texts, namespaces = [], []
    monkeypatch.setattr(expr, "compile", lambda text, *a: texts.append(text) or compile(text, *a), raising=False)
    monkeypatch.setattr(expr, "exec", lambda code, ns: namespaces.append(ns) or exec(code, ns), raising=False)
    src, names = novikov_preset().phi12_expr.src, ["z0", "z1"]
    Expression(src, parse_expression(src, names).root, names).with_partials({"z0": 0.5, "z1": 2.0})
    text, ns = texts[-1], namespaces[-1]  # the partials program, built last
    lines = [line.split(" = ")[1].split() for line in text.splitlines() if " = " in line and "env[" not in line]
    assert len(lines) == 12, text
    for a, op, b in (line for line in lines if len(line) == 3):
        assert not (op in "*/" and ns.get(b) == 1.0 or op == "*" and ns.get(a) == 1.0), (a, op, b)


def _t22_sin_exp():
    p = FamilyParams(branch=Branch.T22, mu2=0.3, eta2=1.0, sign=1)
    return build_family(p, f="sin(s)+2*s", phi12="exp(z0)*z1")


@pytest.mark.parametrize("make", [novikov_preset, _t22_sin_exp], ids=["novikov", "t22"])
def test_march_seeds_no_duals_and_equals_the_tower_march(make, monkeypatch):
    # data that cross zero and dt = 1e-2, so that a one-ulp change of G shows in the frames
    fam = make()
    grid = Grid1D(0.0, 2.0 * np.pi, 64)
    u0 = 0.6 * np.sin(grid.nodes()) + 0.2 * np.cos(3 * grid.nodes())
    seeds, towers = [], []
    seed = dual.seed

    def counting_seed(*args):
        seeds.append(args)
        return seed(*args)

    def counting_tower(*args):
        towers.append(args)
        return _tower_partials(*args)

    monkeypatch.setattr(dual, "seed", counting_seed)
    fast = solve_mol(fam, grid, u0, 0.1, 1e-2, n_save=11)
    assert fast.frames.shape == (11, 64) and seeds == []
    monkeypatch.setattr(Expression, "with_partials", counting_tower)
    ref = solve_mol(fam, grid, u0, 0.1, 1e-2, n_save=11)
    assert len(towers) == 4 * 10 * 2  # f and phi12 at each RK4 stage: the patch took
    assert fast.times.tobytes() == ref.times.tobytes()
    assert fast.frames.tobytes() == ref.frames.tobytes()


# ----------------------------------------------------------------------
# Random trees against the same references: the fuzz that licenses the
# compiler's folds (x * 1.0, 1.0 * x and x / 1.0 write no line) and keeps
# out those that are not exact (x ** 1, x + 0.0, 0.0 * x)

_FUZZ_LEAVES = ("z0", "z1") * 4 + ("0", "0.5", "1.0", "2", "1e200", "1e999")


def _random_source(rng, depth):
    """The source of a random tree of at most `depth` levels over z0, z1 and
    the literals: + - * /, unary minus, the integer powers -2..3 and the six
    functions, every operand parenthesized."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_FUZZ_LEAVES)
    kind = rng.choice(("bin", "bin", "bin", "neg", "pow", "call"))
    arg = _random_source(rng, depth - 1)
    if kind == "bin":
        return f"({arg} {rng.choice('+-*/')} {_random_source(rng, depth - 1)})"
    if kind == "neg":
        return f"-({arg})"
    if kind == "pow":
        return f"({arg})^{rng.randint(-2, 3)}"
    return f"{rng.choice(sorted(FUNCTIONS))}({arg})"


def _fuzz_sources(n=300, depth=4, seed=2024):
    rng = random.Random(seed)
    return [_random_source(rng, depth) for _ in range(n)]


def _bits_any_nan(x):
    """`_bits` with every NaN made the one quiet NaN.  Where two NaNs of
    Python floats meet, CPython's generic and specialized float instructions
    may return either operand (IEEE 754 leaves the choice open), and such a
    NaN can reach an array.  The table's NaN inputs check operand order."""
    if isinstance(x, dual.Dual):
        return ("Dual", _bits_any_nan(x.val), tuple(_bits_any_nan(g) for g in x.grad))
    if isinstance(x, dual.Taylor):
        return ("Taylor", tuple(_bits_any_nan(c) for c in x.c))
    a = np.asarray(x)
    return (type(x).__name__, a.dtype.str, a.shape, np.where(np.isnan(a), np.nan, a).tobytes())


def test_random_trees_equal_the_references_bit_for_bit():
    table, taylor = _table_inputs(), _taylor_inputs()
    for src in _fuzz_sources():
        _assert_value_program_equals_the_closures(src, table + taylor, _bits_any_nan)
        _assert_partials_equal_the_tower(src, table, _bits_any_nan)


def _assert_sparse_equals_dense(got, want, n, where):
    """`got` (over sparse seeds) has the value bits of `want` (over dense
    seeds) and its n partials wherever those are finite.  A dense structural
    zero is +-0.0, so the two may differ in the sign of a zero (== holds),
    and a 0.0 * inf term, NaN in the dense partial, is absent from the
    sparse one."""
    if isinstance(want, DomainError):
        _assert_same_error(got, want, where)
        return
    assert not isinstance(got, DomainError), (where, got)
    assert _bits_any_nan(dual.primal(got)) == _bits_any_nan(dual.primal(want)), where
    for g, d in zip(dual.value_grad(got, 1, n)[1], dual.value_grad(want, 1, n)[1]):
        with np.errstate(invalid="ignore"):
            assert np.all((g == d) | ~np.isfinite(d)), where


def test_random_trees_on_sparse_seeds_equal_dense_seeds():
    """Over ``dual.seed``'s duals, whose partials are None where a variable
    has no say, and over dense duals (a float 0.0 partial there): the value
    program seeded in z0 and z1, and the partials program over a seeding of
    z0, z1 and one more name, as ``jets.partials`` runs it, agree in the
    value bits of every output and in every finite dense partial."""
    names = ("z0", "z1")
    plain = [env for env in _table_inputs() if not any(isinstance(v, dual.Dual) for v in env.values())]
    assert len(plain) == 10
    for src in _fuzz_sources():
        e = parse_expression(src, names)
        for i, env in enumerate(plain):
            where = (src, i)
            sparse, dense = dual.seed(env, names)[1], dense_seed(env, names)[1]
            _assert_sparse_equals_dense(_outcome(e, sparse), _outcome(e, dense), 2, where)
            three = ({**env, "w": env["z0"]}, ("z0", "z1", "w"))
            got, want = (_outcome(e.with_partials, {nm: seeded[nm] for nm in names})
                         for seeded in (dual.seed(*three)[1], dense_seed(*three)[1]))
            if isinstance(want, DomainError):
                _assert_same_error(got, want, where)
                continue
            assert not isinstance(got, DomainError), (where, got)
            for g, d in zip((got[0], *got[1].values()), (want[0], *want[1].values())):
                _assert_sparse_equals_dense(g, d, 3, where)
