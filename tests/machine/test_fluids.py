"""Mixture tests: exact composition tracking."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.components import Container
from repro.machine.errors import CapacityError
from oracles.fluids import Mixture as OracleMixture
from repro.machine.fluids import Mixture


class TestConstruction:
    def test_pure(self):
        mixture = Mixture.pure("Glucose", 50)
        assert mixture.volume == 50
        assert mixture.concentration("Glucose") == 1

    def test_empty(self):
        assert Mixture.empty().is_empty
        assert Mixture.empty().volume == 0

    def test_zero_components_dropped(self):
        mixture = Mixture({"a": Fraction(0), "b": Fraction(5)})
        assert mixture.species() == ("b",)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Mixture({"a": Fraction(-1)})

    def test_negative_pure_rejected(self):
        with pytest.raises(ValueError, match="negative volume -1/2"):
            Mixture.pure("a", Fraction(-1, 2))
        with pytest.raises(ValueError):
            Mixture.pure("a", -1)

    def test_zero_pure_is_empty(self):
        mixture = Mixture.pure("a", 0)
        assert mixture.is_empty and mixture.components == {}


class TestMerge:
    def test_merge_adds_components(self):
        merged = Mixture.pure("a", 10).merge(Mixture.pure("b", 30))
        assert merged.volume == 40
        assert merged.concentration("a") == Fraction(1, 4)
        assert merged.concentration("b") == Fraction(3, 4)

    def test_merge_same_species(self):
        merged = Mixture.pure("a", 10).merge(Mixture.pure("a", 5))
        assert merged.amount("a") == 15

    def test_merge_does_not_mutate(self):
        left = Mixture.pure("a", 10)
        left.merge(Mixture.pure("b", 1))
        assert left.species() == ("a",)


class TestTake:
    def test_take_proportional(self):
        mixture = Mixture({"a": Fraction(30), "b": Fraction(10)})
        taken = mixture.take(20)
        assert taken.volume == 20
        assert taken.amount("a") == 15
        assert taken.amount("b") == 5
        assert mixture.volume == 20

    def test_take_all(self):
        mixture = Mixture.pure("a", 7)
        taken = mixture.take_all()
        assert taken.volume == 7
        assert mixture.is_empty

    def test_take_too_much_rejected(self):
        with pytest.raises(ValueError):
            Mixture.pure("a", 5).take(6)

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            Mixture.pure("a", 5).take(-1)

    def test_take_everything_keeps_no_zero_remainder(self):
        mixture = Mixture({"a": Fraction(1, 3), "b": Fraction(2, 7)})
        taken = mixture.take(Fraction(1, 3) + Fraction(2, 7))
        assert mixture.components == {} and mixture.volume == 0
        assert taken.components == {"a": Fraction(1, 3), "b": Fraction(2, 7)}

    def test_take_zero(self):
        mixture = Mixture.pure("a", 5)
        assert mixture.take(0).is_empty
        assert mixture.volume == 5

    def test_conservation_is_exact(self):
        mixture = Mixture({"a": Fraction(1, 3), "b": Fraction(2, 7)})
        total = mixture.volume
        taken = mixture.take(total / 3)
        assert taken.volume + mixture.volume == total

    def test_split(self):
        mixture = Mixture.pure("a", 10)
        first, second = mixture.split([2, 3])
        assert first.volume == 2 and second.volume == 3
        assert mixture.volume == 5


class TestTransforms:
    def test_scaled(self):
        mixture = Mixture({"a": Fraction(4), "b": Fraction(8)})
        half = mixture.scaled(Fraction(1, 2))
        assert half.amount("a") == 2
        assert mixture.amount("a") == 4  # original untouched

    def test_relabelled(self):
        mixture = Mixture({"a": Fraction(4), "b": Fraction(8)})
        product = mixture.relabelled("digest")
        assert product.volume == 12
        assert product.species() == ("digest",)

    def test_concentration_of_absent_species(self):
        assert Mixture.pure("a", 1).concentration("zz") == 0

    def test_concentration_of_empty(self):
        assert Mixture.empty().concentration("a") == 0

    def test_approx_equal(self):
        mixture = Mixture({"a": Fraction(1), "b": Fraction(2)})
        assert mixture.approx_equal({"a": 1, "b": 2})
        assert not mixture.approx_equal({"a": 1})
        assert mixture.approx_equal({"a": 1, "b": Fraction(21, 10)}, tolerance=Fraction(2, 10))


def summed_repr(mixture: Mixture) -> str:
    """The repr format, with the total summed from the components."""
    if not mixture.components:
        return "Mixture(empty)"
    parts = ", ".join(
        f"{species}={float(amount):.4g}"
        for species, amount in sorted(mixture.components.items())
    )
    total = sum(mixture.components.values(), Fraction(0))
    return f"Mixture({parts}; total={float(total):.4g} nl)"


species = st.sampled_from(["a", "b", "c", "d"])
amounts = st.fractions(min_value=0, max_value=50, max_denominator=60)
shares = st.fractions(min_value=0, max_value=1, max_denominator=30)
steps = st.one_of(
    st.tuples(st.just("pure"), species, amounts),
    st.tuples(st.just("merge"), species, amounts),
    st.tuples(st.just("take"), shares),
    st.tuples(st.just("split"), st.lists(shares, max_size=3)),
    st.tuples(st.just("take_all")),
    st.tuples(st.just("scaled"), st.fractions(0, 3, max_denominator=7)),
    st.tuples(st.just("relabelled"), species),
    st.tuples(st.just("deposit")),
    st.tuples(st.just("draw"), shares),
    st.tuples(st.just("discard")),
)


class TestKeptVolume:
    """The total kept on a mixture stays the exact sum of its components
    through every operation, every component stays strictly positive, and
    the total takes no part in ``==`` or ``repr``."""

    @staticmethod
    def check(mixture: Mixture) -> None:
        assert all(
            isinstance(v, Fraction) and v > 0
            for v in mixture.components.values()
        )
        assert mixture.volume == sum(mixture.components.values(), Fraction(0))
        assert Mixture(dict(mixture.components)) == mixture
        assert repr(mixture) == summed_repr(mixture)

    @given(st.lists(steps, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_every_step_keeps_the_sum(self, program):
        current = Mixture.pure("a", 10)
        container = Container("r1", Fraction(200))
        for step in program:
            op, *args = step
            portions: tuple[Mixture, ...] = ()
            if op == "pure":
                current = Mixture.pure(*args)
            elif op == "merge":
                current = current.merge(Mixture.pure(*args))
            elif op == "take":
                portions = (current.take(current.volume * args[0]),)
            elif op == "split":
                volumes, left = [], current.volume
                for share in args[0]:
                    volumes.append(left * share)
                    left -= volumes[-1]
                portions = current.split(volumes)
            elif op == "take_all":
                portions = (current.take_all(),)
            elif op == "scaled":
                current = current.scaled(args[0])
            elif op == "relabelled":
                current = current.relabelled(args[0])
            elif op == "deposit":
                try:
                    container.deposit(current)
                except CapacityError:
                    pass
            elif op == "draw":
                current = container.draw(container.volume * args[0])
            else:
                container.discard()
            for mixture in (current, container.contents, *portions):
                self.check(mixture)
            assert container.volume <= container.capacity


# ----------------------------------------------------------------------
# the integer mixture against the Fraction oracle
# ----------------------------------------------------------------------
LEAST = Fraction(1, 10)
SPECIES = ("a", "b", "c", "d", "e")

sizes = st.one_of(
    st.tuples(st.just("grid"), st.integers(1, 1200)),
    st.tuples(
        st.just("positive"),
        st.fractions(min_value=Fraction(1, 1000), max_value=120,
                     max_denominator=1000),
    ),
    st.tuples(st.just("total"), st.none()),
    st.tuples(st.just("zero"), st.sampled_from([0, Fraction(0)])),
    st.tuples(
        st.just("over"),
        st.fractions(min_value=Fraction(1, 97), max_value=5,
                     max_denominator=97),
    ),
    st.tuples(
        st.just("negative"),
        st.one_of(st.integers(-5, -1), st.sampled_from([Fraction(-1, 3)])),
    ),
)
oracle_amounts = st.one_of(
    st.fractions(min_value=0, max_value=100, max_denominator=60),
    st.integers(0, 100),
    st.sampled_from([Fraction(-1, 7), -2]),
)
oracle_steps = st.one_of(
    st.tuples(st.just("new"),
              st.dictionaries(st.sampled_from(SPECIES), oracle_amounts,
                              max_size=5)),
    st.tuples(st.just("pure"), st.sampled_from(SPECIES), oracle_amounts),
    st.tuples(st.just("merge"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("take"), st.integers(0, 7), sizes),
    st.tuples(st.just("take_all"), st.integers(0, 7)),
    st.tuples(st.just("split"), st.integers(0, 7),
              st.lists(sizes, max_size=3)),
    st.tuples(
        st.just("scaled"),
        st.integers(0, 7),
        st.one_of(st.fractions(0, 3, max_denominator=9),
                  st.sampled_from([Fraction(-1, 2)])),
    ),
    st.tuples(st.just("relabelled"), st.integers(0, 7),
              st.sampled_from(SPECIES)),
)


def size_of(size, total: Fraction):
    kind, value = size
    if kind == "grid":
        return value * LEAST
    if kind == "total":
        return total
    if kind == "over":
        return total + value
    return value


def outcome(call):
    """``call()``'s value, or its exception's type and message."""
    try:
        return "ok", call()
    except Exception as error:  # compared, never swallowed silently
        return "raised", (type(error), str(error))


class TestAgainstOracle:
    """Random operation sequences give the integer :class:`Mixture` the
    oracle's components (same order), volume, amounts and concentrations,
    and the same exception types and messages."""

    @staticmethod
    def same(real: Mixture, oracle: OracleMixture) -> None:
        assert list(real.components.items()) == list(oracle.components.items())
        assert all(type(v) is Fraction for v in real.components.values())
        assert real.volume == oracle.volume
        assert type(real.volume) is Fraction
        assert real.is_empty == oracle.is_empty
        assert real.species() == oracle.species()
        for name in SPECIES:
            assert real.amount(name) == oracle.amount(name)
            assert real.concentration(name) == oracle.concentration(name)
        assert repr(real) == repr(oracle)

    @given(st.lists(oracle_steps, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_every_operation_matches(self, program):
        pool = [(Mixture.pure("a", 10), OracleMixture.pure("a", 10))]
        for step in program:
            op, *args = step
            made: list[tuple] = []
            if op == "new":
                real = outcome(lambda: Mixture(dict(args[0])))
                expected = outcome(lambda: OracleMixture(dict(args[0])))
                assert real[0] == expected[0]
                if real[0] == "raised":
                    assert real == expected
                else:
                    made.append((real[1], expected[1]))
            elif op == "pure":
                real = outcome(lambda: Mixture.pure(*args))
                expected = outcome(lambda: OracleMixture.pure(*args))
                assert real[0] == expected[0]
                if real[0] == "raised":
                    assert real == expected
                else:
                    made.append((real[1], expected[1]))
            elif op in ("merge",):
                left = pool[args[0] % len(pool)]
                right = pool[args[1] % len(pool)]
                made.append((left[0].merge(right[0]), left[1].merge(right[1])))
            elif op in ("take", "split"):
                real_mix, oracle_mix = pool[args[0] % len(pool)]
                total = oracle_mix.volume
                if op == "take":
                    volume = size_of(args[1], total)
                    real = outcome(lambda: (real_mix.take(volume),))
                    expected = outcome(lambda: (oracle_mix.take(volume),))
                else:
                    volumes = [size_of(s, total) for s in args[1]]
                    real = outcome(lambda: real_mix.split(volumes))
                    expected = outcome(lambda: oracle_mix.split(volumes))
                assert real[0] == expected[0]
                if real[0] == "raised":
                    assert real == expected
                else:
                    made.extend(zip(real[1], expected[1]))
            elif op == "take_all":
                real_mix, oracle_mix = pool[args[0] % len(pool)]
                made.append((real_mix.take_all(), oracle_mix.take_all()))
            elif op == "scaled":
                real_mix, oracle_mix = pool[args[0] % len(pool)]
                real = outcome(lambda: real_mix.scaled(args[1]))
                expected = outcome(lambda: oracle_mix.scaled(args[1]))
                assert real[0] == expected[0]
                if real[0] == "raised":
                    assert real == expected
                else:
                    made.append((real[1], expected[1]))
            else:
                real_mix, oracle_mix = pool[args[0] % len(pool)]
                made.append(
                    (real_mix.relabelled(args[1]), oracle_mix.relabelled(args[1]))
                )
            pool.extend(made)
            del pool[:-8]
            for real_mix, oracle_mix in pool:
                self.same(real_mix, oracle_mix)
            assert [r == s for r, _ in pool for s, _ in pool] == [
                r == s for _, r in pool for _, s in pool
            ]

    @given(
        st.dictionaries(st.sampled_from(SPECIES), oracle_amounts.filter(
            lambda v: v >= 0), max_size=5),
        st.dictionaries(st.sampled_from(SPECIES), oracle_amounts.filter(
            lambda v: v >= 0), max_size=5),
        st.fractions(-10, 10, max_denominator=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_comparisons(self, first, second, offset):
        """``holds``, ``fits_with`` and ``room_in`` against the oracle's
        Fraction volumes, with the bound on, just over and just under the
        volume it is compared with."""
        real, other = Mixture(first), Mixture(second)
        volume = OracleMixture(first).volume
        both = volume + OracleMixture(second).volume
        assert real.holds(volume + offset) == (volume + offset <= volume)
        assert real.fits_with(other, both + offset) == (both <= both + offset)
        room = real.room_in(volume + offset)
        assert room == offset and type(room) is Fraction

    def test_off_grid_and_huge_denominators(self):
        real = Mixture({"a": Fraction(1, 3), "b": Fraction(2, 7), "c": 5})
        oracle = OracleMixture({"a": Fraction(1, 3), "b": Fraction(2, 7), "c": 5})
        for volume in (Fraction(1, 10), Fraction(1, 997), Fraction(3, 11)):
            self.same(real.take(volume), oracle.take(volume))
            self.same(real, oracle)
        real = real.merge(Mixture.pure("d", Fraction(10**30 + 1, 10**29)))
        oracle = oracle.merge(OracleMixture.pure("d", Fraction(10**30 + 1, 10**29)))
        self.same(real, oracle)
        self.same(real.take(real.volume / 7), oracle.take(oracle.volume / 7))
        self.same(real, oracle)
