"""Mixture tests: exact composition tracking."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.components import Container
from repro.machine.errors import CapacityError
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
