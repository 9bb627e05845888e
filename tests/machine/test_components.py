"""Component tests: containers and functional units."""

from fractions import Fraction

import pytest

from repro.machine.components import (
    Container,
    Heater,
    Mixer,
    Reservoir,
    Sensor,
    Separator,
)
from repro.machine.errors import CapacityError, ComponentError, EmptyError
from repro.machine.fluids import Mixture
from repro.machine.separation import FractionalYield


class TestContainer:
    def test_deposit_and_draw(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.pure("a", 40))
        taken = container.draw(10)
        assert taken.volume == 10
        assert container.volume == 30
        assert container.free == 70

    def test_overflow_raises(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.pure("a", 90))
        with pytest.raises(CapacityError) as info:
            container.deposit(Mixture.pure("a", 20))
        assert info.value.component == "c"

    def test_overdraw_raises(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.pure("a", 5))
        with pytest.raises(EmptyError):
            container.draw(6)

    def test_drain(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.pure("a", 5))
        drained = container.drain()
        assert drained.volume == 5
        assert container.is_empty

    def test_discard(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.pure("a", 5))
        assert container.discard() == 5
        assert container.is_empty

    def test_empty_deposit_noop(self):
        container = Container("c", Fraction(100))
        container.deposit(Mixture.empty())
        assert container.is_empty


class TestMixer:
    def test_mix_counts(self):
        mixer = Mixer("mixer1", Fraction(100))
        mixer.deposit(Mixture.pure("a", 10))
        mixer.mix(10)
        mixer.mix(5)
        assert mixer.mix_count == 2
        assert mixer.total_mix_time == 15

    def test_mix_empty_rejected(self):
        with pytest.raises(ComponentError):
            Mixer("mixer1", Fraction(100)).mix(10)

    def test_mix_nonpositive_duration_rejected(self):
        mixer = Mixer("mixer1", Fraction(100))
        mixer.deposit(Mixture.pure("a", 10))
        with pytest.raises(ComponentError):
            mixer.mix(0)


class TestHeater:
    def test_incubate_records_log(self):
        heater = Heater("heater1", Fraction(100))
        heater.deposit(Mixture.pure("a", 10))
        heater.incubate(37, 300)
        assert heater.temperature == 37
        assert heater.incubation_log == [(37, 300)]
        assert heater.volume == 10  # flow conserving

    def test_concentrate_reduces_volume(self):
        heater = Heater("heater1", Fraction(100))
        heater.deposit(Mixture.pure("a", 40))
        lost = heater.concentrate(90, 60, Fraction(1, 4))
        assert heater.volume == 10
        assert lost == 30

    def test_concentrate_bad_fraction(self):
        heater = Heater("heater1", Fraction(100))
        heater.deposit(Mixture.pure("a", 40))
        with pytest.raises(ComponentError):
            heater.concentrate(90, 60, Fraction(3, 2))

    def test_incubate_empty_rejected(self):
        with pytest.raises(ComponentError):
            Heater("heater1", Fraction(100)).incubate(37, 10)


class TestSeparator:
    def make(self, fraction=Fraction(3, 10)):
        return Separator(
            "separator1",
            Fraction(100),
            modes=("AF",),
            model=FractionalYield(fraction),
        )

    def test_separate_splits_to_outlets(self):
        separator = self.make()
        separator.deposit(Mixture.pure("sample", 50))
        effluent, waste = separator.separate("AF", 30)
        assert effluent == 15
        assert waste == 35
        assert separator.out1.volume == 15
        assert separator.out2.volume == 35
        assert separator.is_empty

    def test_mode_check(self):
        separator = self.make()
        separator.deposit(Mixture.pure("sample", 50))
        with pytest.raises(ComponentError):
            separator.separate("LC", 30)

    def test_pusher_and_matrix_consumed(self):
        separator = self.make()
        separator.pusher.deposit(Mixture.pure("buffer", 20))
        separator.matrix.deposit(Mixture.pure("lectin", 30))
        separator.deposit(Mixture.pure("sample", 50))
        separator.separate("AF", 30)
        assert separator.pusher.is_empty
        assert separator.matrix.is_empty

    def test_sub_ports(self):
        separator = self.make()
        assert separator.sub("matrix") is separator.matrix
        assert separator.sub("out2") is separator.out2
        with pytest.raises(ComponentError):
            separator.sub("bogus")

    def test_empty_separation_rejected(self):
        with pytest.raises(ComponentError):
            self.make().separate("AF", 30)


class TestSensor:
    def test_reading_uses_coefficients(self):
        sensor = Sensor(
            "sensor2",
            Fraction(100),
            senses=("OD",),
            coefficients={"Glucose": Fraction(2)},
        )
        sensor.deposit(
            Mixture({"Glucose": Fraction(10), "Reagent": Fraction(30)})
        )
        reading = sensor.read("OD")
        assert reading == Fraction(1, 2)  # 2 * (10/40)
        assert sensor.readings == [reading]

    def test_reading_non_destructive(self):
        sensor = Sensor("sensor2", Fraction(100), coefficients={})
        sensor.deposit(Mixture.pure("a", 10))
        sensor.read("OD")
        assert sensor.volume == 10

    def test_mode_check(self):
        sensor = Sensor("sensor2", Fraction(100), senses=("OD",))
        sensor.deposit(Mixture.pure("a", 10))
        with pytest.raises(ComponentError):
            sensor.read("FL")

    def test_empty_read_rejected(self):
        with pytest.raises(ComponentError):
            Sensor("sensor2", Fraction(100)).read("OD")


LEAST = Fraction(1, 10)


def raised(error_type, call):
    with pytest.raises(error_type) as info:
        call()
    return info.value


class TestCapacityBoundaries:
    """Capacity and availability at their exact edges, on and off the
    least-count grid: the errors keep their messages and attributes, and a
    refused deposit or draw changes nothing."""

    def test_exactly_full_then_one_least_count_over(self):
        reservoir = Container("r1", Fraction(100))
        reservoir.deposit(Mixture.pure("a", Fraction(999, 10)))
        reservoir.deposit(Mixture.pure("b", LEAST))
        assert reservoir.volume == 100 and reservoir.free == 0
        error = raised(
            CapacityError, lambda: reservoir.deposit(Mixture.pure("a", LEAST))
        )
        assert str(error) == "r1: depositing 0.1 nl into 100/100 nl"
        assert (error.component, error.requested, error.capacity) == (
            "r1", LEAST, 100,
        )
        assert reservoir.volume == 100
        error = raised(EmptyError, lambda: reservoir.draw(100 + LEAST))
        assert str(error) == "r1: drawing 100.1 nl but only 100 nl available"
        assert (error.component, error.requested, error.available) == (
            "r1", 100 + LEAST, 100,
        )
        assert reservoir.draw(100).volume == 100 and reservoir.is_empty

    def test_concentrate_leaves_an_off_grid_volume(self):
        heater = Heater("heater1", Fraction(100))
        heater.deposit(Mixture({"a": Fraction(7), "b": Fraction(3)}))
        lost = heater.concentrate(60, 10, Fraction(1, 3))
        assert lost == Fraction(20, 3) and heater.volume == Fraction(10, 3)
        reservoir = Container("r1", Fraction(100))
        reservoir.deposit(Mixture.pure("c", 100 - Fraction(10, 3)))
        assert reservoir.free == Fraction(10, 3)
        reservoir.deposit(heater.drain())  # exactly full, off the grid
        assert reservoir.volume == 100 and reservoir.free == 0
        assert reservoir.contents.components == {
            "c": Fraction(290, 3), "a": Fraction(7, 3), "b": Fraction(1),
        }
        error = raised(
            CapacityError, lambda: reservoir.deposit(Mixture.pure("a", LEAST))
        )
        assert str(error) == "r1: depositing 0.1 nl into 100/100 nl"
        assert reservoir.draw(Fraction(10, 3)).volume == Fraction(10, 3)
        assert reservoir.volume == Fraction(290, 3)
        error = raised(
            EmptyError, lambda: reservoir.draw(Fraction(290, 3) + LEAST)
        )
        assert str(error) == (
            "r1: drawing 96.7667 nl but only 96.6667 nl available"
        )
        assert (error.requested, error.available) == (
            Fraction(290, 3) + LEAST, Fraction(290, 3),
        )
        assert reservoir.volume == Fraction(290, 3)

    def test_a_one_third_yield_fills_and_empties_exactly(self):
        separator = Separator(
            "separator1",
            Fraction(100),
            modes=("AF",),
            model=FractionalYield(Fraction(1, 3)),
        )
        separator.deposit(Mixture({"a": Fraction(6), "b": Fraction(4)}))
        effluent, waste = separator.separate("AF", 30)
        assert (effluent, waste) == (Fraction(10, 3), Fraction(20, 3))
        assert separator.out1.contents.components == {
            "a": Fraction(2), "b": Fraction(4, 3),
        }
        error = raised(
            EmptyError,
            lambda: separator.out1.draw(Fraction(10, 3) + LEAST),
        )
        assert str(error) == (
            "separator1.out1: drawing 3.43333 nl but only 3.33333 nl available"
        )
        assert (error.component, error.requested, error.available) == (
            "separator1.out1", Fraction(10, 3) + LEAST, Fraction(10, 3),
        )
        well = Container("w1", Fraction(20, 3))
        well.deposit(separator.out2.draw(Fraction(20, 3)))
        assert well.free == 0 and separator.out2.is_empty
        error = raised(
            CapacityError, lambda: well.deposit(separator.out1.draw(LEAST))
        )
        assert str(error) == (
            "w1: depositing 0.1 nl into 6.66667/6.66667 nl"
        )
        assert (error.requested, error.capacity) == (LEAST, Fraction(20, 3))
        assert well.volume == Fraction(20, 3)
        assert separator.out1.volume == Fraction(10, 3) - LEAST
