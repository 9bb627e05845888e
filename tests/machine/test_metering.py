"""Metering-pump tests: the least count lives here."""

from fractions import Fraction

import pytest

from repro.core.limits import PAPER_LIMITS, HardwareLimits
from repro.machine.errors import MeteringError
from repro.machine.metering import MeteringPump


class TestMeter:
    def test_exact_multiple_passes(self):
        pump = MeteringPump(PAPER_LIMITS)
        assert pump.meter(Fraction(5, 10)) == Fraction(5, 10)

    def test_below_least_count_rejected(self):
        pump = MeteringPump(PAPER_LIMITS)
        with pytest.raises(MeteringError) as info:
            pump.meter(Fraction(5, 100))
        assert info.value.least_count == PAPER_LIMITS.least_count

    def test_non_multiple_quantised_by_default(self):
        pump = MeteringPump(PAPER_LIMITS)
        assert pump.meter(Fraction(123, 1000)) == Fraction(1, 10)

    def test_strict_rejects_non_multiples(self):
        pump = MeteringPump(PAPER_LIMITS, strict=True)
        with pytest.raises(MeteringError):
            pump.meter(Fraction(123, 1000))

    def test_strict_accepts_multiples(self):
        pump = MeteringPump(PAPER_LIMITS, strict=True)
        assert pump.meter(Fraction(3, 10)) == Fraction(3, 10)

    @pytest.mark.parametrize(
        "least, volume, strict, expected",
        [
            # exactly one least count, on the edge of the minimum
            (Fraction(1, 10), Fraction(1, 10), True, Fraction(1, 10)),
            (Fraction(1, 10), 1, True, Fraction(1)),
            # a least count that is not a unit fraction
            (Fraction(3, 7), Fraction(3, 7), True, Fraction(3, 7)),
            (Fraction(3, 7), Fraction(9, 7), True, Fraction(9, 7)),
            (Fraction(3, 7), Fraction(10, 7), False, Fraction(9, 7)),
            (Fraction(3, 7), Fraction(11, 7), False, Fraction(12, 7)),
            (Fraction(2), 3, False, Fraction(4)),
        ],
    )
    def test_least_count_edges(self, least, volume, strict, expected):
        limits = HardwareLimits(max_capacity=Fraction(100), least_count=least)
        assert MeteringPump(limits, strict=strict).meter(volume) == expected

    @pytest.mark.parametrize(
        "least, volume, strict, message",
        [
            (Fraction(1, 10), Fraction(99, 1000), False,
             "transfer of 0.099 nl is below the least count of 0.1 nl"),
            (Fraction(3, 7), Fraction(2, 7), False,
             "transfer of 0.285714 nl is below the least count of 0.428571 nl"),
            (Fraction(3, 7), Fraction(10, 7), True,
             "transfer of 1.42857 nl is not a multiple of the least count "
             "0.428571 nl"),
        ],
    )
    def test_least_count_refusals(self, least, volume, strict, message):
        limits = HardwareLimits(max_capacity=Fraction(100), least_count=least)
        with pytest.raises(MeteringError) as info:
            MeteringPump(limits, strict=strict).meter(volume)
        assert str(info.value) == message
        assert (info.value.requested, info.value.least_count) == (volume, least)


class TestStatistics:
    def test_record_accumulates(self):
        pump = MeteringPump(PAPER_LIMITS)
        pump.record(Fraction(10))
        pump.record(Fraction(5))
        assert pump.total_pumped == 15
        assert pump.transfer_count == 2
