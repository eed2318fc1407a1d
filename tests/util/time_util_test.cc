#include "util/time_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace logmine {
namespace {

TEST(CivilTest, EpochIsZero) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(TimeFromCivil({.year = 1970, .month = 1, .day = 1}), 0);
}

TEST(CivilTest, KnownDates) {
  // 2005-12-06 (the paper's first test day) is day 13123 since the epoch.
  EXPECT_EQ(DaysFromCivil(2005, 12, 6), 13123);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1), 11017);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
}

TEST(CivilTest, RoundTripThroughDays) {
  for (int64_t days : {-1000, -1, 0, 1, 13123, 20000, 100000}) {
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    EXPECT_EQ(DaysFromCivil(y, m, d), days) << days;
  }
}

TEST(CivilTest, LeapYearHandling) {
  int y, m, d;
  CivilFromDays(DaysFromCivil(2004, 2, 29), &y, &m, &d);
  EXPECT_EQ(y, 2004);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(d, 29);
  // 2000 is a leap year (divisible by 400), 1900 is not.
  EXPECT_EQ(DaysFromCivil(2000, 3, 1) - DaysFromCivil(2000, 2, 28), 2);
  EXPECT_EQ(DaysFromCivil(1900, 3, 1) - DaysFromCivil(1900, 2, 28), 1);
}

TEST(CivilTest, TimeRoundTrip) {
  const CivilTime civil{.year = 2005, .month = 12, .day = 12, .hour = 23,
                        .minute = 59, .second = 59, .millisecond = 999};
  const CivilTime back = CivilFromTime(TimeFromCivil(civil));
  EXPECT_EQ(back.year, 2005);
  EXPECT_EQ(back.month, 12);
  EXPECT_EQ(back.day, 12);
  EXPECT_EQ(back.hour, 23);
  EXPECT_EQ(back.minute, 59);
  EXPECT_EQ(back.second, 59);
  EXPECT_EQ(back.millisecond, 999);
}

TEST(CivilTest, NegativeTimesBeforeEpoch) {
  const CivilTime civil = CivilFromTime(-1);
  EXPECT_EQ(civil.year, 1969);
  EXPECT_EQ(civil.month, 12);
  EXPECT_EQ(civil.day, 31);
  EXPECT_EQ(civil.hour, 23);
  EXPECT_EQ(civil.millisecond, 999);
}

TEST(DayOfWeekTest, KnownDays) {
  // 1970-01-01 was a Thursday (index 3, Monday = 0).
  EXPECT_EQ(DayOfWeek(0), 3);
  // 2005-12-06 was a Tuesday; 2005-12-10 a Saturday; 2005-12-11 a Sunday.
  const TimeMs dec6 = TimeFromCivil({.year = 2005, .month = 12, .day = 6});
  EXPECT_EQ(DayOfWeek(dec6), 1);
  EXPECT_FALSE(IsWeekend(dec6));
  EXPECT_TRUE(IsWeekend(dec6 + 4 * kMillisPerDay));
  EXPECT_TRUE(IsWeekend(dec6 + 5 * kMillisPerDay));
  EXPECT_FALSE(IsWeekend(dec6 + 6 * kMillisPerDay));
}

TEST(HourOfDayTest, WrapsCorrectly) {
  const TimeMs dec6 = TimeFromCivil({.year = 2005, .month = 12, .day = 6});
  EXPECT_EQ(HourOfDay(dec6), 0);
  EXPECT_EQ(HourOfDay(dec6 + 13 * kMillisPerHour + 5), 13);
  EXPECT_EQ(HourOfDay(dec6 - 1), 23);
}

TEST(StartOfDayTest, TruncatesToMidnight) {
  const TimeMs dec6 = TimeFromCivil({.year = 2005, .month = 12, .day = 6});
  EXPECT_EQ(StartOfDay(dec6 + 5 * kMillisPerHour + 123), dec6);
  EXPECT_EQ(StartOfDay(dec6), dec6);
}

TEST(FormatTest, FormatsMilliseconds) {
  const TimeMs t = TimeFromCivil({.year = 2005, .month = 12, .day = 6,
                                  .hour = 8, .minute = 1, .second = 2,
                                  .millisecond = 34});
  EXPECT_EQ(FormatTime(t), "2005-12-06 08:01:02.034");
  EXPECT_EQ(FormatDate(t), "2005-12-06");
}

TEST(ParseTest, RoundTripsFormat) {
  const TimeMs t = TimeFromCivil({.year = 2005, .month = 12, .day = 12,
                                  .hour = 23, .minute = 45, .second = 6,
                                  .millisecond = 789});
  auto parsed = ParseTime(FormatTime(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), t);
}

TEST(ParseTest, AcceptsBareDateAndNoMillis) {
  auto date_only = ParseTime("2005-12-06");
  ASSERT_TRUE(date_only.ok());
  EXPECT_EQ(date_only.value(),
            TimeFromCivil({.year = 2005, .month = 12, .day = 6}));
  auto no_ms = ParseTime("2005-12-06 08:00:05");
  ASSERT_TRUE(no_ms.ok());
  EXPECT_EQ(HourOfDay(no_ms.value()), 8);
}

TEST(ParseTest, FractionDigitsAreMilliseconds) {
  // The digits after the dot are a millisecond count, not a fraction:
  // ".5" is 5 ms, as the format's writers and readers always had it.
  auto parsed = ParseTime("2005-12-06 08:00:01.5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(),
            TimeFromCivil({.year = 2005, .month = 12, .day = 6, .hour = 8,
                           .second = 1, .millisecond = 5}));
}

TEST(ParseTest, RoundTripsNegativeYears) {
  const TimeMs t = TimeFromCivil({.year = -1, .month = 3, .day = 1});
  EXPECT_EQ(FormatTime(t), "-001-03-01 00:00:00.000");
  auto parsed = ParseTime(FormatTime(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), t);
}

TEST(ParseTest, HostileYearsAreOutOfRangeNotOverflow) {
  // Regression: both overflowed signed integers (INT_MIN - 1 in
  // DaysFromCivil; days * kMillisPerDay past int64) before the year was
  // bounded. Run under the asan preset, which traps on the overflow.
  for (const std::string text : {"-2147483648-01-01 00:00:00.000",
                                 "999999999-06-01 00:00:00.000",
                                 "99999999999999999999-06-01",
                                 "2005-12-99999999999999999999"}) {
    auto parsed = ParseTime(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(),
              "timestamp field out of range: " + text);
  }
  // The last representable instant still parses.
  auto parsed = ParseTime(FormatTime(INT64_MAX));
  ASSERT_TRUE(parsed.ok()) << FormatTime(INT64_MAX);
  EXPECT_EQ(parsed.value(), INT64_MAX);
}

TEST(ParseTest, RejectsBlanksSignsAndTrailingBytes) {
  for (const std::string text :
       {" 2005-12-06", "+2005-12-06", "2005-12-06  08:00:05",
        "2005-12-06 08:00:05.123xyz", "2005-12-06 08:00:05.", "2005-12-06 ",
        "2005--12-06", "", "-"}) {
    auto parsed = ParseTime(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(), "unrecognized timestamp: " + text);
  }
}

TEST(ParseTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTime("not a time").ok());
  EXPECT_FALSE(ParseTime("2005-13-06").ok());
  EXPECT_FALSE(ParseTime("2005-12-32").ok());
  EXPECT_FALSE(ParseTime("2005-12-06 25:00:00").ok());
  EXPECT_FALSE(ParseTime("2005-12-06 10:61:00").ok());
}

}  // namespace
}  // namespace logmine
