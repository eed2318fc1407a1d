#include "util/time_util.h"

#include <algorithm>
#include <cstdio>

namespace logmine {

int64_t DaysFromCivil(int year, int month, int day) {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  // Widened first so that INT_MIN in January or February cannot overflow.
  const int64_t y = static_cast<int64_t>(year) - (month <= 2);
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);  // [0, 399]
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;                            // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;    // [0,146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t days, int* year, int* month, int* day) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *year = static_cast<int>(y + (*month <= 2));
}

TimeMs TimeFromCivil(const CivilTime& civil) {
  const int64_t days = DaysFromCivil(civil.year, civil.month, civil.day);
  return days * kMillisPerDay + civil.hour * kMillisPerHour +
         civil.minute * kMillisPerMinute + civil.second * kMillisPerSecond +
         civil.millisecond;
}

CivilTime CivilFromTime(TimeMs t) {
  int64_t days = t / kMillisPerDay;
  TimeMs rem = t % kMillisPerDay;
  if (rem < 0) {
    rem += kMillisPerDay;
    --days;
  }
  CivilTime civil;
  CivilFromDays(days, &civil.year, &civil.month, &civil.day);
  civil.hour = static_cast<int>(rem / kMillisPerHour);
  rem %= kMillisPerHour;
  civil.minute = static_cast<int>(rem / kMillisPerMinute);
  rem %= kMillisPerMinute;
  civil.second = static_cast<int>(rem / kMillisPerSecond);
  civil.millisecond = static_cast<int>(rem % kMillisPerSecond);
  return civil;
}

int DayOfWeek(TimeMs t) {
  int64_t days = t / kMillisPerDay;
  if (t % kMillisPerDay < 0) --days;
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  int dow = static_cast<int>((days + 3) % 7);
  return dow < 0 ? dow + 7 : dow;
}

bool IsWeekend(TimeMs t) { return DayOfWeek(t) >= 5; }

int HourOfDay(TimeMs t) {
  TimeMs rem = t % kMillisPerDay;
  if (rem < 0) rem += kMillisPerDay;
  return static_cast<int>(rem / kMillisPerHour);
}

TimeMs StartOfDay(TimeMs t) {
  TimeMs rem = t % kMillisPerDay;
  if (rem < 0) rem += kMillisPerDay;
  return t - rem;
}

std::string FormatTime(TimeMs t) {
  const CivilTime c = CivilFromTime(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                c.year, c.month, c.day, c.hour, c.minute, c.second,
                c.millisecond);
  return buf;
}

std::string FormatDate(TimeMs t) {
  const CivilTime c = CivilFromTime(t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

namespace {

// Every digit run saturates here: no field may reach it (the largest
// legal year is ~2.9e8), so a saturated run is out of range rather than
// an overflowed int.
constexpr int64_t kDigitRunCap = 1'000'000'000;

// Consumes the digit run at text[*pos], saturating at kDigitRunCap.
// False (and *pos untouched) when there is no digit there.
bool ReadDigits(std::string_view text, size_t* pos, int64_t* value) {
  size_t i = *pos;
  int64_t v = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    v = std::min(v * 10 + (text[i] - '0'), kDigitRunCap);
    ++i;
  }
  if (i == *pos) return false;
  *pos = i;
  *value = v;
  return true;
}

}  // namespace

Result<TimeMs> ParseTime(std::string_view text) {
  // Grammar: -?Y-M-D[ h:m:s[.ms]]. Fields are matched left to right. A
  // date alone, a date with h:m:s, or all seven fields are accepted;
  // any other count is unrecognized. Range checks run before leftover
  // bytes are judged, so "2005-13-01x" reads as out of range, as it
  // always has.
  static constexpr char kSeparators[7] = {'\0', '-', '-', ' ', ':', ':', '.'};
  int64_t field[7] = {0, 0, 0, 0, 0, 0, 0};
  size_t pos = 0;
  const bool negative_year = !text.empty() && text[0] == '-';
  if (negative_year) pos = 1;
  int matched = 0;
  while (matched < 7) {
    size_t next = pos;
    if (matched > 0) {
      if (next >= text.size() || text[next] != kSeparators[matched]) break;
      ++next;
    }
    if (!ReadDigits(text, &next, &field[matched])) break;
    pos = next;
    ++matched;
  }
  if (matched != 3 && matched != 6 && matched != 7) {
    return Status::ParseError("unrecognized timestamp: " + std::string(text));
  }
  const int64_t year = negative_year ? -field[0] : field[0];
  const int64_t month = field[1], day = field[2], hour = field[3],
                minute = field[4], second = field[5], millis = field[6];
  // The date-to-millisecond products are overflow-checked: a year whose
  // milliseconds TimeMs cannot hold is out of range like any month 13.
  TimeMs t = 0;
  const bool in_range =
      month >= 1 && month <= 12 && day >= 1 && day <= 31 && hour <= 23 &&
      minute <= 59 && second <= 59 && millis <= 999 &&
      year > -kDigitRunCap && year < kDigitRunCap &&
      !__builtin_mul_overflow(
          DaysFromCivil(static_cast<int>(year), static_cast<int>(month),
                        static_cast<int>(day)),
          kMillisPerDay, &t) &&
      !__builtin_add_overflow(
          t,
          hour * kMillisPerHour + minute * kMillisPerMinute +
              second * kMillisPerSecond + millis,
          &t);
  if (!in_range) {
    return Status::ParseError("timestamp field out of range: " +
                              std::string(text));
  }
  if (pos != text.size()) {
    return Status::ParseError("unrecognized timestamp: " + std::string(text));
  }
  return t;
}

}  // namespace logmine
