#ifndef LOGMINE_UTIL_TIME_UTIL_H_
#define LOGMINE_UTIL_TIME_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace logmine {

/// All timestamps in the library are milliseconds since the Unix epoch
/// (UTC), matching the 1 ms resolution of the paper's logging system.
using TimeMs = int64_t;

inline constexpr TimeMs kMillisPerSecond = 1000;
inline constexpr TimeMs kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr TimeMs kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr TimeMs kMillisPerDay = 24 * kMillisPerHour;

/// Broken-down civil (proleptic Gregorian, UTC) time.
struct CivilTime {
  int year = 1970;
  int month = 1;   // 1..12
  int day = 1;     // 1..31
  int hour = 0;    // 0..23
  int minute = 0;  // 0..59
  int second = 0;  // 0..59
  int millisecond = 0;  // 0..999
};

/// Days since the epoch for a civil date (Howard Hinnant's algorithm).
int64_t DaysFromCivil(int year, int month, int day);

/// Inverse of `DaysFromCivil`.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// Civil time -> epoch milliseconds.
TimeMs TimeFromCivil(const CivilTime& civil);

/// Epoch milliseconds -> civil time.
CivilTime CivilFromTime(TimeMs t);

/// Day of week, 0 = Monday .. 6 = Sunday.
int DayOfWeek(TimeMs t);

/// True for Saturday/Sunday.
bool IsWeekend(TimeMs t);

/// Hour of day in [0, 24).
int HourOfDay(TimeMs t);

/// Start of the UTC day containing `t`.
TimeMs StartOfDay(TimeMs t);

/// Formats "YYYY-MM-DD HH:MM:SS.mmm".
std::string FormatTime(TimeMs t);

/// Formats just the date part, "YYYY-MM-DD".
std::string FormatDate(TimeMs t);

/// Parses the output of `FormatTime`. Also accepts a bare date
/// ("YYYY-MM-DD") and a timestamp without milliseconds. Fields are ASCII
/// digit runs (the year may carry a leading '-'), separated by exactly
/// the characters `FormatTime` writes; blanks, '+' signs and trailing
/// bytes are rejected. A field outside its range, including a year whose
/// milliseconds do not fit `TimeMs`, is "timestamp field out of range".
Result<TimeMs> ParseTime(std::string_view text);

}  // namespace logmine

#endif  // LOGMINE_UTIL_TIME_UTIL_H_
