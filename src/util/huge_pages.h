#ifndef LOGMINE_UTIL_HUGE_PAGES_H_
#define LOGMINE_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace logmine {

/// Size of a transparent huge page on x86-64 and arm64 (4 KiB base).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// The whole 2 MiB pages inside [data, data + bytes): `begin` is
/// 2 MiB-aligned and `size` a multiple of 2 MiB. Empty (`size` 0) when
/// no whole huge page fits, e.g. for any buffer under 2 MiB.
struct HugePageRange {
  uintptr_t begin = 0;
  size_t size = 0;
};
HugePageRange HugePageInterior(const void* data, size_t bytes);

/// Asks the kernel to back the interior of a freshly allocated, not yet
/// written buffer with transparent huge pages (`madvise(MADV_HUGEPAGE)`),
/// so that its first touch faults 2 MiB at a time instead of 4 KiB. A
/// flag on the process's own mapping: the kernel's THP mode decides
/// whether it is granted (`madvise` and `always` grant it, `never` does
/// not), and nothing but speed depends on it. A no-op where the flag
/// does not exist or the interior is empty. Only pages the caller then
/// writes in full should be advised, or a huge page makes resident
/// memory the caller never touches.
void AdviseHugePages(const void* data, size_t bytes);

}  // namespace logmine

#endif  // LOGMINE_UTIL_HUGE_PAGES_H_
