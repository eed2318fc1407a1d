#include "util/huge_pages.h"

#include <sys/mman.h>

namespace logmine {

HugePageRange HugePageInterior(const void* data, size_t bytes) {
  const auto begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t end = (begin + bytes) & ~(kHugePageBytes - 1);
  if (end <= first) return {};
  return {first, end - first};
}

void AdviseHugePages(const void* data, size_t bytes) {
#ifdef MADV_HUGEPAGE
  const HugePageRange range = HugePageInterior(data, bytes);
  if (range.size == 0) return;
  // Best effort: EINVAL under a kernel without THP changes nothing.
  (void)::madvise(reinterpret_cast<void*>(range.begin), range.size,
                  MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace logmine
