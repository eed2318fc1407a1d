#include "util/huge_pages.h"

#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace logmine {
namespace {

constexpr uintptr_t kHuge = kHugePageBytes;

// The range is computed from addresses only, so synthetic addresses
// test it without allocating.
const void* At(uintptr_t address) {
  return reinterpret_cast<const void*>(address);
}

TEST(HugePageInteriorTest, IsAlignedAndInsideTheBuffer) {
  for (uintptr_t begin : {kHuge * 8, kHuge * 8 + 1, kHuge * 8 + 4096,
                          kHuge * 9 - 1, kHuge * 9 - 16}) {
    for (size_t bytes : {kHuge, kHuge + 1, 2 * kHuge - 1, 2 * kHuge,
                         2 * kHuge + 4096, 5 * kHuge + 77}) {
      const HugePageRange range = HugePageInterior(At(begin), bytes);
      SCOPED_TRACE(testing::Message() << "begin " << begin << ", bytes "
                                      << bytes);
      EXPECT_EQ(range.begin % kHuge, 0u);
      EXPECT_EQ(range.size % kHuge, 0u);
      if (range.size == 0) continue;
      EXPECT_GE(range.begin, begin);
      EXPECT_LE(range.begin + range.size, begin + bytes);
      // No whole huge page of the buffer is left out.
      EXPECT_LT(range.begin - begin, kHuge);
      EXPECT_LT(begin + bytes - (range.begin + range.size), kHuge);
    }
  }
}

TEST(HugePageInteriorTest, ExactAndShortBuffers) {
  const HugePageRange exact = HugePageInterior(At(kHuge * 4), 3 * kHuge);
  EXPECT_EQ(exact.begin, kHuge * 4);
  EXPECT_EQ(exact.size, 3 * kHuge);
  // One byte off either end loses that huge page.
  EXPECT_EQ(HugePageInterior(At(kHuge * 4 + 1), 3 * kHuge).size, 2 * kHuge);
  EXPECT_EQ(HugePageInterior(At(kHuge * 4), 3 * kHuge - 1).size, 2 * kHuge);
  // A buffer across a boundary without a whole huge page inside it.
  EXPECT_EQ(HugePageInterior(At(kHuge * 4 + 4096), kHuge).size, 0u);
  for (size_t bytes : {size_t{0}, size_t{1}, size_t{4096}, kHuge - 1}) {
    for (uintptr_t begin : {kHuge * 4, kHuge * 4 + 1, kHuge * 5 - 1}) {
      EXPECT_EQ(HugePageInterior(At(begin), bytes).size, 0u)
          << "begin " << begin << ", bytes " << bytes;
    }
  }
}

// Whether the kernel grants huge pages depends on its THP mode, so only
// that advising changes no byte is checked.
TEST(AdviseHugePagesTest, AdvisedBufferKeepsWhatIsWrittenToIt) {
  std::vector<uint64_t> column;
  const size_t n = 3 * kHugePageBytes / sizeof(uint64_t);
  column.reserve(n);
  AdviseHugePages(column.data(), n * sizeof(uint64_t));
  column.resize(n);
  std::iota(column.begin(), column.end(), uint64_t{7});
  for (size_t i = 0; i < n; i += 4099) ASSERT_EQ(column[i], 7 + i);
  EXPECT_EQ(column.back(), 7 + n - 1);

  std::vector<char> small(100, 'x');
  AdviseHugePages(small.data(), small.size());
  AdviseHugePages(nullptr, 0);
  EXPECT_EQ(small, std::vector<char>(100, 'x'));
}

}  // namespace
}  // namespace logmine
