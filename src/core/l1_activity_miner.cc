#include "core/l1_activity_miner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "core/slotting.h"
#include "obs/obs.h"
#include "stats/order_stats_ci.h"
#include "util/executor.h"
#include "util/rng.h"

namespace logmine::core {

stats::MedianDistanceTestResult L1ActivityMiner::TestSlot(
    const LogStore& store, LogStore::SourceId a, LogStore::SourceId b,
    TimeMs begin, TimeMs end, uint64_t salt) const {
  const std::span<const int64_t> ts_a =
      store.SourceTimestampsInRange(a, begin, end);
  const std::span<const int64_t> ts_b =
      store.SourceTimestampsInRange(b, begin, end);
  Rng rng(config_.seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return stats::MedianDistanceTest(ts_a, ts_b, begin, end, config_.test,
                                   &rng);
}

namespace {

// Whether `slots_supported` reaches L1's minimum support,
// th_s * slots_total. Only such pairs can be dependent.
bool L1ReachesSupport(const L1Config& config, int slots_total,
                      int slots_supported) {
  return static_cast<double>(slots_supported) >=
         config.th_s * static_cast<double>(slots_total);
}

// Per-(slot, source) products of the precompute fan-out, shared by every
// test in the slot that involves the source (DESIGN.md §11): the sorted
// subsample of the source's own timestamps (its S_b when it is the
// target), the merged "near set" — the timestamps within distance
// < lower(CI_r) of some log of this source, as disjoint closed integer
// intervals, with a cell index over them (all a test against this
// reference reads of CI_r), and the upper CI rank for |S_b| (all it
// reads of CI_b — see the rank-count identity at the phase-1b loop).
struct SlotSourceRef {
  std::vector<int64_t> sub_sorted;
  /// The near set's interval boundaries, flattened: strictly increasing
  /// values s_0, e_0+1, s_1, e_1+1, ..., INT64_MAX (sentinel), where
  /// the disjoint closed intervals [s_i, e_i] cover exactly the
  /// timestamps whose nearest log of this source is closer than the
  /// baseline CI lower endpoint. p is inside iff #{ boundaries <= p }
  /// is odd. Empty when the endpoint could not be computed (or is
  /// <= 1 ms) — every test against this reference is negative then.
  std::vector<int64_t> near_bounds;
  /// The cell index over `near_bounds` (null when it is empty): the
  /// slot is cut into cells of 2^cell_shift ms from `cell_origin` (the
  /// slot's begin), and cells[c] = #{ boundaries <= the start of cell
  /// c }. It points into the Mine call's arena.
  const uint32_t* cells = nullptr;
  int64_t cell_origin = 0;
  int cell_shift = 0;
  /// Total width of the near intervals — a proxy for how likely a test
  /// against this reference is positive. Phase 1b evaluates the
  /// narrower-reference direction first so the short-circuit AND
  /// usually stops after the direction more likely to be negative.
  int64_t near_total = 0;
  int test_upper_rank = 0;  ///< upper rank at n = |sub_sorted|; 0 = no CI
};

// A slot's cell index has at most this many cells; their width is the
// smallest power of two of milliseconds that fits (4096 ms for a 1-hour
// slot, 879 cells).
constexpr uint64_t kMaxCellsPerSlot = 1024;

int CellShift(const TimeSlot& slot) {
  return std::bit_width(static_cast<uint64_t>(slot.end - slot.begin - 1) /
                        kMaxCellsPerSlot);
}

size_t CellCount(const TimeSlot& slot) {
  return (static_cast<uint64_t>(slot.end - slot.begin - 1) >>
          CellShift(slot)) + 1;
}

// Fills `slot`'s cell index over the strictly increasing `bounds`: cell c
// counts the boundaries at or before its start slot.begin + (c << shift).
// Boundary k first counts in cell ceil((bounds[k] - slot.begin) / 2^shift),
// so the table is k over the run of cells before that one — one fill per
// run, not one step per cell.
void FillCellIndex(std::span<const int64_t> bounds, const TimeSlot& slot,
                   uint32_t* cells) {
  const int shift = CellShift(slot);
  const size_t num_cells = CellCount(slot);
  size_t filled = 0;
  for (size_t k = 0; k < bounds.size() && filled < num_cells; ++k) {
    const int64_t offset = bounds[k] - slot.begin;
    const size_t first =
        offset <= 0 ? 0
                    : std::min(num_cells,
                               static_cast<size_t>((offset - 1) >> shift) + 1);
    if (first > filled) {
      std::fill(cells + filled, cells + first, static_cast<uint32_t>(k));
      filled = first;
    }
  }
  std::fill(cells + filled, cells + num_cells,
            static_cast<uint32_t>(bounds.size()));
}

// One (slot, pair) test of the fine-grained fan-out.
struct PairTest {
  uint32_t slot = 0;
  uint32_t a = 0;
  uint32_t b = 0;
};

// Sorts `v`, whose values all lie in [lo, hi): one bucket pass on the
// top eight bits of the offset leaves the array nearly sorted (about
// one element per bucket at baseline sample sizes), and one insertion
// pass finishes it — several times cheaper than introsort for the
// uniform baseline draw, with identical output (any correct sort of
// the same multiset yields the same array).
void SortBounded(std::vector<int64_t>* v, int64_t lo, int64_t hi) {
  const size_t n = v->size();
  if (n < 64) {
    std::sort(v->begin(), v->end());
    return;
  }
  const auto width = static_cast<uint64_t>(hi - lo);
  const int bits = std::bit_width(width > 1 ? width - 1 : uint64_t{1});
  const int shift = bits > 8 ? bits - 8 : 0;
  std::array<uint32_t, 257> counts{};
  for (const int64_t p : *v) {
    ++counts[(static_cast<uint64_t>(p - lo) >> shift) + 1];
  }
  for (size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  std::vector<int64_t> scratch(n);
  for (const int64_t p : *v) {
    scratch[counts[static_cast<uint64_t>(p - lo) >> shift]++] = p;
  }
  for (size_t i = 1; i < n; ++i) {
    const int64_t x = scratch[i];
    size_t j = i;
    for (; j > 0 && scratch[j - 1] > x; --j) scratch[j] = scratch[j - 1];
    scratch[j] = x;
  }
  v->swap(scratch);
}

}  // namespace

Result<L1Result> L1ActivityMiner::Mine(const LogStore& store, TimeMs begin,
                                       TimeMs end) const {
  return Mine(store, begin, end, PairRange{});
}

Result<L1Result> L1ActivityMiner::Mine(const LogStore& store, TimeMs begin,
                                       TimeMs end, PairRange range) const {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  if (begin >= end) {
    return Status::InvalidArgument("empty mining interval");
  }
  if (range.count < 1 || range.index >= range.count) {
    return Status::InvalidArgument(
        "pair range " + std::to_string(range.index) + " outside [0, " +
        std::to_string(range.count) + ")");
  }
  const bool anchored = config_.salt_anchor != L1Config::kNoSaltAnchor;
  if (anchored && config_.adaptive_slots) {
    return Status::InvalidArgument(
        "salt_anchor requires the fixed slot grid (adaptive_slots=false)");
  }
  LOGMINE_SPAN_GLOBAL("l1/mine", obs::Metric::kL1MineNs);
  obs::Count(obs::Metric::kL1Runs);
  // All-source timestamps in the window, needed by both the adaptive
  // slotting and the intensity-proportional baseline.
  std::vector<TimeMs> all_events;
  if (config_.adaptive_slots ||
      config_.baseline == L1Baseline::kIntensityProportional) {
    size_t total = 0;
    for (uint32_t s = 0; s < store.num_sources(); ++s) {
      total += static_cast<size_t>(store.CountInRange(s, begin, end));
    }
    all_events.reserve(total);
    for (uint32_t s = 0; s < store.num_sources(); ++s) {
      const std::span<const TimeMs> local = store.SourceTimestampsInRange(
          static_cast<LogStore::SourceId>(s), begin, end);
      all_events.insert(all_events.end(), local.begin(), local.end());
    }
    std::sort(all_events.begin(), all_events.end());
  }
  const std::vector<TimeSlot> slots =
      config_.adaptive_slots
          ? MakeAdaptiveSlots(all_events, begin, end, config_.adaptive)
          : MakeSlots(begin, end, config_.slot_length);
  const auto num_sources = static_cast<uint32_t>(store.num_sources());
  const size_t ns = num_sources;
  const size_t num_slots = slots.size();

  L1Result result;
  result.slots_total = static_cast<int>(num_slots);
  obs::Count(obs::Metric::kL1SlotsTotal, static_cast<int64_t>(num_slots));
  if (num_sources == 0) return result;

  // Phase 0 — activity census (cheap): zero-copy views of every
  // (slot, source) slice of the store's sorted index, the per-slot
  // usable-source lists, and, from those, the exact per-pair support —
  // the number of slots where both sources clear `minlogs`. Support
  // depends on counts only, never on test outcomes, so it is known
  // before a single test runs; that is what pruning keys off.
  std::vector<std::span<const int64_t>> views(num_slots * ns);
  std::vector<std::vector<uint32_t>> usable(num_slots);
  std::vector<std::span<const int64_t>> slot_events(num_slots);
  std::vector<int32_t> support(ns * ns, 0);
  for (size_t slot_idx = 0; slot_idx < num_slots; ++slot_idx) {
    const TimeSlot& slot = slots[slot_idx];
    for (uint32_t s = 0; s < num_sources; ++s) {
      const std::span<const int64_t> view =
          store.SourceTimestampsInRange(s, slot.begin, slot.end);
      if (static_cast<int64_t>(view.size()) >= config_.minlogs) {
        views[slot_idx * ns + s] = view;
        usable[slot_idx].push_back(s);
      }
    }
    if (config_.baseline == L1Baseline::kIntensityProportional) {
      auto lo = std::lower_bound(all_events.begin(), all_events.end(),
                                 slot.begin);
      auto hi = std::lower_bound(lo, all_events.end(), slot.end);
      slot_events[slot_idx] = {lo, hi};
    }
    for (size_t i = 0; i < usable[slot_idx].size(); ++i) {
      for (size_t j = i + 1; j < usable[slot_idx].size(); ++j) {
        ++support[usable[slot_idx][i] * ns + usable[slot_idx][j]];
      }
    }
  }

  // Pair-range sharding: rank pairs (a < b) lexicographically and keep
  // only this shard's contiguous slice of ranks. Pairs outside the
  // slice are another shard's work — never tested, never listed, not
  // even counted as pruned, so per-shard results partition the full
  // run's result exactly.
  const uint64_t total_pairs =
      static_cast<uint64_t>(ns) * (ns - 1) / 2;
  const uint64_t range_lo = total_pairs * range.index / range.count;
  const uint64_t range_hi = total_pairs * (range.index + 1) / range.count;
  auto in_range = [&](uint32_t a, uint32_t b) {
    if (range.count == 1) return true;
    const uint64_t rank = static_cast<uint64_t>(a) * (ns - 1) -
                          static_cast<uint64_t>(a) * (a - 1) / 2 +
                          (b - a - 1);
    return rank >= range_lo && rank < range_hi;
  };
  std::vector<uint8_t> tested(ns * ns, 0);
  for (uint32_t a = 0; a < num_sources; ++a) {
    for (uint32_t b = a + 1; b < num_sources; ++b) {
      const size_t key = a * ns + b;
      if (support[key] == 0 || !in_range(a, b)) continue;
      // A pair can only be dependent when its support reaches th_s * n;
      // a pair whose *maximum attainable* support (= its exact support,
      // known from the census) falls short is skipped when pruning is on.
      tested[key] = !config_.prune_support ||
                    L1ReachesSupport(config_, static_cast<int>(num_slots),
                                     support[key]);
      if (tested[key]) {
        ++result.pairs_tested;
      } else {
        ++result.pairs_pruned;
      }
    }
  }
  obs::Count(obs::Metric::kL1PairsTested, result.pairs_tested);
  obs::Count(obs::Metric::kL1PairsPruned, result.pairs_pruned);

  // Flatten the surviving work: one PairTest per (slot, tested pair),
  // in (slot, a, b) order, and one precompute job per (slot, source)
  // that at least one surviving test touches.
  std::vector<PairTest> items;
  std::vector<std::pair<uint32_t, uint32_t>> ref_jobs;
  {
    std::vector<uint8_t> needed(ns, 0);
    for (size_t slot_idx = 0; slot_idx < num_slots; ++slot_idx) {
      std::fill(needed.begin(), needed.end(), 0);
      for (size_t i = 0; i < usable[slot_idx].size(); ++i) {
        for (size_t j = i + 1; j < usable[slot_idx].size(); ++j) {
          const uint32_t a = usable[slot_idx][i];
          const uint32_t b = usable[slot_idx][j];
          if (!tested[a * ns + b]) continue;
          items.push_back({static_cast<uint32_t>(slot_idx), a, b});
          needed[a] = needed[b] = 1;
        }
      }
      for (uint32_t s : usable[slot_idx]) {
        if (needed[s]) {
          ref_jobs.emplace_back(static_cast<uint32_t>(slot_idx), s);
        }
      }
    }
  }
  obs::Count(obs::Metric::kL1SlotTests, static_cast<int64_t>(items.size()));

  // Median-CI ranks depend only on (n, level); every sample here has at
  // most `sample_size` points, so one serial pass caches them all.
  // Entries are nullopt when the level is unreachable at that n (the
  // test is negative then).
  const size_t sample_size = config_.test.sample_size;
  std::vector<std::optional<stats::MedianCi>> ranks_by_n;
  ranks_by_n.resize(std::min<size_t>(sample_size, 4096) + 1);
  for (size_t n = 1; n < ranks_by_n.size(); ++n) {
    auto ranks =
        stats::MedianCiRanks(static_cast<int64_t>(n), config_.test.level);
    if (ranks.ok()) ranks_by_n[n] = ranks.value();
  }
  auto ranks_for = [&](size_t n) -> std::optional<stats::MedianCi> {
    if (n == 0) return std::nullopt;
    if (n < ranks_by_n.size()) return ranks_by_n[n];
    auto ranks =
        stats::MedianCiRanks(static_cast<int64_t>(n), config_.test.level);
    if (!ranks.ok()) return std::nullopt;
    return ranks.value();
  };

  // Phase 1a — per-(slot, source) precompute on the shared executor:
  // each job draws from an RNG stream keyed by (seed, slot, source) via
  // Rng::Fork, so its products are independent of scheduling, thread
  // count, and of which *other* jobs pruning kept. Per job: the
  // baseline points (uniform, or a jittered subsample of the slot's
  // overall stream), their distances to the source via one merged
  // sweep, the lower CI endpoint of those distances (one nth_element,
  // not a sort) expanded into the merged near-interval set every test
  // against this reference scans, and the sorted reservoir subsample of
  // the source's own timestamps (the S_b every test of this target
  // reuses). Distances and the CI endpoint are integral millisecond
  // values, so "distance < lower" is exactly "inside [t-(L-1), t+(L-1)]
  // for some log t" and the interval form loses nothing. Each job with a
  // near set also fills its cell index; every job's table has a place in
  // one arena, laid out in job order before the fan-out (pages of jobs
  // that end up with no near set are never touched).
  std::vector<SlotSourceRef> refs(num_slots * ns);
  std::vector<size_t> cell_offset(ref_jobs.size() + 1, 0);
  for (size_t job_idx = 0; job_idx < ref_jobs.size(); ++job_idx) {
    cell_offset[job_idx + 1] =
        cell_offset[job_idx] + CellCount(slots[ref_jobs[job_idx].first]);
  }
  const auto cell_arena =
      std::make_unique_for_overwrite<uint32_t[]>(cell_offset.back());
  const Rng master(config_.seed);
  Executor::Shared().ParallelFor(
      ref_jobs.size(),
      [&](size_t job_idx) {
        const auto [slot_idx, s] = ref_jobs[job_idx];
        const TimeSlot& slot = slots[slot_idx];
        const std::span<const int64_t> view = views[slot_idx * ns + s];
        SlotSourceRef& ref = refs[slot_idx * ns + s];
        // Anchored: key the stream by (source name, absolute slot) so
        // the draw is invariant under window position and store
        // composition; otherwise the historic (relative slot, dense id)
        // key, which keeps seed-reference results byte-identical.
        Rng rng =
            anchored
                ? master.Fork(store.source_name(s))
                      .Fork(static_cast<uint64_t>(
                          (slot.begin - config_.salt_anchor) /
                          config_.slot_length))
                : master.Fork(static_cast<uint64_t>(slot_idx) * ns + s);
        std::vector<int64_t> baseline;
        if (config_.baseline == L1Baseline::kIntensityProportional) {
          baseline =
              stats::Subsample(slot_events[slot_idx], sample_size, &rng);
          if (config_.baseline_jitter > 0) {
            for (int64_t& point : baseline) {
              point += rng.UniformInt(-config_.baseline_jitter,
                                      config_.baseline_jitter);
            }
          }
        } else {
          baseline =
              stats::UniformPoints(slot.begin, slot.end, sample_size, &rng);
        }
        if (!view.empty() && !baseline.empty()) {
          if (config_.baseline == L1Baseline::kIntensityProportional) {
            // Jittered subsamples arrive nearly (or fully) sorted.
            if (!std::is_sorted(baseline.begin(), baseline.end())) {
              std::sort(baseline.begin(), baseline.end());
            }
          } else {
            SortBounded(&baseline, slot.begin, slot.end);
          }
          std::vector<int64_t> dists;
          stats::DistancesToNearestSorted(baseline, view, &dists);
          if (auto ranks = ranks_for(dists.size())) {
            const auto lo = static_cast<size_t>(ranks->lower_rank);
            std::nth_element(dists.begin(),
                             dists.begin() + static_cast<ptrdiff_t>(lo - 1),
                             dists.end());
            // dist < lower <=> dist <= radius, with closed intervals
            // merged whenever they touch or overlap so the flattened
            // boundary list is strictly increasing.
            const int64_t radius = dists[lo - 1] - 1;
            if (radius >= 0) {
              int64_t cur_start = view.front() - radius;
              int64_t cur_end = view.front() + radius;
              for (int64_t t : view.subspan(1)) {
                if (t - radius <= cur_end + 1) {
                  cur_end = t + radius;
                } else {
                  ref.near_bounds.push_back(cur_start);
                  ref.near_bounds.push_back(cur_end + 1);
                  ref.near_total += cur_end + 1 - cur_start;
                  cur_start = t - radius;
                  cur_end = t + radius;
                }
              }
              ref.near_bounds.push_back(cur_start);
              ref.near_bounds.push_back(cur_end + 1);
              ref.near_total += cur_end + 1 - cur_start;
              uint32_t* cells = cell_arena.get() + cell_offset[job_idx];
              FillCellIndex(ref.near_bounds, slot, cells);
              ref.cells = cells;
              ref.cell_origin = slot.begin;
              ref.cell_shift = CellShift(slot);
              // Sentinel for the phase-1b forward scan: every point is
              // below it, so the scan needs no bounds check.
              ref.near_bounds.push_back(INT64_MAX);
            }
          }
        }
        ref.sub_sorted = stats::Subsample(view, sample_size, &rng);
        // Selection-sampled subsamples of the (sorted) view come back in
        // pool order; only the reservoir path needs the sort.
        if (!std::is_sorted(ref.sub_sorted.begin(), ref.sub_sorted.end())) {
          std::sort(ref.sub_sorted.begin(), ref.sub_sorted.end());
        }
        if (auto ranks = ranks_for(ref.sub_sorted.size())) {
          ref.test_upper_rank = ranks->upper_rank;
        }
      },
      config_.num_threads);

  // Phase 1b — the tests, resharded to (slot, pair-range) work items:
  // `pair_chunk` consecutive PairTests per item, so a handful of heavy
  // slots spread across the whole pool instead of serializing it. No
  // RNG draws happen here at all (every sample was fixed in phase 1a),
  // and each item writes only its own outcome slot, so any schedule
  // produces the same bytes. A pair is positive when B's subsample sits
  // closer to A than the baseline does (upper CI_b < lower CI_r) in
  // *both* directions. The comparison uses the order-statistic identity
  //   x_(r) < L  <=>  #{ x_i < L } >= r,
  // so each direction counts S_b's points inside A's near set — no
  // distance array, no selection, no touching A's view. Each point is
  // one table lookup: its cell gives the boundaries before the cell, a
  // short forward scan the boundaries before the point, and that count's
  // parity whether it is inside, added without a branch. The count stops
  // the moment the outcome is decided (`need` hits, or more misses than
  // the budget allows).
  auto direction_positive = [](const SlotSourceRef& target,
                               const SlotSourceRef& reference) {
    if (reference.cells == nullptr || target.test_upper_rank == 0) {
      return false;
    }
    const int64_t* bounds = reference.near_bounds.data();
    const uint32_t* cells = reference.cells;
    const size_t n = target.sub_sorted.size();
    const size_t need = static_cast<size_t>(target.test_upper_rank);
    const size_t miss_budget = n - need;
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t p = target.sub_sorted[i];
      size_t j = cells[static_cast<uint64_t>(p - reference.cell_origin) >>
                       reference.cell_shift];
      // A cell usually holds at most one boundary: take that step without
      // a branch, and scan on only in the rare crowded cell.
      j += bounds[j] <= p;
      while (bounds[j] <= p) ++j;
      hits += j & 1;
      if (hits >= need) return true;
      if (i + 1 - hits > miss_budget) return false;
    }
    return false;
  };
  std::vector<uint8_t> positive(items.size(), 0);
  Executor::Shared().ParallelForChunks(
      items.size(), std::max<size_t>(config_.pair_chunk, 1),
      [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t k = chunk_begin; k < chunk_end; ++k) {
          const PairTest& item = items[k];
          const size_t base = static_cast<size_t>(item.slot) * ns;
          const SlotSourceRef& ref_a = refs[base + item.a];
          const SlotSourceRef& ref_b = refs[base + item.b];
          // Evaluate the narrower-reference direction first: it is the
          // one more likely negative, so the short-circuit AND usually
          // skips the other direction. && is commutative here, so the
          // outcome (and the result bytes) do not depend on the order.
          const bool positive_both =
              ref_a.near_total <= ref_b.near_total
                  ? direction_positive(ref_b, ref_a) &&
                        direction_positive(ref_a, ref_b)
                  : direction_positive(ref_a, ref_b) &&
                        direction_positive(ref_b, ref_a);
          if (positive_both) positive[k] = 1;
        }
      },
      config_.num_threads);

  // Phase 2 — serial merge in (a, b) order. Support comes straight from
  // the census (identical for tested and pruned pairs); positives
  // accumulate from the outcome array in item order.
  std::vector<size_t> pair_index(ns * ns, SIZE_MAX);
  result.pairs.reserve(
      static_cast<size_t>(result.pairs_tested + result.pairs_pruned));
  for (uint32_t a = 0; a < num_sources; ++a) {
    for (uint32_t b = a + 1; b < num_sources; ++b) {
      const size_t key = a * ns + b;
      if (support[key] == 0 || !in_range(a, b)) continue;
      pair_index[key] = result.pairs.size();
      L1PairResult pr;
      pr.a = a;
      pr.b = b;
      pr.slots_total = static_cast<int>(num_slots);
      pr.slots_supported = support[key];
      result.pairs.push_back(pr);
    }
  }
  for (size_t k = 0; k < items.size(); ++k) {
    if (positive[k]) {
      ++result.pairs[pair_index[items[k].a * ns + items[k].b]]
            .slots_positive;
    }
  }
  // Zeroing the positives of pairs that cannot reach the support keeps
  // the pruned and unpruned paths byte-identical (the unpruned path may
  // have tested them).
  for (L1PairResult& pr : result.pairs) DecideL1Pair(config_, &pr);
  return result;
}

void DecideL1Pair(const L1Config& config, L1PairResult* pair) {
  const bool reaches =
      L1ReachesSupport(config, pair->slots_total, pair->slots_supported);
  if (!reaches) pair->slots_positive = 0;
  pair->positive_ratio =
      pair->slots_supported == 0
          ? 0.0
          : static_cast<double>(pair->slots_positive) /
                static_cast<double>(pair->slots_supported);
  pair->dependent = reaches && pair->positive_ratio >= config.th_pr;
}

DependencyModel L1Result::Dependencies(const LogStore& store) const {
  DependencyModel model;
  for (const L1PairResult& pr : pairs) {
    if (pr.dependent) {
      model.Insert(MakeUnorderedPair(store.source_name(pr.a),
                                     store.source_name(pr.b)));
    }
  }
  return model;
}

}  // namespace logmine::core
