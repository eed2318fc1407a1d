// Throughput microbenchmarks (google-benchmark) for the substrate and
// the three miners. The paper's §5 claims "all algorithms scale linearly
// with respect to the number of logs"; the *_Complexity counters below
// let that be checked directly (the per-log cost should be flat across
// corpus sizes).

#include <benchmark/benchmark.h>

#include "core/l1_activity_miner.h"
#include "core/l2_cooccurrence_miner.h"
#include "core/l3_text_miner.h"
#include "eval/dataset.h"
#include "log/codec.h"
#include "log/columnar.h"
#include "simulation/hug_scenario.h"
#include "simulation/simulator.h"
#include "stats/association_tests.h"

namespace {

using namespace logmine;

// Shared fixture: one small corpus per scale, built lazily and cached.
const eval::Dataset& CorpusAt(double scale) {
  static std::map<double, eval::Dataset>* cache =
      new std::map<double, eval::Dataset>();
  auto it = cache->find(scale);
  if (it == cache->end()) {
    eval::DatasetConfig config;
    config.simulation.num_days = 1;
    config.simulation.scale = scale;
    auto built = eval::BuildDataset(config);
    if (!built.ok()) std::abort();
    it = cache->emplace(scale, std::move(built).value()).first;
  }
  return it->second;
}

double ScaleArg(const benchmark::State& state) {
  return static_cast<double>(state.range(0)) / 100.0;
}

void BM_SimulatorGenerate(benchmark::State& state) {
  sim::HugScenarioConfig scenario_config;
  auto scenario = sim::BuildHugScenario(scenario_config);
  if (!scenario.ok()) std::abort();
  sim::SimulationConfig config;
  config.num_days = 1;
  config.scale = ScaleArg(state);
  int64_t logs = 0;
  for (auto _ : state) {
    sim::Simulator simulator(scenario.value().topology,
                             scenario.value().directory, config);
    LogStore store;
    sim::SimulationSummary summary;
    if (!simulator.Run(&store, &summary).ok()) std::abort();
    logs = summary.total_logs;
    benchmark::DoNotOptimize(store);
  }
  state.counters["logs"] = static_cast<double>(logs);
  state.counters["ns/log"] = benchmark::Counter(
      static_cast<double>(logs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulatorGenerate)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_CodecEncode(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  std::vector<LogRecord> records;
  for (size_t i = 0; i < 2000; ++i) {
    records.push_back(dataset.store.GetRecord(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LineCodec::EncodeAll(records));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_CodecEncode)->Unit(benchmark::kMicrosecond);

void BM_CodecDecode(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  std::vector<LogRecord> records;
  for (size_t i = 0; i < 2000; ++i) {
    records.push_back(dataset.store.GetRecord(i));
  }
  const std::string text = LineCodec::EncodeAll(records);
  for (auto _ : state) {
    auto decoded = LineCodec::DecodeAll(text);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_CodecDecode)->Unit(benchmark::kMicrosecond);

void BM_StoreAppendAndIndex(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  std::vector<LogRecord> records;
  for (size_t i = 0; i < dataset.store.size(); i += 4) {
    records.push_back(dataset.store.GetRecord(i));
  }
  for (auto _ : state) {
    LogStore store;
    for (const LogRecord& record : records) {
      if (!store.Append(record).ok()) std::abort();
    }
    store.BuildIndex();
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_StoreAppendAndIndex)->Unit(benchmark::kMillisecond);

// Chunked text decode over the whole day-one corpus: Arg is
// DecodeOptions::num_chunks (1 = serial reference, 0 = auto, one chunk
// per executor worker).
void BM_CodecDecodeChunked(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  std::vector<LogRecord> records;
  records.reserve(dataset.store.size());
  for (size_t i = 0; i < dataset.store.size(); ++i) {
    records.push_back(dataset.store.GetRecord(i));
  }
  const std::string text = LineCodec::EncodeAll(records);
  DecodeOptions options;
  options.num_chunks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto decoded = LineCodec::DecodeAll(text, options, nullptr);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CodecDecodeChunked)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_ColumnarEncode(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeColumnar(dataset.store));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store.size()));
}
BENCHMARK(BM_ColumnarEncode)->Unit(benchmark::kMillisecond);

void BM_ColumnarDecode(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(0.05);
  const std::string bytes = EncodeColumnar(dataset.store);
  for (auto _ : state) {
    auto loaded = DecodeColumnar(bytes);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_ColumnarDecode)->Unit(benchmark::kMillisecond);

void BM_L1MineDay(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(ScaleArg(state));
  core::L1Config config;
  config.minlogs = 10;
  core::L1ActivityMiner miner(config);
  for (auto _ : state) {
    auto result = miner.Mine(dataset.store, dataset.day_begin(0),
                             dataset.day_end(0));
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store.size()));
}
BENCHMARK(BM_L1MineDay)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_L2MineDay(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(ScaleArg(state));
  core::L2CooccurrenceMiner miner{core::L2Config{}};
  for (auto _ : state) {
    auto result = miner.Mine(dataset.store, dataset.day_begin(0),
                             dataset.day_end(0));
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store.size()));
}
BENCHMARK(BM_L2MineDay)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_L3MineDay(benchmark::State& state) {
  const eval::Dataset& dataset = CorpusAt(ScaleArg(state));
  core::L3TextMiner miner(dataset.vocabulary, core::L3Config{});
  for (auto _ : state) {
    auto result = miner.Mine(dataset.store, dataset.day_begin(0),
                             dataset.day_end(0));
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store.size()));
}
BENCHMARK(BM_L3MineDay)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_MedianDistanceTest(benchmark::State& state) {
  Rng rng(7);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.UniformInt(0, kMillisPerHour));
    b.push_back(rng.UniformInt(0, kMillisPerHour));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  stats::MedianDistanceTestConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::MedianDistanceTest(a, b, 0, kMillisPerHour, config, &rng));
  }
}
BENCHMARK(BM_MedianDistanceTest)->Unit(benchmark::kMicrosecond);

void BM_DunningTest(benchmark::State& state) {
  stats::Contingency2x2 table{123, 456, 789, 101112};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::DunningLogLikelihood(table));
  }
}
BENCHMARK(BM_DunningTest);

}  // namespace

BENCHMARK_MAIN();
