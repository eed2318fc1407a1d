// perf_e2e: one benchmark from corpus file to answered query.
//
// Each run simulates its corpus from --seed, writes it to disk (set-up),
// then repeats one job for --seconds seconds, calling public APIs only:
//
//   text-1d      one simulated day written as a line-format text corpus.
//                Job: ReadCorpusFile -> MiningPipeline::Run -> publish a
//                serve::ModelGeneration -> 1000 DependencyGraph queries.
//                Text decode dominates this job.
//   columnar-7d  the paper's 7-day evaluation as a binary columnar
//                corpus. Job: one ReadCorpusFile, then per day Run ->
//                publish -> 1000 queries. No text is decoded; the columnar
//                read and the seven mines share the time.
//   stream-7d    the same 7 days replayed hour by hour (168 epochs,
//                closed loop: SubmitBatch + Drain) into a
//                StreamingMiningService that persists its state, publishes
//                every epoch and journals to disk, while one thread sends
//                ImpactOf/WhatDependsOn queries open-loop at 500/s.
//
// The landscape (topology, directory, defects) is the paper's hospital,
// fixed for every seed; --seed varies the simulated traffic. Landscapes
// drawn per seed differ by ~25 % in log volume, which would swamp every
// timing; traffic seeds differ by ~1 %.
//
// Every reported time but stream-7d's query latency is scaled by the
// run's reference factor (see bench/e2e/reference.h); --out keeps the
// unscaled values too.
//
// Every run checks its outputs (see the "checks" object of --out): a run
// whose outputs are wrong exits 1 after writing its report. With
// --trace=<file> the run alternates traced and untraced jobs, then makes
// attribution-only calls, and writes every span as Chrome trace JSON;
// bench/e2e/layers.py turns that file into the per-layer metrics.
//
// Usage: perf_e2e --workload=<text-1d|columnar-7d|stream-7d> [--seed=N]
//                 [--seconds=20] [--scale=1.0] [--work=<dir>]
//                 [--trace=<file>] [--out=<file>]
// Run it through bench/e2e/run.py, which builds it, fixes
// LOGMINE_EXECUTOR_THREADS=2 and prints the benchmark's result line.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/e2e/reference.h"
#include "bench/e2e/tracer.h"
#include "core/evaluation.h"
#include "core/model_tracker.h"
#include "core/pipeline.h"
#include "eval/dataset.h"
#include "log/columnar.h"
#include "log/corpus_io.h"
#include "obs/obs.h"
#include "serve/model_publisher.h"
#include "serve/sliding_window.h"
#include "serve/streaming_service.h"
#include "util/cli.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace logmine::e2e {
namespace {

namespace fs = std::filesystem;

/// The paper's landscape: the scenario seed every run shares.
constexpr uint64_t kLandscapeSeed = 20051206;
/// Set-up is repeated and its median reported, so work moved into
/// set-up shows. Five, because text-1d's set-up is mostly an fsync'd
/// 43 MB write whose time swings with the disk.
constexpr int kSetupReps = 5;
/// Fewest jobs per run, whatever --seconds says.
constexpr int kMinReps = 3;
constexpr int kQueriesPerPublish = 1000;
/// Open-loop query schedule of stream-7d: one query due every 2 ms.
constexpr int64_t kQueryPeriodNs = 2'000'000;
/// Obs-on/obs-off replay pairs of a traced run.
constexpr int kObsPairs = 3;
/// Job numbers of spans outside the repeated jobs.
constexpr int64_t kSetupJob = -1;
constexpr int64_t kAttributionJob = -2;

enum class Workload { kText1d, kColumnar7d, kStream7d };

struct Options {
  Workload workload = Workload::kText1d;
  std::string name;
  uint64_t seed = 20051206;
  double seconds = 20;
  double scale = 1.0;
  std::string work_dir;
  std::string trace_path;
  std::string out_path;

  bool stream() const { return workload == Workload::kStream7d; }
  int days() const { return workload == Workload::kText1d ? 1 : 7; }
  std::string Work(const char* file) const {
    return (fs::path(work_dir) / file).string();
  }
};

/// Quantile `q` of `values` (0 for none): the mean of the samples ranked
/// within ±w of q, w = min(0.05, (1 - q) / 2), or the linear
/// interpolation between the two nearest ranks when no sample falls in
/// that band. Unlike one order statistic, the band mean keeps every digit
/// of sub-microsecond timings that pile up on a few clock ticks.
/// bench/e2e/layers.py implements the same estimator.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  const double w = std::min(0.05, (1 - q) / 2);
  const auto lo = static_cast<size_t>(std::ceil((q - w) * last - 1e-9));
  const auto hi = static_cast<size_t>(std::floor((q + w) * last + 1e-9));
  if (lo <= hi) {
    double sum = 0;
    for (size_t i = lo; i <= hi; ++i) sum += values[i];
    return sum / static_cast<double>(hi - lo + 1);
  }
  const double rank = q * last;
  const auto below = static_cast<size_t>(rank);
  const size_t above = std::min(below + 1, values.size() - 1);
  return values[below] +
         (rank - static_cast<double>(below)) * (values[above] - values[below]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Resets the process's peak-RSS high-water mark (VmHWM) to its current
/// RSS, so the peak read after the jobs excludes set-up.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

/// FNV-1a over strings: the digest of query answers.
void Mix(uint64_t* hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *hash ^= c;
    *hash *= 0x100000001B3ull;
  }
  *hash ^= 0xFF;
  *hash *= 0x100000001B3ull;
}

struct Query {
  std::string component;
  bool transitive = false;  ///< ImpactOf when true, WhatDependsOn when not
};

/// What set-up leaves for the jobs: the corpus on disk plus the
/// landscape facts the jobs and checks need. The simulator's store is
/// freed before the jobs run.
struct Inputs {
  std::string corpus_path;
  int days = 1;
  TimeMs start = 0;
  std::vector<int64_t> logs_per_day;
  int64_t logs = 0;
  int64_t file_bytes = 0;
  core::ServiceVocabulary vocabulary;
  std::map<std::string, std::string> entry_owner;
  core::DependencyModel reference_pairs;
  int64_t universe_pairs = 0;
  std::vector<Query> queries;
  /// stream-7d only: the corpus read back from disk, split into epoch
  /// batches day by day during each replay.
  LogStore store;

  TimeMs day_begin(int day) const { return start + day * kMillisPerDay; }
};

/// The miners' configuration on every workload: the defaults, with L1's
/// random baselines keyed by source name and absolute hour (the
/// sliding-window miner's normalization). With the default keying by
/// dense source id, a text corpus — which interns sources in time order
/// — and the simulator's store — which interns them in emission order —
/// would draw different baselines and disagree on L1.
core::PipelineConfig MinerConfig() {
  core::PipelineConfig config;
  config.l1.salt_anchor = 0;
  return config;
}

eval::DatasetConfig DatasetConfigFor(const Options& options, int days) {
  eval::DatasetConfig config;
  config.scenario.seed = kLandscapeSeed;
  config.simulation.seed = options.seed + 1;
  config.simulation.scale = options.scale;
  config.simulation.num_days = days;
  return config;
}

/// Simulates, writes the corpus file and (stream-7d) reads it back.
/// Returns the inputs of the last of `kSetupReps` identical set-ups and
/// one wall-time sample per set-up; samples `reference` before each.
Result<Inputs> SetUp(const Options& options, Tracer* tracer,
                     Reference* reference, std::vector<double>* setup_s) {
  Inputs inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inputs = Inputs{};  // frees the previous set-up's store
    reference->Sample();
    Tracer::JobScope scope(kSetupJob);
    Tracer::Span span(tracer, "setup");
    const int64_t start_ns = WallNs();
    Result<eval::Dataset> built = [&] {
      Tracer::Span simulate(tracer, "setup.simulate");
      return eval::BuildDataset(DatasetConfigFor(options, options.days()));
    }();
    if (!built.ok()) return built.status();
    eval::Dataset dataset = std::move(built).value();

    inputs.days = options.days();
    inputs.start = dataset.day_begin(0);
    inputs.logs_per_day = dataset.summary.logs_per_day;
    inputs.logs = static_cast<int64_t>(dataset.store.size());
    inputs.vocabulary = dataset.vocabulary;
    inputs.entry_owner = dataset.entry_owner;
    inputs.reference_pairs = dataset.reference_pairs;
    inputs.universe_pairs = dataset.universe_pairs;
    // The question set belongs to the landscape, not to the day's
    // traffic: every seed asks the same 1000 questions.
    Rng rng = Rng(kLandscapeSeed).Fork("queries");
    const auto& apps = dataset.scenario.topology.apps;
    for (int i = 0; i < kQueriesPerPublish; ++i) {
      const auto app = rng.UniformInt(0, static_cast<int64_t>(apps.size()) - 1);
      inputs.queries.push_back(
          {apps[static_cast<size_t>(app)].name, rng.Bernoulli(0.5)});
    }

    const bool text = options.workload == Workload::kText1d;
    inputs.corpus_path = options.Work(text ? "corpus.txt" : "corpus.lmc");
    {
      Tracer::Span write(tracer, "setup.write");
      LOGMINE_RETURN_IF_ERROR(
          text ? WriteCorpusFile(dataset.store, inputs.corpus_path)
               : WriteColumnarFile(inputs.corpus_path, dataset.store));
    }
    inputs.file_bytes = FileBytes(inputs.corpus_path);
    dataset.store = LogStore{};
    if (options.stream()) {
      Tracer::Span read(tracer, "setup.read");
      LOGMINE_ASSIGN_OR_RETURN(inputs.store,
                               ReadCorpusFile(inputs.corpus_path));
    }
    setup_s->push_back(static_cast<double>(WallNs() - start_ns) / 1e9);
  }
  return inputs;
}

// --------------------------------------------------------------------
// Batch jobs (text-1d, columnar-7d)

struct DayModels {
  core::DependencyModel l1;
  core::DependencyModel l2;
  core::DependencyModel l3;

  bool operator==(const DayModels& other) const {
    return l1.pairs() == other.l1.pairs() && l2.pairs() == other.l2.pairs() &&
           l3.pairs() == other.l3.pairs();
  }
};

DayModels ModelsOf(const core::PipelineResult& result, const LogStore& store,
                   const core::ServiceVocabulary& vocabulary) {
  return {result.l1->Dependencies(store), result.l2->Dependencies(store),
          result.l3->Dependencies(store, vocabulary)};
}

double F1(const core::DependencyModel& predicted, const Inputs& inputs) {
  const core::ConfusionCounts counts = core::Evaluate(
      predicted, inputs.reference_pairs, inputs.universe_pairs);
  const double p = counts.precision();
  const double r = counts.recall();
  return p + r == 0 ? 0.0 : 2 * p * r / (p + r);
}

/// A batch run's result in the shape the serve layer publishes: the same
/// name-domain evidence a sliding-window mine of [begin, end) derives.
serve::WindowModelSet ToWindowModels(const core::PipelineResult& result,
                                     const LogStore& store,
                                     const core::ServiceVocabulary& vocabulary,
                                     const DayModels& models, TimeMs begin,
                                     TimeMs end) {
  serve::WindowModelSet window;
  window.window_begin = begin;
  window.window_end = end;
  window.slots_total = result.l1->slots_total;
  for (const core::L1PairResult& pair : result.l1->pairs) {
    window.l1_pairs.push_back(
        {core::MakeUnorderedPair(store.source_name(pair.a),
                                 store.source_name(pair.b)),
         pair.slots_supported, pair.slots_positive, pair.positive_ratio,
         pair.dependent});
  }
  std::sort(window.l1_pairs.begin(), window.l1_pairs.end(),
            [](const auto& a, const auto& b) { return a.names < b.names; });
  for (const core::L2PairScore& score : result.l2->scored) {
    window.l2_scores.push_back(
        {std::string(store.source_name(score.a)),
         std::string(store.source_name(score.b)), score.table.o11,
         score.score, score.p_value, score.dependent});
  }
  std::sort(window.l2_scores.begin(), window.l2_scores.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });
  window.session_stats = result.l2->session_stats;
  window.num_bigrams = result.l2->num_bigrams;
  for (const core::L3Citation& citation : result.l3->citations) {
    window.citations.push_back({std::string(store.source_name(citation.app)),
                                vocabulary.entries[citation.entry].id,
                                citation.count, citation.dependent});
  }
  std::sort(window.citations.begin(), window.citations.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.app, a.entry_id) < std::tie(b.app, b.entry_id);
            });
  window.logs_scanned = result.l3->logs_scanned;
  window.logs_stopped = result.l3->logs_stopped;
  window.l1 = models.l1;
  window.l2 = models.l2;
  window.l3 = models.l3;
  window.combined = models.l1.Union(models.l2);
  return window;
}

/// Builds, serializes, durably writes and publishes one generation.
Result<std::shared_ptr<const serve::ModelGeneration>> Publish(
    const core::PipelineResult& result, const LogStore& store,
    const Inputs& inputs, const DayModels& models, TimeMs begin, TimeMs end,
    int64_t number, core::ModelTracker* model_tracker,
    serve::ModelPublisher* publisher, const std::string& path,
    Tracer* tracer) {
  Tracer::Span span(tracer, "serve.publish");
  auto generation = std::make_shared<serve::ModelGeneration>();
  generation->number = number;
  generation->window_begin = begin;
  generation->window_end = end;
  generation->epochs_ingested = (end - inputs.start) / kMillisPerHour;
  generation->models =
      ToWindowModels(result, store, inputs.vocabulary, models, begin, end);
  model_tracker->Observe(generation->models.combined);
  generation->tracker_active = model_tracker->ActiveModel();
  {
    Tracer::Span graph(tracer, "serve.graph");
    generation->graph =
        serve::BuildQueryGraph(generation->models, generation->tracker_active,
                               inputs.entry_owner);
  }
  std::string bytes;
  {
    Tracer::Span serialize(tracer, "serve.serialize");
    bytes = serve::SerializeGeneration(*generation);
    generation->self_crc = Crc32(bytes);
    serialize.Arg("bytes", static_cast<double>(bytes.size()));
  }
  {
    Tracer::Span write(tracer, "serve.write");
    LOGMINE_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  }
  publisher->Publish(generation);
  return std::shared_ptr<const serve::ModelGeneration>(std::move(generation));
}

struct BatchJob {
  int64_t job_ns = 0;
  int64_t cpu_ns = 0;
  int64_t logs = 0;
  int64_t attempted = 0;
  std::vector<double> freshness_ms;
  /// Per published generation: the mean time of its 1000 queries.
  /// Sub-microsecond lookups are timed as a set, not one by one.
  std::vector<double> query_ns;
  std::vector<DayModels> models;  ///< per day
  std::vector<std::shared_ptr<const serve::ModelGeneration>> generations;
  uint64_t answers = 0xCBF29CE484222325ull;  ///< digest of query answers
};

/// One batch job: read the corpus file, then per day mine, publish and
/// answer the query set against the published generation.
Result<BatchJob> RunBatchJob(const Inputs& inputs,
                             const core::MiningPipeline& pipeline,
                             const std::string& generation_path,
                             Tracer* tracer) {
  BatchJob job;
  serve::ModelPublisher publisher;
  core::ModelTracker model_tracker(core::ModelTrackerConfig{});
  const int64_t cpu_start = CpuNs();
  const int64_t start_ns = WallNs();
  Result<LogStore> read = [&] {
    Tracer::Span span(tracer, "log.read");
    span.Arg("logs", static_cast<double>(inputs.logs));
    span.Arg("bytes", static_cast<double>(inputs.file_bytes));
    return ReadCorpusFile(inputs.corpus_path);
  }();
  ++job.attempted;
  if (!read.ok()) return read.status();
  const LogStore& store = read.value();
  job.logs = static_cast<int64_t>(store.size());

  for (int day = 0; day < inputs.days; ++day) {
    const TimeMs begin = inputs.day_begin(day);
    const TimeMs end = begin + kMillisPerDay;
    Result<core::PipelineResult> run = [&] {
      Tracer::Span span(tracer, "core.pipeline");
      span.Arg("logs", static_cast<double>(inputs.logs_per_day[day]));
      return pipeline.Run(store, begin, end);
    }();
    job.attempted += 3;  // one per miner
    if (!run.ok()) return run.status();
    if (!run.value().all_ok()) return run.value().first_error();
    job.models.push_back(ModelsOf(run.value(), store, inputs.vocabulary));

    ++job.attempted;
    LOGMINE_ASSIGN_OR_RETURN(
        auto generation,
        Publish(run.value(), store, inputs, job.models.back(), begin, end,
                day + 1, &model_tracker, &publisher, generation_path, tracer));
    job.generations.push_back(generation);
    job.freshness_ms.push_back(static_cast<double>(WallNs() - start_ns) / 1e6);

    Tracer::Span queries(tracer, "core.graph.queries");
    const std::shared_ptr<const serve::ModelGeneration> current =
        publisher.Current();
    int64_t answering_ns = 0;  // excludes digesting the answers
    for (const Query& query : inputs.queries) {
      const int64_t query_start = WallNs();
      std::set<std::string> answer;
      {
        Tracer::Span span(tracer, "core.graph.query", /*cpu=*/false);
        answer = query.transitive
                     ? current->graph.ImpactSet(query.component)
                     : current->graph.DependentsOf(query.component);
      }
      answering_ns += WallNs() - query_start;
      for (const std::string& name : answer) Mix(&job.answers, name);
      Mix(&job.answers, "|");
    }
    job.query_ns.push_back(static_cast<double>(answering_ns) /
                           kQueriesPerPublish);
    job.attempted += kQueriesPerPublish;
  }
  job.job_ns = WallNs() - start_ns;
  job.cpu_ns = CpuNs() - cpu_start;
  return job;
}

/// ParseGeneration(SerializeGeneration(g)) must rebuild `g` whole.
bool RoundTrips(const serve::ModelGeneration& generation,
                const std::map<std::string, std::string>& entry_owner) {
  const std::string bytes = serve::SerializeGeneration(generation);
  Result<serve::ModelGeneration> parsed =
      serve::ParseGeneration(bytes, entry_owner);
  return parsed.ok() && parsed.value().self_crc == generation.self_crc &&
         serve::SerializeGeneration(parsed.value()) == bytes;
}

// --------------------------------------------------------------------
// Stream replay (stream-7d's job; attribution on the batch workloads)

struct Replay {
  int64_t job_ns = 0;  ///< sum of SubmitBatch -> published intervals
  int64_t cpu_ns = 0;  ///< process CPU over the same intervals
  int64_t logs = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> freshness_ms;
  std::vector<double> query_ms;  ///< from each query's due time
  std::vector<uint32_t> crcs;    ///< every published generation, in order
  bool round_trips = true;
  bool covered = true;  ///< every epoch's generation was current after it
  std::shared_ptr<const serve::ModelGeneration> final_generation;
  int64_t journal_events = 0;
  int64_t journal_bytes = 0;
  int64_t state_bytes = 0;
};

/// Replays days [0, days) of `store` epoch by epoch into a fresh
/// service, with an open-loop query sender once the first generation is
/// published. Epoch batches are split from the store a day at a time,
/// outside the timed intervals. The sender's spans are children of span
/// `parent` of job `job`.
Result<Replay> RunReplay(const LogStore& store, const Inputs& inputs,
                         const Options& options, int days, bool obs_on,
                         Tracer* tracer, int64_t parent, int64_t job) {
  const std::string state_path = options.Work("service.state");
  const std::string journal_path = options.Work("journal.jsonl");
  for (const char* suffix : {"", ".1", ".2"}) {
    fs::remove(journal_path + suffix);
  }
  fs::remove(state_path);
  std::optional<obs::ObsContext> context;
  if (obs_on) {
    obs::ObsOptions obs_options;
    obs_options.journal.path = journal_path;
    context.emplace(obs_options);
  }
  serve::ServiceConfig config;
  config.window.vocabulary = inputs.vocabulary;
  config.entry_owner = inputs.entry_owner;
  config.publish_every_epochs = 1;
  config.state_path = state_path;
  config.obs = context ? &*context : nullptr;
  LOGMINE_ASSIGN_OR_RETURN(std::unique_ptr<serve::StreamingMiningService> service,
                           serve::StreamingMiningService::Create(config));

  Replay replay;
  std::atomic<bool> stop{false};
  std::thread sender;
  int64_t sent = 0, failed_queries = 0;
  auto send_queries = [&] {
    Tracer::Adopt adopt(parent, job);
    const auto start = std::chrono::steady_clock::now();
    for (int64_t k = 0;; ++k) {
      const auto due = start + std::chrono::nanoseconds(k * kQueryPeriodNs);
      while (std::chrono::steady_clock::now() < due) {
        if (stop.load()) return;
        std::this_thread::sleep_until(
            std::min(due, std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(5)));
      }
      if (stop.load()) return;
      const auto issued = std::chrono::steady_clock::now();
      const Query& query = inputs.queries[static_cast<size_t>(k) %
                                          inputs.queries.size()];
      bool ok = false;
      {
        Tracer::Span span(tracer, "serve.query", /*cpu=*/false);
        span.Arg("lag_ns",
                 static_cast<double>((issued - due).count()));
        ok = (query.transitive ? service->ImpactOf(query.component)
                               : service->WhatDependsOn(query.component))
                 .ok();
      }
      const auto done = std::chrono::steady_clock::now();
      ++sent;
      if (!ok) ++failed_queries;
      replay.query_ms.push_back(
          std::chrono::duration<double, std::milli>(done - due).count());
    }
  };
  // Joins the sender on every exit path, error returns included.
  struct Joiner {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~Joiner() {
      stop->store(true);
      if (thread->joinable()) thread->join();
    }
  } joiner{&stop, &sender};

  for (int day = 0; day < days; ++day) {
    LOGMINE_ASSIGN_OR_RETURN(
        std::vector<serve::EpochBatch> batches,
        serve::SplitIntoEpochBatches(store, inputs.day_begin(day),
                                     inputs.day_begin(day) + kMillisPerDay,
                                     kMillisPerHour));
    for (serve::EpochBatch& batch : batches) {
      const TimeMs batch_end = batch.end;
      replay.logs += static_cast<int64_t>(batch.records.size());
      ++replay.attempted;
      const int64_t cpu_start = CpuNs();
      const int64_t start_ns = WallNs();
      const serve::SubmitResult submitted =
          service->SubmitBatch(std::move(batch));
      {
        Tracer::Span step(tracer, "serve.step");
        LOGMINE_RETURN_IF_ERROR(service->Drain().status());
      }
      std::shared_ptr<const serve::ModelGeneration> current =
          service->CurrentModel();
      const int64_t end_ns = WallNs();
      replay.job_ns += end_ns - start_ns;
      replay.cpu_ns += CpuNs() - cpu_start;
      replay.freshness_ms.push_back(static_cast<double>(end_ns - start_ns) /
                                    1e6);
      if (submitted.outcome != serve::SubmitOutcome::kAccepted) {
        ++replay.failed;
      }
      if (current == nullptr || current->window_end != batch_end) {
        replay.covered = false;
        ++replay.failed;
        continue;
      }
      replay.crcs.push_back(current->self_crc);
      replay.round_trips =
          replay.round_trips && RoundTrips(*current, inputs.entry_owner);
      replay.final_generation = std::move(current);
      if (!sender.joinable()) sender = std::thread(send_queries);
    }
  }
  stop.store(true);
  if (sender.joinable()) sender.join();
  const serve::ServiceStats stats = service->stats();
  replay.failed += stats.batches_poisoned;
  replay.attempted += sent;
  replay.failed += failed_queries;
  replay.state_bytes = FileBytes(state_path);
  if (context) {
    replay.journal_events =
        static_cast<int64_t>(context->journal().events_emitted());
    for (const char* suffix : {"", ".1", ".2"}) {
      replay.journal_bytes += FileBytes(journal_path + suffix);
    }
  }
  return replay;
}

// --------------------------------------------------------------------
// Attribution-only calls of a traced run

/// Spans for layers the jobs only call inside larger spans, or do not
/// call at all on this workload. Runs after the jobs, outside every job
/// span; `store` is the corpus read back from disk.
Status Attribute(const LogStore& store, const Inputs& inputs,
                 const Options& options,
                 const core::MiningPipeline& pipeline, Tracer* tracer) {
  Tracer::JobScope scope(kAttributionJob);
  const TimeMs begin = inputs.day_begin(0);
  const TimeMs end = begin + kMillisPerDay;
  const double day_logs = static_cast<double>(inputs.logs_per_day[0]);
  const core::PipelineConfig& config = pipeline.config();
  {
    LOGMINE_ASSIGN_OR_RETURN(LogStore copy,
                             DecodeColumnar(EncodeColumnar(store)));
    Tracer::Span span(tracer, "log.index");
    span.Arg("logs", static_cast<double>(copy.size()));
    copy.BuildIndex();
  }
  {
    Tracer::Span span(tracer, "core.l1");
    span.Arg("logs", day_logs);
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L1Result l1,
        core::L1ActivityMiner(config.l1).Mine(store, begin, end));
    span.Arg("pairs_tested", static_cast<double>(l1.pairs_tested));
    span.Arg("pairs_pruned", static_cast<double>(l1.pairs_pruned));
  }
  {
    Tracer::Span span(tracer, "core.l2");
    span.Arg("logs", day_logs);
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L2Result l2,
        core::L2CooccurrenceMiner(config.l2).Mine(store, begin, end));
    span.Arg("sessions", static_cast<double>(l2.session_stats.num_sessions));
    span.Arg("bigrams", static_cast<double>(l2.num_bigrams));
  }
  {
    Tracer::Span span(tracer, "core.l3");
    span.Arg("logs", day_logs);
    LOGMINE_ASSIGN_OR_RETURN(
        const core::L3Result l3,
        core::L3TextMiner(inputs.vocabulary, config.l3)
            .Mine(store, begin, end));
    int64_t citations = 0;
    for (const core::L3Citation& citation : l3.citations) {
      citations += citation.count;
    }
    span.Arg("scanned", static_cast<double>(l3.logs_scanned));
    span.Arg("stopped", static_cast<double>(l3.logs_stopped));
    span.Arg("citations", static_cast<double>(citations));
  }
  {
    Tracer::Span span(tracer, "core.pipeline.week");
    span.Arg("logs", static_cast<double>(inputs.logs));
    LOGMINE_ASSIGN_OR_RETURN(
        const core::PipelineResult week,
        pipeline.Run(store, begin, inputs.day_begin(inputs.days)));
    LOGMINE_RETURN_IF_ERROR(week.first_error());
  }
  {
    serve::SlidingWindowConfig window;
    window.vocabulary = inputs.vocabulary;
    LOGMINE_ASSIGN_OR_RETURN(serve::SlidingWindowMiner miner,
                             serve::SlidingWindowMiner::Create(window));
    LOGMINE_ASSIGN_OR_RETURN(
        const std::vector<serve::EpochBatch> batches,
        serve::SplitIntoEpochBatches(store, begin, end, kMillisPerHour));
    for (const serve::EpochBatch& batch : batches) {
      {
        Tracer::Span span(tracer, "serve.window.ingest");
        span.Arg("logs", static_cast<double>(batch.records.size()));
        LOGMINE_RETURN_IF_ERROR(miner.IngestEpoch(batch));
      }
      Tracer::Span span(tracer, "serve.window.mine");
      LOGMINE_RETURN_IF_ERROR(miner.MineWindow().status());
    }
  }
  if (options.stream()) {
    // The batch path stream-7d never takes: one columnar-7d job over the
    // same corpus file.
    Tracer::Span span(tracer, "job.batch");
    LOGMINE_RETURN_IF_ERROR(
        RunBatchJob(inputs, pipeline, options.Work("generation.bin"), tracer)
            .status());
  }
  // Obs-on/obs-off replay pairs, alternating which side runs first. The
  // batch workloads replay their first day; stream-7d its whole week.
  const int replay_days = options.stream() ? inputs.days : 1;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    for (int side = 0; side < 2; ++side) {
      const bool obs_on = (pair + side) % 2 == 0;
      Tracer::Span span(tracer, "obs.replay");
      LOGMINE_ASSIGN_OR_RETURN(
          const Replay replay,
          RunReplay(store, inputs, options, replay_days, obs_on, tracer,
                    span.id(), kAttributionJob));
      span.Arg("obs", obs_on ? 1 : 0);
      span.Arg("pair", pair);
      span.Arg("logs", static_cast<double>(replay.logs));
      span.Arg("job_ns", static_cast<double>(replay.job_ns));
      span.Arg("step_cpu_ns", static_cast<double>(replay.cpu_ns));
      span.Arg("state_bytes", static_cast<double>(replay.state_bytes));
      span.Arg("journal_events", static_cast<double>(replay.journal_events));
      span.Arg("journal_bytes", static_cast<double>(replay.journal_bytes));
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------------
// Report

class Checks {
 public:
  void Expect(const std::string& name, bool ok) {
    items_.emplace_back(name, ok);
    if (!ok) std::cerr << "[perf_e2e] CHECK FAILED: " << name << "\n";
  }
  bool ok() const {
    return std::all_of(items_.begin(), items_.end(),
                       [](const auto& item) { return item.second; });
  }
  const std::vector<std::pair<std::string, bool>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, bool>> items_;
};

struct Metric {
  const char* name;
  double raw;
  const char* unit;
  bool time;  ///< scaled by the run's reference factor when reported
};

/// Samples every job of a run contributes to the end-to-end metrics.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> job_s;
  std::vector<double> cpu_ns_per_log;
  std::vector<double> freshness_ms;
  std::vector<double> query_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

void PutSamples(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ", ") << values[i];
  }
  os << "]";
}

/// The run's shape: every field a comparison of two sets of runs must
/// agree on, plus the seed and repetition count of this run.
std::string StampJson(const Options& options, int reps) {
  std::ostringstream os;
  os.precision(17);
  const char* threads = std::getenv("LOGMINE_EXECUTOR_THREADS");
  os << "{\"bench\": \"perf_e2e\", \"workload\": \"" << options.name
     << "\", \"seed\": " << options.seed << ", \"scale\": " << options.scale
     << ", \"seconds\": " << options.seconds
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"executor_threads\": "
     << (threads == nullptr ? "null" : "\"" + std::string(threads) + "\"")
     << ", \"pool_workers\": " << Executor::Shared().num_workers()
     << ", \"reps\": " << reps << ", \"setup_reps\": " << kSetupReps
     << ", \"traced\": " << (options.trace_path.empty() ? "false" : "true")
     << "}";
  return os.str();
}

Status WriteReport(const Options& options, int reps, int64_t logs_per_job,
                   const Samples& samples, const std::vector<Metric>& metrics,
                   const Reference& reference, double model_f1,
                   const Checks& checks) {
  std::ofstream out(options.out_path);
  if (!out) return Status::Internal("cannot open " + options.out_path);
  out.precision(17);
  out << "{\"stamp\": " << StampJson(options, reps)
      << ",\n \"logs_per_job\": " << logs_per_job
      << ",\n \"correct\": " << (checks.ok() ? "true" : "false")
      << ",\n \"checks\": {";
  const char* separator = "";
  for (const auto& [name, ok] : checks.items()) {
    out << separator << "\"" << name << "\": " << (ok ? "true" : "false");
    separator = ", ";
  }
  out << "},\n \"attempted\": " << samples.attempted
      << ", \"failed\": " << samples.failed
      << ",\n \"quality\": {\"model_f1\": " << model_f1 << "}"
      << ",\n \"reference\": {\"factor\": " << reference.factor()
      << ", \"median_ns\": " << reference.median_ns()
      << ", \"samples\": " << reference.samples() << "}";
  for (const bool scaled : {true, false}) {
    out << ",\n \"" << (scaled ? "metrics" : "raw_metrics") << "\": {";
    separator = "";
    for (const Metric& metric : metrics) {
      const double value =
          scaled && metric.time ? metric.raw * reference.factor() : metric.raw;
      out << separator << "\"" << metric.name << "\": {\"value\": " << value
          << ", \"unit\": \"" << metric.unit << "\"}";
      separator = ", ";
    }
    out << "}";
  }
  out << ",\n \"samples\": {\"setup_s\": ";
  PutSamples(out, samples.setup_s);
  out << ", \"job_s\": ";
  PutSamples(out, samples.job_s);
  out << ", \"cpu_ns_per_log\": ";
  PutSamples(out, samples.cpu_ns_per_log);
  out << "}}\n";
  out.close();
  if (!out) return Status::Internal("cannot write " + options.out_path);
  return Status::OK();
}

Result<Options> ParseOptions(int argc, char** argv) {
  CliFlags flags;
  LOGMINE_RETURN_IF_ERROR(flags.Parse(argc, argv));
  Options options;
  options.name = flags.GetString("workload", "");
  if (options.name == "text-1d") {
    options.workload = Workload::kText1d;
  } else if (options.name == "columnar-7d") {
    options.workload = Workload::kColumnar7d;
  } else if (options.name == "stream-7d") {
    options.workload = Workload::kStream7d;
  } else {
    return Status::InvalidArgument(
        "--workload must be text-1d, columnar-7d or stream-7d");
  }
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 20051206));
  options.seconds = flags.GetDouble("seconds", 20);
  options.scale = flags.GetDouble("scale", 1.0);
  if (!(options.seconds > 0) || !(options.scale > 0)) {
    return Status::InvalidArgument("--seconds and --scale must be positive");
  }
  options.work_dir = flags.GetString("work", "perf_e2e_work");
  options.trace_path = flags.GetString("trace", "");
  options.out_path = flags.GetString("out", "");
  return options;
}

int Main(int argc, char** argv) {
  Result<Options> parsed = ParseOptions(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 2;
  }
  const Options options = std::move(parsed).value();
  auto fail = [](const Status& status) {
    std::cerr << "[perf_e2e] " << status << "\n";
    return 1;
  };
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  if (ec) return fail(Status::Internal("cannot create " + options.work_dir));

  Tracer tracer;
  Tracer* const tracing = options.trace_path.empty() ? nullptr : &tracer;
  Reference reference;
  Samples samples;
  std::cerr << "[perf_e2e] " << options.name << " seed=" << options.seed
            << ": set-up x" << kSetupReps << "\n";
  Result<Inputs> set_up =
      SetUp(options, tracing, &reference, &samples.setup_s);
  if (!set_up.ok()) return fail(set_up.status());
  const Inputs inputs = std::move(set_up).value();
  ResetPeakRss();

  const core::MiningPipeline pipeline(inputs.vocabulary, MinerConfig());
  Checks checks;
  double model_f1 = 0;
  int64_t logs_per_job = 0;
  std::vector<DayModels> day_models;  // first job's, per day
  std::vector<uint32_t> first_crcs;   // first job's generations
  uint64_t first_answers = 0;
  std::shared_ptr<const serve::ModelGeneration> final_generation;
  bool round_trips = true, same_generations = true, same_models = true,
       same_answers = true, covered = true;

  // In a traced run odd-numbered jobs are traced and even ones are not,
  // so the trace carries its own overhead.
  const int64_t deadline =
      WallNs() + static_cast<int64_t>(options.seconds * 1e9);
  int reps = 0;
  for (; reps < kMinReps || WallNs() < deadline; ++reps) {
    reference.Sample();
    Tracer::JobScope scope(reps);
    Tracer::Span job_span(tracing, "job");
    Tracer* const traced = reps % 2 == 1 ? tracing : nullptr;
    int64_t job_ns = 0, cpu_ns = 0, logs = 0;
    std::vector<uint32_t> crcs;
    if (options.stream()) {
      Result<Replay> replay =
          RunReplay(inputs.store, inputs, options, inputs.days,
                    /*obs_on=*/true, traced, job_span.id(), reps);
      if (!replay.ok()) return fail(replay.status());
      Replay& r = replay.value();
      job_ns = r.job_ns;
      cpu_ns = r.cpu_ns;
      logs = r.logs;
      crcs = std::move(r.crcs);
      samples.freshness_ms.insert(samples.freshness_ms.end(),
                                  r.freshness_ms.begin(),
                                  r.freshness_ms.end());
      samples.query_ms.insert(samples.query_ms.end(), r.query_ms.begin(),
                              r.query_ms.end());
      samples.attempted += r.attempted;
      samples.failed += r.failed;
      round_trips = round_trips && r.round_trips;
      covered = covered && r.covered;
      if (reps == 0) final_generation = r.final_generation;
      job_span.Arg("journal_events", static_cast<double>(r.journal_events));
      job_span.Arg("journal_bytes", static_cast<double>(r.journal_bytes));
      job_span.Arg("state_bytes", static_cast<double>(r.state_bytes));
    } else {
      Result<BatchJob> batch = RunBatchJob(
          inputs, pipeline, options.Work("generation.bin"), traced);
      if (!batch.ok()) return fail(batch.status());
      BatchJob& b = batch.value();
      job_ns = b.job_ns;
      cpu_ns = b.cpu_ns;
      logs = b.logs;
      samples.freshness_ms.insert(samples.freshness_ms.end(),
                                  b.freshness_ms.begin(),
                                  b.freshness_ms.end());
      for (double ns : b.query_ns) samples.query_ms.push_back(ns / 1e6);
      samples.attempted += b.attempted;
      for (const auto& generation : b.generations) {
        crcs.push_back(generation->self_crc);
        round_trips =
            round_trips && RoundTrips(*generation, inputs.entry_owner);
      }
      if (reps == 0) {
        day_models = std::move(b.models);
        first_answers = b.answers;
      } else {
        same_models = same_models && b.models == day_models;
        same_answers = same_answers && b.answers == first_answers;
      }
    }
    if (reps == 0) {
      first_crcs = crcs;
      logs_per_job = logs;
    } else {
      same_generations = same_generations && crcs == first_crcs;
    }
    samples.job_s.push_back(static_cast<double>(job_ns) / 1e9);
    samples.cpu_ns_per_log.push_back(static_cast<double>(cpu_ns) /
                                     static_cast<double>(logs));
    job_span.Arg("traced", traced != nullptr ? 1 : 0);
    job_span.Arg("job_ns", static_cast<double>(job_ns));
    job_span.Arg("cpu_ns", static_cast<double>(cpu_ns));
    job_span.Arg("logs", static_cast<double>(logs));
    std::cerr << "[perf_e2e] job " << reps << ": "
              << static_cast<double>(job_ns) / 1e9 << " s\n";
  }
  const double peak_rss_mb = PeakRssMb();

  // Correctness gate, outside every timed interval.
  checks.Expect("generations_round_trip", round_trips);
  checks.Expect("generations_identical_across_reps", same_generations);
  if (options.stream()) {
    checks.Expect("every_epoch_published", covered);
    bool window_matches = false;
    if (final_generation != nullptr) {
      Result<core::PipelineResult> batch =
          pipeline.Run(inputs.store, final_generation->window_begin,
                       final_generation->window_end);
      if (!batch.ok()) return fail(batch.status());
      const serve::WindowModelSet& window = final_generation->models;
      window_matches =
          batch.value().all_ok() &&
          ModelsOf(batch.value(), inputs.store, inputs.vocabulary) ==
              DayModels{window.l1, window.l2, window.l3};
      model_f1 = F1(window.combined, inputs);
    }
    checks.Expect("final_models_equal_batch_window", window_matches);
  } else {
    checks.Expect("models_identical_across_reps", same_models);
    checks.Expect("answers_identical_across_reps", same_answers);
    // text-1d mines a one-day corpus and columnar-7d a seven-day one;
    // both must find, for day 0, exactly what a direct mine of either
    // simulator's in-memory store finds.
    for (int days : {1, 7}) {
      Result<eval::Dataset> dataset =
          eval::BuildDataset(DatasetConfigFor(options, days));
      if (!dataset.ok()) return fail(dataset.status());
      const LogStore& store = dataset.value().store;
      Result<core::PipelineResult> direct =
          pipeline.Run(store, inputs.day_begin(0), inputs.day_begin(1));
      if (!direct.ok()) return fail(direct.status());
      checks.Expect(
          "day0_equals_direct_mine_of_" + std::to_string(days) + "d_store",
          direct.value().all_ok() &&
              ModelsOf(direct.value(), store, inputs.vocabulary) ==
                  day_models.front());
    }
    for (const DayModels& models : day_models) {
      model_f1 += F1(models.l1.Union(models.l2), inputs) /
                  static_cast<double>(day_models.size());
    }
  }

  if (tracing != nullptr) {
    std::cerr << "[perf_e2e] attribution\n";
    Status attributed = Status::OK();
    if (options.stream()) {
      attributed = Attribute(inputs.store, inputs, options, pipeline, tracing);
    } else {
      Result<LogStore> store = ReadCorpusFile(inputs.corpus_path);
      attributed = store.ok() ? Attribute(store.value(), inputs, options,
                                          pipeline, tracing)
                              : store.status();
    }
    if (!attributed.ok()) return fail(attributed);
    std::ostringstream other;
    other.precision(17);
    other << "{\"stamp\": " << StampJson(options, reps)
          << ", \"model_f1\": " << model_f1
          << ", \"speed_factor\": " << reference.factor() << "}";
    if (Status s = tracer.WriteChromeTrace(options.trace_path, other.str());
        !s.ok()) {
      return fail(s);
    }
    std::cerr << "[perf_e2e] wrote " << tracer.size() << " spans to "
              << options.trace_path << "\n";
  }

  const std::vector<Metric> metrics = {
      {"setup_s", Median(samples.setup_s), "s", true},
      {"job_s", Median(samples.job_s), "s", true},
      {"cpu_ns_per_log", Median(samples.cpu_ns_per_log), "ns", true},
      {"peak_rss_mb", peak_rss_mb, "MB", false},
      {"freshness_ms_p50", Quantile(samples.freshness_ms, 0.5), "ms", true},
      {"freshness_ms_p90", Quantile(samples.freshness_ms, 0.9), "ms", true},
      // The stream's open-loop latency is paced by the query schedule and
      // timer wake-ups, not by CPU speed, so it is not scaled.
      {"query_ms_p50", Quantile(samples.query_ms, 0.5), "ms",
       !options.stream()},
  };
  std::cout.precision(6);
  std::cout << options.name << " seed=" << options.seed << " reps=" << reps
            << " logs/job=" << logs_per_job << " model_f1=" << model_f1
            << " reference_factor=" << reference.factor() << "\n";
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << metric.raw << " "
              << metric.unit << " raw";
    if (metric.time) {
      std::cout << ", " << metric.raw * reference.factor() << " scaled";
    }
    std::cout << "\n";
  }
  for (const auto& [name, ok] : checks.items()) {
    std::cout << "  check " << name << ": " << (ok ? "ok" : "FAILED") << "\n";
  }
  if (!options.out_path.empty()) {
    if (Status s = WriteReport(options, reps, logs_per_job, samples, metrics,
                               reference, model_f1, checks);
        !s.ok()) {
      return fail(s);
    }
  }
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace logmine::e2e

int main(int argc, char** argv) { return logmine::e2e::Main(argc, argv); }
