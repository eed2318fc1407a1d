#include "core/pipeline.h"

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "util/executor.h"

namespace logmine::core {
namespace {

// Runs one miner closure with full containment: a thrown exception
// becomes an Internal status instead of escaping into the executor loop
// and poisoning sibling miners.
Status RunContained(const std::function<Status()>& task) {
  try {
    return task();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("miner threw: ") + e.what());
  } catch (...) {
    return Status::Internal("miner threw a non-std exception");
  }
}

}  // namespace

MiningPipeline::MiningPipeline(ServiceVocabulary vocabulary,
                               PipelineConfig config)
    : vocabulary_(std::move(vocabulary)), config_(std::move(config)) {}

Result<PipelineResult> MiningPipeline::Run(const LogStore& store, TimeMs begin,
                                           TimeMs end,
                                           obs::ObsContext* obs_context) const {
  if (!store.index_built()) {
    return Status::FailedPrecondition("LogStore index not built");
  }
  // Pipeline-level spans and counters go to the explicit context when one
  // was handed in, else to the ambient global one; the miners themselves
  // always record into the global context.
  obs::ObsContext* ctx = obs::Effective(obs_context);
  obs::Count(ctx, obs::Metric::kPipelineRuns);
  // One journal root span per run; each miner's boundary is one
  // "<run>/<miner>" miner_done event carrying its duration.
  std::string run_span;
  if (ctx != nullptr) {
    run_span = ctx->journal().BeginRootSpan("pipeline");
    ctx->journal().Emit(
        run_span, "pipeline_start",
        {obs::JournalField::Num("begin_ms", begin),
         obs::JournalField::Num("end_ms", end)});
  }
  PipelineResult out;

  // One (closure, status slot) pair per enabled technique. The store is
  // read-only during mining and each miner is internally deterministic,
  // so the miners run concurrently on the shared executor. Each
  // status lands in its own slot, so one failing or throwing miner never
  // discards a sibling's model: callers get partial results plus a
  // per-miner Status.
  std::vector<std::function<Status()>> tasks;
  std::vector<Status*> slots;
  std::vector<const char*> names;
  if (config_.run_l1) {
    tasks.push_back([&]() -> Status {
      L1ActivityMiner miner(config_.l1);
      auto result = miner.Mine(store, begin, end);
      if (!result.ok()) return result.status();
      out.l1 = std::move(result).value();
      return Status::OK();
    });
    slots.push_back(&out.l1_status);
    names.push_back("l1");
  }
  if (config_.run_l2) {
    tasks.push_back([&]() -> Status {
      L2CooccurrenceMiner miner(config_.l2);
      auto result = miner.Mine(store, begin, end);
      if (!result.ok()) return result.status();
      out.l2 = std::move(result).value();
      return Status::OK();
    });
    slots.push_back(&out.l2_status);
    names.push_back("l2");
  }
  if (config_.run_l3) {
    tasks.push_back([&]() -> Status {
      L3TextMiner miner(vocabulary_, config_.l3);
      auto result = miner.Mine(store, begin, end);
      if (!result.ok()) return result.status();
      out.l3 = std::move(result).value();
      return Status::OK();
    });
    slots.push_back(&out.l3_status);
    names.push_back("l3");
  }

  {
    LOGMINE_SPAN(ctx, "pipeline/run", obs::Metric::kPipelineRunNs);
    Executor::Shared().ParallelFor(
        tasks.size(),
        [&](size_t i) {
          if (ctx == nullptr) {
            *slots[i] = RunContained(tasks[i]);
            return;
          }
          // cpu_ns is this thread's CPU over the miner: a miner that fans
          // out to executor workers reports only its own share.
          const obs::StageClock clock;
          const Status& status = *slots[i] = RunContained(tasks[i]);
          std::vector<obs::JournalField> fields = {
              obs::JournalField::Str("miner", names[i]),
              obs::JournalField::Flag("ok", status.ok())};
          if (!status.ok()) {
            fields.push_back(
                obs::JournalField::Str("code", StatusCodeName(status.code())));
            fields.push_back(obs::JournalField::Str("error", status.message()));
          }
          // Emitted as the miner ends, so [ts_ns - dur_ns, ts_ns] is the
          // miner's own interval inside the run span.
          ctx->journal().Emit(run_span + "/" + names[i], "miner_done",
                              clock.End(), std::move(fields));
        });
  }
  for (const Status* slot : slots) {
    obs::Count(ctx, slot->ok() ? obs::Metric::kPipelineMinersOk
                               : obs::Metric::kPipelineMinersFailed);
  }
  // Snapshot after the run span closed, so the snapshot sees it.
  if (obs_context != nullptr) {
    out.metrics = obs_context->metrics().Snapshot();
  }
  return out;
}

}  // namespace logmine::core
