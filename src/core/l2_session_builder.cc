#include "core/l2_session_builder.h"

#include <cassert>
#include <utility>

#include "log/filter.h"
#include "obs/obs.h"

namespace logmine::core {

std::vector<Session> SessionSplitter::Finish(int64_t logs_considered,
                                             SessionBuildStats* stats) && {
  for (auto& [user, session] : open_) {
    Close(std::move(session));
  }
  open_.clear();
  stats_.num_sessions = sessions_.size();
  stats_.logs_considered = logs_considered;
  stats_.assigned_fraction =
      logs_considered == 0 ? 0.0
                           : static_cast<double>(stats_.logs_assigned) /
                                 static_cast<double>(logs_considered);
  *stats = stats_;
  return std::move(sessions_);
}

std::vector<Session> SessionBuilder::Build(const LogStore& store,
                                           TimeMs begin, TimeMs end,
                                           SessionBuildStats* stats) const {
  assert(store.index_built());
  LOGMINE_SPAN_GLOBAL("l2/build_sessions", obs::Metric::kL2SessionBuildNs);
  SessionSplitter splitter(config_);
  int64_t logs_considered = 0;
  for (size_t idx : IndicesInRange(store, begin, end)) {
    ++logs_considered;
    const LogStore::UserId user = store.user_id(idx);
    if (user == LogStore::kNoUser) continue;
    splitter.Add(user,
                 SessionLogEntry{store.client_ts(idx), store.source_id(idx)});
  }
  SessionBuildStats local;
  std::vector<Session> sessions =
      std::move(splitter).Finish(logs_considered, &local);
  obs::Count(obs::Metric::kL2SessionsBuilt,
             static_cast<int64_t>(local.num_sessions));
  obs::Count(obs::Metric::kL2SessionLogsAssigned, local.logs_assigned);
  if (stats != nullptr) *stats = local;
  return sessions;
}

}  // namespace logmine::core
