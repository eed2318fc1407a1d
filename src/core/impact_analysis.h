#ifndef LOGMINE_CORE_IMPACT_ANALYSIS_H_
#define LOGMINE_CORE_IMPACT_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "log/name_interner.h"

namespace logmine::core {

struct RootCauseCandidate;

/// A *directed* dependency graph over component names: an edge A -> B
/// means "A depends on B" (A calls B, A breaks when B breaks). This is
/// the artifact the paper's §1.1 motivates mining in the first place —
/// the substrate for root cause analysis, fault detection, impact
/// prediction and availability requirements determination.
///
/// Each name is interned once to a dense id, and each id keeps the
/// sorted ids of its dependents, so a query walks integers and touches
/// names only to look up its argument and to spell its answer. A graph
/// holds no scratch state: once built, concurrent readers may share it.
class DependencyGraph {
 public:
  DependencyGraph() = default;

  /// Adds the directed dependency `from -> to` (idempotent).
  void AddDependency(const std::string& from, const std::string& to);

  /// Builds the graph from an L3-style (application, service entry)
  /// model plus the entry -> providing-application mapping: each
  /// (A, S) pair becomes A -> owner(S). Self-edges are dropped.
  static DependencyGraph FromAppServiceModel(
      const DependencyModel& model,
      const std::map<std::string, std::string>& entry_owner);

  size_t num_nodes() const { return names_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Direct dependents of `component` (who calls it).
  std::set<std::string> DependentsOf(const std::string& component) const;

  /// All components transitively *dependent on* `failed` — the impact
  /// prediction of §1.1: who is affected when `failed` goes down.
  /// Excludes `failed` itself.
  std::set<std::string> ImpactSet(const std::string& failed) const;

 private:
  friend std::vector<RootCauseCandidate> RankRootCauses(
      const DependencyGraph& graph, const std::set<std::string>& symptomatic);

  /// Fills `reached` with every id transitively dependent on `start`,
  /// excluding `start`, in breadth-first order. `visited` has one entry
  /// per node, all zero on entry and on return.
  void Closure(uint32_t start, std::vector<uint8_t>* visited,
               std::vector<uint32_t>* reached) const;
  std::set<std::string> NamesOf(const std::vector<uint32_t>& ids) const;

  NameInterner names_;
  /// Per id: the sorted, unique ids of the components that depend on it.
  std::vector<std::vector<uint32_t>> dependents_;
  size_t num_edges_ = 0;
};

/// One root-cause candidate with its evidence.
struct RootCauseCandidate {
  std::string component;
  /// Fraction of the symptomatic components that transitively depend on
  /// this candidate (1.0 = explains every symptom).
  double coverage = 0;
  /// Fraction of the symptomatic components that *directly* depend on
  /// this candidate — failing calls surface as direct symptoms, so this
  /// separates the true cause from upstream/downstream bystanders in a
  /// dense graph.
  double direct_coverage = 0;
  /// Size of the candidate's impact set — smaller means a more
  /// parsimonious explanation at equal coverage.
  int64_t blast_radius = 0;
  bool symptomatic = false;  ///< the candidate itself shows symptoms
};

/// Root cause analysis (§1.1's headline application): ranks components
/// by how well their failure would explain the observed `symptomatic`
/// set — first by transitive symptom coverage, then by *direct*
/// coverage (symptoms call the cause directly), then by the smallest
/// blast radius (the most specific explanation).
std::vector<RootCauseCandidate> RankRootCauses(
    const DependencyGraph& graph, const std::set<std::string>& symptomatic);

}  // namespace logmine::core

#endif  // LOGMINE_CORE_IMPACT_ANALYSIS_H_
