#include "lincheck/checker.h"

#include <unordered_set>

#include "base/check.h"
#include "base/hashing.h"
#include "obs/obs.h"

namespace lbsa::lincheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    return static_cast<std::size_t>(hash_words(key));
  }
};

class Search {
 public:
  Search(const spec::ObjectType& type, const std::vector<OpRecord>& history,
         const LincheckOptions& options)
      : type_(type), history_(history), options_(options) {
    completed_mask_ = 0;
    for (std::size_t i = 0; i < history_.size(); ++i) {
      if (history_[i].completed()) completed_mask_ |= 1ULL << i;
    }
  }

  StatusOr<LincheckResult> run() {
    LincheckResult result;
    const bool found = dfs(0, type_.initial_state());
    if (budget_exceeded_) {
      return resource_exhausted("lincheck: state budget exceeded");
    }
    result.linearizable = found;
    result.states_explored = states_;
    if (found) {
      result.witness = path_;
    } else {
      result.detail = "no linearization of " +
                      std::to_string(history_.size()) + " operations (" +
                      std::to_string(states_) + " states examined)";
    }
    return result;
  }

 private:
  // True iff op i may be linearized next given the set `taken`.
  bool eligible(std::size_t i, std::uint64_t taken) const {
    if (taken & (1ULL << i)) return false;
    for (std::size_t j = 0; j < history_.size(); ++j) {
      if (j == i || (taken & (1ULL << j))) continue;
      if (history_[j].precedes(history_[i])) return false;
    }
    return true;
  }

  bool dfs(std::uint64_t taken, const std::vector<std::int64_t>& state) {
    if ((taken & completed_mask_) == completed_mask_) return true;

    std::vector<std::int64_t> key = state;
    key.push_back(static_cast<std::int64_t>(taken));
    if (!memo_.insert(std::move(key)).second) return false;
    if (++states_ > options_.max_states) {
      budget_exceeded_ = true;
      return false;
    }

    std::vector<spec::Outcome> outcomes;
    for (std::size_t i = 0; i < history_.size(); ++i) {
      if (!eligible(i, taken)) continue;
      const OpRecord& record = history_[i];
      outcomes.clear();
      type_.apply(state, record.op, &outcomes);
      for (const spec::Outcome& outcome : outcomes) {
        // A completed op must take exactly its observed response; a pending
        // op may take any legal one (it "completed" invisibly).
        if (record.completed() && outcome.response != record.response) {
          continue;
        }
        path_.push_back(record.op_id);
        if (dfs(taken | (1ULL << i), outcome.next_state)) return true;
        if (budget_exceeded_) return false;
        path_.pop_back();
      }
    }
    return false;
  }

  const spec::ObjectType& type_;
  const std::vector<OpRecord>& history_;
  const LincheckOptions& options_;
  std::uint64_t completed_mask_ = 0;
  std::unordered_set<std::vector<std::int64_t>, KeyHash> memo_;
  std::vector<int> path_;
  std::uint64_t states_ = 0;
  bool budget_exceeded_ = false;
};

}  // namespace

StatusOr<LincheckResult> check_linearizable(const spec::ObjectType& type,
                                            const std::vector<OpRecord>& history,
                                            const LincheckOptions& options) {
  if (history.size() > 64) {
    return invalid_argument(
        "lincheck supports at most 64 operations per check; got " +
        std::to_string(history.size()));
  }
  for (const OpRecord& record : history) {
    const Status s = type.validate(record.op);
    if (!s.is_ok()) return s;
    if (record.completed() && record.response_ts <= record.invoke_ts) {
      return invalid_argument("op " + std::to_string(record.op_id) +
                              " has response_ts <= invoke_ts");
    }
  }
  Search search(type, history, options);
  StatusOr<LincheckResult> result = search.run();
  // Counters only, no spans: implcheck calls this once per explored
  // execution, far too often for per-call trace events. Search order is
  // deterministic, so states_explored totals are stable.
  LBSA_OBS_COUNTER_ADD("lincheck.histories", 1);
  if (result.is_ok()) {
    LBSA_OBS_COUNTER_ADD("lincheck.states", result.value().states_explored);
  }
  return result;
}

}  // namespace lbsa::lincheck
