// Concurrent operation-history recording for linearizability checking.
//
// Linearizability [Herlihy & Wing, 11] is the correctness condition every
// object in the paper is assumed to satisfy ("the n-PAC object is
// linearizable, i.e., the operations are atomic"). The concurrent realm of
// this library (src/concurrent) is validated against the sequential
// specifications of src/spec by recording real-time invocation/response
// intervals here and replaying them through the checker.
//
// The log is lock-free on the hot path: a fixed-capacity slot array with an
// atomic cursor, and one atomic logical clock stamping invocations and
// responses. Snapshots must be taken at quiescence (no in-flight recording
// threads), which is how the tests use it.
#ifndef LBSA_LINCHECK_HISTORY_LOG_H_
#define LBSA_LINCHECK_HISTORY_LOG_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/values.h"
#include "spec/object_type.h"

namespace lbsa::lincheck {

// Timestamp meaning "the operation never returned" (crashed mid-call).
inline constexpr std::uint64_t kPendingTs =
    std::numeric_limits<std::uint64_t>::max();

struct OpRecord {
  int op_id = -1;
  int thread = -1;
  spec::Operation op;
  Value response = kNil;            // meaningful iff completed()
  std::uint64_t invoke_ts = 0;
  std::uint64_t response_ts = kPendingTs;

  bool completed() const { return response_ts != kPendingTs; }
  // Real-time precedence: *this finished before other started.
  bool precedes(const OpRecord& other) const {
    return completed() && response_ts < other.invoke_ts;
  }
};

class HistoryLog {
 public:
  explicit HistoryLog(std::size_t capacity = 1 << 16);

  HistoryLog(const HistoryLog&) = delete;
  HistoryLog& operator=(const HistoryLog&) = delete;

  // Records the invocation of `op` by `thread`; returns the op id to pass to
  // end_op. Aborts if capacity is exceeded (sizing is the caller's job).
  int begin_op(int thread, const spec::Operation& op);

  // Records the response of a previously begun operation.
  void end_op(int op_id, Value response);

  // Copies out all records, ordered by op id. Caller must ensure quiescence.
  std::vector<OpRecord> snapshot() const;

  std::size_t size() const { return cursor_.load(std::memory_order_acquire); }
  void reset();

 private:
  std::vector<OpRecord> slots_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> clock_{1};
};

}  // namespace lbsa::lincheck

#endif  // LBSA_LINCHECK_HISTORY_LOG_H_
