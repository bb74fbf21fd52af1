// Universal construction: a linearizable implementation of ANY deterministic
// sequential object from consensus objects and registers — the machinery
// behind Herlihy's theorem [10] that the paper's Section 1 recalls
// ("instances of any object with consensus number n, together with
// registers, can implement any object that can be shared by up to n
// processes").
//
// Construction (consensus-chain variant):
//   * an announce board: a slot array where each invoking thread publishes
//     its operation descriptor (a register write);
//   * a chain of n-consensus cells; cell j decides which announced operation
//     is the j-th applied to the object;
//   * each thread keeps a private replica of the sequential object, replayed
//     through the decided prefix. To perform op: publish it, then keep
//     proposing its slot to successive cells (applying each cell's winner to
//     the replica) until a cell decides its own slot; the replica's response
//     at that point is the operation's response.
//
// Every thread proposes to a cell at most once, so an n-thread instance
// needs exactly n-consensus cells — the object family the paper studies, not
// unbounded CAS. The construction is lock-free (a thread's proposal loses
// only when another operation wins, i.e. the system makes progress); the
// wait-free variant adds Herlihy's helping, which is noted in DESIGN.md as
// out of scope.
//
// Restriction: the replica type must be deterministic (all replicas must
// transition identically). Checked at construction.
#ifndef LBSA_UNIVERSAL_UNIVERSAL_OBJECT_H_
#define LBSA_UNIVERSAL_UNIVERSAL_OBJECT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "concurrent/cas_consensus.h"
#include "concurrent/concurrent_object.h"

namespace lbsa::universal {

class UniversalObject final : public concurrent::ConcurrentObject {
 public:
  // num_threads: maximum number of concurrently invoking threads (thread ids
  // in [0, num_threads)); max_ops: total operation budget (sizes the
  // announce board and the consensus chain).
  UniversalObject(std::shared_ptr<const spec::ObjectType> replica_type,
                  int num_threads, std::size_t max_ops);

  const spec::ObjectType& type() const override { return *replica_type_; }

  // Generic entry point; runs as thread id 0 (single-threaded callers).
  // Concurrent callers must use apply_as with distinct thread ids.
  Value apply(const spec::Operation& op) override { return apply_as(0, op); }

  // Performs op on behalf of `thread`; linearizable across threads.
  Value apply_as(int thread, const spec::Operation& op) override;

  // Number of operations applied to the shared sequence so far (monotonic;
  // for tests).
  std::size_t applied_count() const;

 private:
  struct Replica {
    std::vector<std::int64_t> state;
    std::size_t next_cell = 0;
    // Pad to a cache line: replicas are strictly thread-local, and false
    // sharing here would serialize the whole construction.
    char padding[64];
  };

  struct Slot {
    spec::Operation op;
    std::atomic<bool> published{false};
  };

  std::shared_ptr<const spec::ObjectType> replica_type_;
  int num_threads_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> slot_cursor_{0};
  std::vector<std::unique_ptr<concurrent::CasConsensus>> cells_;
  std::vector<Replica> replicas_;
};

}  // namespace lbsa::universal

#endif  // LBSA_UNIVERSAL_UNIVERSAL_OBJECT_H_
