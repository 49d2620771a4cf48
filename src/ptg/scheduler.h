// Ready-task schedulers. The paper's PaRSEC default scheduler balances
// several objectives and honours task priorities; we provide:
//   kPriority — highest priority first, FIFO among equals. This is what all
//               measured variants use; with every priority equal it
//               degenerates to FIFO, which is exactly the paper's v2
//               behaviour.
//   kFifo     — insertion order, priorities ignored.
//   kLifo     — newest first (cache-friendly depth-first execution).
// These three share one implementation: a priority heap per worker, each
// behind its own mutex. A worker pushes the successors it activates into
// its own heap and pops its own top; when its heap is empty it takes the
// top of a peer's heap (a steal). Pushes from non-worker threads
// (comm-thread deposits, migrated-in tasks) are dealt round-robin over the
// heaps, and the startup frontier by parameter tuple. Ordering therefore
// holds per heap: with one
// worker there is one heap and the order is exact; with several, each
// worker runs its own heap's best task and priorities balance only through
// the round-robin deal and the steals. Per-worker heaps keep the workers
// from serializing on one lock at fine task grain (DESIGN.md §7).
//   kStealing — per-worker lock-free Chase-Lev deques with work stealing,
//               modelling PaRSEC's intra-node dynamic load balancing. The
//               owning worker pushes and pops its own bottom without locks;
//               thieves race on the top end with a single CAS. Tasks pushed
//               by non-worker threads (comm thread, startup enumeration)
//               land in a shared priority "injection" queue that workers
//               drain before stealing, so the paper's priority-driven
//               startup pipelining is preserved; tasks spawned by a worker
//               run LIFO on that worker (cache-hot chain successors).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

struct ReadyTask {
  double priority = 0.0;
  /// Insertion order within the queue that holds the task, for
  /// deterministic ties. Assigned by the scheduler on push (under that
  /// queue's lock); any value the caller sets is overwritten.
  uint64_t seq = 0;
  /// Home rank of a task migrated here by inter-node stealing; -1 for a
  /// locally-owned task. The executor credits the origin rank instead of
  /// counting the completion locally (see Context).
  int origin = -1;
  /// Row of the Context's dependency table whose slots hold the inputs, or
  /// -1 when `inputs` holds them (startup, adopted and migrated tasks).
  int32_t row = -1;
  TaskKey key;
  std::vector<DataBuf> inputs;
};

enum class SchedPolicy { kPriority, kFifo, kLifo, kStealing };

const char* to_string(SchedPolicy p);

/// Contention/steal counters, cheap relaxed atomics kept on the hot paths.
/// `contended_*` counts mutex acquisitions that had to wait (try_lock
/// failed first), summed over every heap's (or the injection queue's)
/// mutex. With per-worker heaps only an owner meeting a thief or a
/// non-worker push contends.
struct SchedStats {
  uint64_t steals = 0;          ///< tasks a worker took from a peer's queue
  uint64_t steal_attempts = 0;  ///< peer probes (incl. lost races)
  uint64_t contended_pushes = 0;
  uint64_t contended_pops = 0;

  /// Internal-consistency self check: a successful steal is always preceded
  /// by the attempt that found it, so steals can never exceed
  /// steal_attempts in an acquire-ordered snapshot. Returns an empty string
  /// when consistent, else a description of the violated invariant (used as
  /// a stress-test assertion message).
  std::string validate() const {
    if (steals > steal_attempts) {
      return "SchedStats: steals (" + std::to_string(steals) +
             ") > steal_attempts (" + std::to_string(steal_attempts) + ")";
    }
    return {};
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Enqueue a ready task. `worker` is the id of the pushing worker, or -1
  /// when pushed by the comm thread / startup enumeration (spread over the
  /// workers' queues). For kStealing, a push with worker >= 0 MUST be
  /// issued from that worker's own thread (the deque bottom is
  /// single-owner); any thread may push with -1.
  virtual void push(ReadyTask t, int worker) = 0;

  /// Enqueue several sibling activations at once (a completed task waking
  /// its successors). One size/notify round trip instead of len(ts).
  virtual void push_batch(std::vector<ReadyTask>&& ts, int worker) {
    for (auto& t : ts) push(std::move(t), worker);
    ts.clear();
  }

  /// Enqueue a submission's startup frontier, pushed by the submitting
  /// thread. The per-worker heaps deal it by parameter tuple, so instances
  /// of different classes with equal parameters (READ_A and READ_B feeding
  /// one GEMM) share a heap, and lock each heap once. kStealing puts it in
  /// its injection queue: a Chase-Lev deque takes owner pushes only.
  virtual void push_startup(std::vector<ReadyTask>&& ts) {
    push_batch(std::move(ts), -1);
  }

  /// Dequeue the best task for `worker` (its own queue first, then a
  /// peer's); false if none available anywhere. `worker` = -1 scans every
  /// queue.
  virtual bool try_pop(ReadyTask& out, int worker) = 0;

  /// Remove up to `max_n` ready tasks for migration to another node (the
  /// victim side of an inter-node steal). Uses the non-worker pop path, so
  /// any thread may call it; tasks the caller decides not to migrate can be
  /// re-pushed with worker = -1. Returns the number harvested.
  virtual size_t harvest(std::vector<ReadyTask>& out, size_t max_n) {
    size_t n = 0;
    ReadyTask t;
    while (n < max_n && try_pop(t, -1)) {
      out.push_back(std::move(t));
      ++n;
    }
    return n;
  }

  /// Approximate number of queued tasks, without taking a lock: the sum of
  /// the per-heap lengths (kStealing: one atomic counter). Exact once the
  /// queues are quiescent.
  virtual size_t size() const = 0;

  /// Number of tasks a worker took from a peer's heap or deque.
  virtual uint64_t steals() const { return 0; }

  /// Snapshot of the contention counters.
  virtual SchedStats stats() const { return {}; }

  static std::unique_ptr<Scheduler> create(SchedPolicy policy,
                                           int num_workers);
};

}  // namespace mp::ptg
