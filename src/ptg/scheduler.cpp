#include "ptg/scheduler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <queue>

#include "support/analysis.h"
#include "support/error.h"

namespace mp::ptg {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kPriority: return "priority";
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kLifo: return "lifo";
    case SchedPolicy::kStealing: return "stealing";
  }
  return "?";
}

namespace {

// Ordering: highest priority first; among equals, policy decides by seq.
struct Cmp {
  bool lifo = false;
  bool use_priority = true;
  // Returns true when a is WORSE than b (so b pops first).
  bool operator()(const ReadyTask& a, const ReadyTask& b) const {
    if (use_priority && a.priority != b.priority) {
      return a.priority < b.priority;
    }
    return lifo ? a.seq < b.seq : a.seq > b.seq;
  }
};

using Queue = std::priority_queue<ReadyTask, std::vector<ReadyTask>, Cmp>;

ReadyTask pop_top(Queue& q) {
  // priority_queue::top() is const; moving out is safe because we pop
  // immediately after and never observe the moved-from element.
  ReadyTask t = std::move(const_cast<ReadyTask&>(q.top()));
  q.pop();
  return t;
}

/// Locks `mu`, counting acquisitions that had to block in `contended`.
std::unique_lock<std::mutex> counted_lock(std::mutex& mu,
                                          std::atomic<uint64_t>& contended) {
  std::unique_lock lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

/// One priority heap per worker, serving kPriority/kFifo/kLifo through
/// `Cmp`. A worker pushes into and pops from its own heap, so the per-heap
/// mutex is almost never contended; a worker whose heap is empty takes the
/// top of the first non-empty peer heap it can lock without waiting (a
/// steal). Pushes from non-worker threads (comm-thread deposits, re-pushed
/// harvests, migrated-in tasks) are dealt round-robin over the heaps; the
/// startup frontier is dealt by parameter tuple. No counter is shared by
/// all heaps: each heap numbers its tasks (`seq`) and publishes its length
/// under its own lock, and size() sums the lengths. With a single worker
/// there is a single heap, so the pop order is exactly that of one shared
/// priority queue.
class WorkerHeapScheduler final : public Scheduler {
 public:
  WorkerHeapScheduler(Cmp cmp, int num_workers)
      : heaps_(static_cast<size_t>(std::max(1, num_workers))) {
    for (auto& h : heaps_) h.queue = Queue(cmp);
  }

  void push(ReadyTask t, int worker) override {
    Heap& h = heaps_[home(worker)];
    auto lock = counted_lock(h.mu, contended_pushes_);
    add(h, std::move(t));
    published(h);
  }

  void push_batch(std::vector<ReadyTask>&& ts, int worker) override {
    if (ts.empty()) return;
    if (worker >= 0) {
      Heap& h = heaps_[home(worker)];
      auto lock = counted_lock(h.mu, contended_pushes_);
      for (auto& t : ts) add(h, std::move(t));
      published(h);
    } else {
      // Deal task i to heap (start + i) % n, taking each heap's lock once.
      const size_t n = heaps_.size();
      const size_t start = rr_.fetch_add(ts.size(), std::memory_order_relaxed);
      for (size_t k = 0; k < std::min(n, ts.size()); ++k) {
        Heap& h = heaps_[(start + k) % n];
        auto lock = counted_lock(h.mu, contended_pushes_);
        for (size_t i = k; i < ts.size(); i += n) add(h, std::move(ts[i]));
        published(h);
      }
    }
    ts.clear();
  }

  void push_startup(std::vector<ReadyTask>&& ts) override {
    const size_t n = heaps_.size();
    if (n == 1) {
      push_batch(std::move(ts), 0);
      return;
    }
    // Deal by parameter tuple: READ_A(l1, l2) and READ_B(l1, l2) land in
    // one heap, so one worker usually runs both and activates their GEMM
    // in its own heap, with both operands still in its cache. One pass per
    // heap rather than per-heap staging vectors: those transient buffers
    // measurably raised peak RSS (malloc fragmentation across arenas).
    for (size_t k = 0; k < n; ++k) {
      Heap& h = heaps_[k];
      auto lock = counted_lock(h.mu, contended_pushes_);
      for (auto& t : ts) {
        if (params_hash(t.key.p) % n == k) add(h, std::move(t));
      }
      published(h);
    }
    ts.clear();
  }

  bool try_pop(ReadyTask& out, int worker) override {
    const size_t n = heaps_.size();
    if (worker < 0) {
      // Non-worker callers (the comm thread's harvest for inter-node
      // migration) must see every heap, heap 0 included.
      for (Heap& h : heaps_) {
        if (pop_from(h, out)) return true;
      }
      return false;
    }
    const size_t me = home(worker);
    if (pop_from(heaps_[me], out)) return true;
    // Steal: a busy peer heap is skipped rather than waited for, so a thief
    // never queues behind the owner. A caller that comes back empty-handed
    // re-checks size() and retries.
    for (size_t i = 1; i < n; ++i) {
      Heap& victim = heaps_[me + i < n ? me + i : me + i - n];
      if (victim.count.load(std::memory_order_relaxed) == 0) continue;
      steal_attempts_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock lock(victim.mu, std::try_to_lock);
      if (lock.owns_lock() && take_top(victim, out)) {
        // Release pairs with the acquire in stats(): a snapshot observing
        // this steal also observes the attempt counted before it.
        steals_.fetch_add(1, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  size_t size() const override {
    size_t total = 0;
    for (const Heap& h : heaps_) {
      total += h.count.load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t steals() const override {
    return steals_.load(std::memory_order_acquire);
  }

  SchedStats stats() const override {
    // Counters are bumped relaxed on the hot paths (monotonic, no ordering
    // needed there); the snapshot uses acquire loads so a reader that saw a
    // later counter also sees every increment that preceded it. steals_ is
    // read first so steals <= steal_attempts holds mid-run.
    SchedStats s;
    s.steals = steals_.load(std::memory_order_acquire);
    s.steal_attempts = steal_attempts_.load(std::memory_order_acquire);
    s.contended_pushes = contended_pushes_.load(std::memory_order_acquire);
    s.contended_pops = contended_pops_.load(std::memory_order_acquire);
    return s;
  }

 private:
  // The trailing pad keeps one worker's heap traffic off its neighbour's
  // cache lines. (alignas(64) does the same but measured ~7% slower on the
  // single-thread push/pop microbenchmark, sched_priority.)
  struct Heap {
    std::mutex mu;
    Queue queue;
    /// Next insertion number; guarded by `mu`.
    uint64_t next_seq = 0;
    /// `queue.size()`, stored under `mu` (a plain store, not a
    /// read-modify-write); read without it by size() and by thieves
    /// skipping empty heaps.
    std::atomic<size_t> count{0};
    char pad[64];
  };

  static size_t params_hash(const Params& p) {
    uint64_t h = 0;
    for (int32_t x : p) {
      h = (h ^ static_cast<uint32_t>(x)) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<size_t>(h >> 32);
  }

  /// The heap a push or pop by `worker` uses. Worker ids are below the
  /// heap count in practice, so the common case avoids a division.
  size_t home(int worker) {
    const size_t n = heaps_.size();
    if (worker >= 0) {
      const auto w = static_cast<size_t>(worker);
      return w < n ? w : w % n;
    }
    return n == 1 ? 0 : rr_.fetch_add(1, std::memory_order_relaxed) % n;
  }

  /// Called with `h.mu` held: numbers `t` in this heap's insertion order.
  static void add(Heap& h, ReadyTask&& t) {
    t.seq = h.next_seq++;
    h.queue.push(std::move(t));
  }

  /// Called with `h.mu` held after adding tasks.
  static void published(Heap& h) {
    MP_ANNOTATE_CHANNEL_SEND(&h);
    h.count.store(h.queue.size(), std::memory_order_relaxed);
  }

  bool pop_from(Heap& h, ReadyTask& out) {
    if (h.count.load(std::memory_order_relaxed) == 0) return false;
    auto lock = counted_lock(h.mu, contended_pops_);
    return take_top(h, out);
  }

  /// Called with `h.mu` held.
  static bool take_top(Heap& h, ReadyTask& out) {
    if (h.queue.empty()) return false;
    out = pop_top(h.queue);
    MP_ANNOTATE_CHANNEL_RECV(&h);
    h.count.store(h.queue.size(), std::memory_order_relaxed);
    return true;
  }

  std::vector<Heap> heaps_;
  std::atomic<size_t> rr_{0};  ///< round-robin cursor for worker == -1
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> steal_attempts_{0};
  std::atomic<uint64_t> contended_pushes_{0};
  std::atomic<uint64_t> contended_pops_{0};
};

/// A bounded Chase-Lev work-stealing deque of ReadyTask* (Le et al.,
/// "Correct and Efficient Work-Stealing for Weak Memory Models", PPoPP'13,
/// minus the dynamic resize: overflow spills to the shared injection
/// queue). The owner pushes/pops `bottom` without locks; thieves CAS `top`.
class ChaseLevDeque {
 public:
  static constexpr size_t kCap = 4096;  // power of two
  static constexpr size_t kMask = kCap - 1;

  // TSan cannot model standalone fences (GCC-12 rejects atomic_thread_fence
  // outright under -fsanitize=thread), so sanitizer builds compile the
  // fences out and run the whole protocol on sequentially-consistent
  // accesses instead: same algorithm, slower, and every happens-before
  // edge the fences provided is visible to the race detector.
#if defined(__SANITIZE_THREAD__)
  static constexpr std::memory_order kProtocolRelaxed =
      std::memory_order_seq_cst;
  static void fence(std::memory_order) {}
#else
  static constexpr std::memory_order kProtocolRelaxed =
      std::memory_order_relaxed;
  static void fence(std::memory_order o) { std::atomic_thread_fence(o); }
#endif

  ChaseLevDeque() {
    // Registers the deque with the lifecycle checker (and clears any stale
    // ownership left by a previous deque at the same recycled address).
    MP_ANNOTATE_DEQUE_CREATE(this);
  }

  /// Resets the checker's owner claim; called before the destroying thread
  /// drains the bottom end during single-threaded teardown.
  void reset_owner_for_teardown() { MP_ANNOTATE_DEQUE_CREATE(this); }

  /// Owner only. False when full (caller reroutes to the overflow queue).
  bool push_bottom(ReadyTask* t) {
    MP_ANNOTATE_DEQUE_OWNER_OP(this);
    const int64_t b = bottom_.load(kProtocolRelaxed);
    const int64_t tp = top_.load(std::memory_order_acquire);
    if (b - tp >= static_cast<int64_t>(kCap)) return false;
    slots_[static_cast<size_t>(b) & kMask].store(t, kProtocolRelaxed);
    fence(std::memory_order_release);
    bottom_.store(b + 1, kProtocolRelaxed);
    // Publish a happens-before edge for a future thief's steal_top().
    MP_ANNOTATE_CHANNEL_SEND(this);
    return true;
  }

  /// Owner only. LIFO end; nullptr when empty (or lost the final-element
  /// race to a thief).
  ReadyTask* pop_bottom() {
    MP_ANNOTATE_DEQUE_OWNER_OP(this);
    const int64_t b = bottom_.load(kProtocolRelaxed) - 1;
    bottom_.store(b, kProtocolRelaxed);
    fence(std::memory_order_seq_cst);
    int64_t tp = top_.load(kProtocolRelaxed);
    ReadyTask* res = nullptr;
    if (tp <= b) {
      res = slots_[static_cast<size_t>(b) & kMask].load(kProtocolRelaxed);
      if (tp == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(tp, tp + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          res = nullptr;
        }
        bottom_.store(b + 1, kProtocolRelaxed);
      }
    } else {
      bottom_.store(b + 1, kProtocolRelaxed);
    }
    return res;
  }

  /// Any thread. FIFO end; nullptr when empty or when the CAS race was
  /// lost (the caller just moves on to the next victim). A slot value read
  /// here can only have been overwritten by the owner after `top` moved,
  /// which makes the CAS fail, so a stale task is never returned.
  ReadyTask* steal_top() {
    MP_ANNOTATE_DEQUE_STEAL_OP(this);
    int64_t tp = top_.load(std::memory_order_acquire);
    fence(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_acquire);
    if (tp >= b) return nullptr;
    ReadyTask* t =
        slots_[static_cast<size_t>(tp) & kMask].load(kProtocolRelaxed);
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    // Adopt the owner's happens-before edge published at push_bottom().
    MP_ANNOTATE_CHANNEL_RECV(this);
    return t;
  }

 private:
  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::array<std::atomic<ReadyTask*>, kCap> slots_{};
};

class StealingScheduler final : public Scheduler {
 public:
  explicit StealingScheduler(int num_workers)
      : deques_(static_cast<size_t>(num_workers)),
        injection_(Cmp{false, true}) {
    MP_REQUIRE(num_workers >= 1, "StealingScheduler: need >= 1 worker");
    for (auto& d : deques_) d = std::make_unique<ChaseLevDeque>();
  }

  ~StealingScheduler() override {
    // Single-threaded by the time the scheduler dies; reclaim stragglers.
    // The destroying thread is usually not the owning worker, which is fine
    // only because every worker has joined — tell the checker the protocol
    // restarts here rather than report a bogus steal violation.
    for (auto& d : deques_) {
      d->reset_owner_for_teardown();
      while (ReadyTask* t = d->pop_bottom()) delete t;
    }
  }

  void push(ReadyTask t, int worker) override {
    push_one(std::move(t), worker);
    size_.fetch_add(1, std::memory_order_release);
  }

  void push_batch(std::vector<ReadyTask>&& ts, int worker) override {
    if (ts.empty()) return;
    for (auto& t : ts) push_one(std::move(t), worker);
    size_.fetch_add(ts.size(), std::memory_order_release);
    ts.clear();
  }

  bool try_pop(ReadyTask& out, int worker) override {
    if (size_.load(std::memory_order_acquire) == 0) return false;
    const size_t n = deques_.size();
    const size_t me =
        worker >= 0 ? static_cast<size_t>(worker) % n : 0;

    // 1. Own bottom (lock-free LIFO: the task this worker just spawned).
    if (worker >= 0) {
      if (ReadyTask* t = deques_[me]->pop_bottom()) return take(t, out);
    }

    // 2. The shared injection queue (priority-ordered startup/comm tasks).
    {
      auto lock = counted_lock(inj_mu_, contended_pops_);
      if (!injection_.empty()) {
        out = pop_top(injection_);
        MP_ANNOTATE_CHANNEL_RECV(&injection_);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }

    // 3. Steal the top (oldest task) of another worker's deque. A worker
    // starts with its peers (i = 1; its own bottom was tried above); a
    // non-worker caller (comm-thread harvest for inter-node migration)
    // must scan every deque including deque 0, which the old i = 1 start
    // silently skipped — tasks parked there were invisible to harvesting.
    for (size_t i = worker >= 0 ? 1 : 0; i < n; ++i) {
      const size_t victim = (me + i) % n;
      steal_attempts_.fetch_add(1, std::memory_order_relaxed);
      if (ReadyTask* t = deques_[victim]->steal_top()) {
        // Release pairs with the acquire in stats(): a snapshot observing
        // this steal also observes the attempts counted before it.
        steals_.fetch_add(1, std::memory_order_release);
        return take(t, out);
      }
    }
    return false;
  }

  size_t size() const override {
    return size_.load(std::memory_order_acquire);
  }

  uint64_t steals() const override {
    return steals_.load(std::memory_order_acquire);
  }

  SchedStats stats() const override {
    // Same convention as WorkerHeapScheduler::stats(): relaxed increments on
    // the hot paths, acquire loads for the snapshot. steals_ is read
    // *first*: its increment is a release, so the acquire load that saw S
    // steals also sees the >= S attempt increments sequenced before them —
    // SchedStats::validate()'s steals <= steal_attempts invariant holds
    // even for a mid-run snapshot.
    SchedStats s;
    s.steals = steals_.load(std::memory_order_acquire);
    s.steal_attempts = steal_attempts_.load(std::memory_order_acquire);
    s.contended_pushes = contended_pushes_.load(std::memory_order_acquire);
    s.contended_pops = contended_pops_.load(std::memory_order_acquire);
    return s;
  }

 private:
  void push_one(ReadyTask&& t, int worker) {
    if (worker >= 0) {
      const size_t me = static_cast<size_t>(worker) % deques_.size();
      auto* owned = new ReadyTask(std::move(t));
      if (deques_[me]->push_bottom(owned)) return;
      // Deque full: spill to the injection queue.
      t = std::move(*owned);
      delete owned;
    }
    auto lock = counted_lock(inj_mu_, contended_pushes_);
    t.seq = inj_seq_++;
    injection_.push(std::move(t));
    MP_ANNOTATE_CHANNEL_SEND(&injection_);
  }

  bool take(ReadyTask* t, ReadyTask& out) {
    out = std::move(*t);
    delete t;
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  std::vector<std::unique_ptr<ChaseLevDeque>> deques_;
  mutable std::mutex inj_mu_;
  Queue injection_;
  uint64_t inj_seq_ = 0;  ///< injection insertion order; guarded by inj_mu_
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> steal_attempts_{0};
  std::atomic<uint64_t> contended_pushes_{0};
  std::atomic<uint64_t> contended_pops_{0};
};

}  // namespace

std::unique_ptr<Scheduler> Scheduler::create(SchedPolicy policy,
                                             int num_workers) {
  switch (policy) {
    case SchedPolicy::kPriority:
      return std::make_unique<WorkerHeapScheduler>(Cmp{false, true},
                                                   num_workers);
    case SchedPolicy::kFifo:
      return std::make_unique<WorkerHeapScheduler>(Cmp{false, false},
                                                   num_workers);
    case SchedPolicy::kLifo:
      return std::make_unique<WorkerHeapScheduler>(Cmp{true, false},
                                                   num_workers);
    case SchedPolicy::kStealing:
      return std::make_unique<StealingScheduler>(num_workers);
  }
  throw InvalidArgument("unknown scheduler policy");
}

}  // namespace mp::ptg
