// The dependency table of one rank (DESIGN.md §7): a row for every task
// instance the rank owns that has task inputs. A PTG is symbolic, so the
// template already names each such instance (enumerate_rank) and its input
// count (num_task_inputs); the Context builds the table once, in the pass
// that enumerates its startup frontier, and reuses it for every submission.
//
// A deposit claims its input slot, writes the buffer into the slot and
// counts the arrival with one acq_rel fetch_add; the depositor whose arrival
// completes the count makes the task ready, and the task body reads its
// inputs straight from the row's slots. Rows, slots and claims live in flat
// arrays and are found through an immutable open-addressed key index, so
// this path takes no lock and allocates nothing. Counters and claims are
// re-armed between submissions by reset().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

class DepTable {
 public:
  struct Row {
    TaskKey key;
    double priority = 0.0;    ///< effective priority, cached at build
    uint32_t first_slot = 0;  ///< index of input slot 0 in the slot array
    int32_t threshold = 0;    ///< num_task_inputs of the instance
    int32_t arrived = 0;      ///< deposits counted; atomic access only

    friend bool operator==(const Row&, const Row&) = default;
  };

  /// Append a row (build phase). `threshold` must be positive.
  void add(const TaskKey& key, int threshold, double priority);
  /// End the build phase: allocate the slots and claims and index the keys.
  void seal();

  size_t size() const { return rows_.size(); }
  const Row& row(int32_t r) const { return rows_[static_cast<size_t>(r)]; }

  /// Row of `key`, or -1 when `key` is not in the table.
  int32_t find(const TaskKey& key) const {
    if (rows_.empty()) return -1;
    for (size_t i = hash(key) >> shift_;; i = (i + 1) & mask_) {
      const int32_t r = index_[i];
      if (r < 0 || rows_[static_cast<size_t>(r)].key == key) return r;
    }
  }

  /// The input slots of row `r` (threshold of them).
  DataBuf* slots(int32_t r) {
    return &slots_[rows_[static_cast<size_t>(r)].first_slot];
  }

  /// Claim input `slot` of row `r` for one deposit; false when it was
  /// claimed already this submission (a double or replayed deposit).
  /// Relaxed: the claim only decides which depositor writes the slot (the
  /// loser never touches it); arrive() publishes the write.
  bool claim(int32_t r, int slot) {
    std::atomic_ref<uint8_t> c(
        claims_[rows_[static_cast<size_t>(r)].first_slot +
                static_cast<uint32_t>(slot)]);
    return c.exchange(1, std::memory_order_relaxed) == 0;
  }

  /// Count one arrival at row `r`, after its slot was written. True for the
  /// arrival that completes the row: that thread now owns the inputs.
  bool arrive(int32_t r) {
    Row& row = rows_[static_cast<size_t>(r)];
    std::atomic_ref<int32_t> a(row.arrived);
    return a.fetch_add(1, std::memory_order_acq_rel) + 1 == row.threshold;
  }

  /// Arrivals counted at row `r` so far (a snapshot, safe mid-run).
  int32_t arrived(int32_t r) const {
    return std::atomic_ref<const int32_t>(rows_[static_cast<size_t>(r)].arrived)
        .load(std::memory_order_relaxed);
  }

  /// Re-arm every row for the next submission: zero the arrival counts and
  /// claims and release any buffer still in a slot (a submission that
  /// unwound leaves some). Only while no thread deposits or executes.
  struct Cleared {
    size_t partial = 0;    ///< rows with some but not all inputs
    size_t activated = 0;  ///< rows whose inputs were complete
  };
  Cleared reset();

  /// Same rows, in the same order, with the same thresholds and priorities.
  bool same_rows(const DepTable& other) const { return rows_ == other.rows_; }

 private:
  static uint64_t hash(const TaskKey& k) {
    const uint64_t a =
        (static_cast<uint64_t>(static_cast<uint16_t>(k.cls)) << 32) |
        static_cast<uint32_t>(k.p[0]);
    const uint64_t b = (static_cast<uint64_t>(static_cast<uint32_t>(k.p[1]))
                        << 32) |
                       static_cast<uint32_t>(k.p[2]);
    // Multiplicative hashing: the index is the top bits, which every input
    // bit reaches.
    return a * 0x9e3779b97f4a7c15ULL + b * 0xc2b2ae3d27d4eb4fULL;
  }

  std::vector<Row> rows_;
  size_t nslots_ = 0;
  std::unique_ptr<DataBuf[]> slots_;
  std::unique_ptr<uint8_t[]> claims_;  ///< one per slot; atomic access only
  std::vector<int32_t> index_;         ///< open-addressed, -1 = empty
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace mp::ptg
