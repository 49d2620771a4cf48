#include "ptg/dep_table.h"

#include <algorithm>
#include <bit>

#include "support/error.h"

namespace mp::ptg {

void DepTable::add(const TaskKey& key, int threshold, double priority) {
  MP_REQUIRE(threshold > 0, "DepTable::add: a row needs task inputs");
  rows_.push_back(Row{key, priority, static_cast<uint32_t>(nslots_),
                      threshold, 0});
  nslots_ += static_cast<size_t>(threshold);
}

void DepTable::seal() {
  rows_.shrink_to_fit();
  slots_ = std::make_unique<DataBuf[]>(nslots_);
  claims_ = std::make_unique<uint8_t[]>(nslots_);  // value-initialized: 0
  // At most half full, so a probe sequence stays short.
  const size_t cap = std::bit_ceil(std::max<size_t>(2, 2 * rows_.size()));
  mask_ = cap - 1;
  shift_ = 64 - std::countr_zero(cap);
  index_.assign(cap, -1);
  for (size_t r = 0; r < rows_.size(); ++r) {
    size_t i = hash(rows_[r].key) >> shift_;
    while (index_[i] >= 0) i = (i + 1) & mask_;
    index_[i] = static_cast<int32_t>(r);
  }
}

DepTable::Cleared DepTable::reset() {
  Cleared out;
  for (Row& row : rows_) {
    if (row.arrived == 0) continue;
    if (row.arrived < row.threshold) {
      ++out.partial;
    } else {
      ++out.activated;
    }
    row.arrived = 0;
    for (uint32_t s = row.first_slot;
         s < row.first_slot + static_cast<uint32_t>(row.threshold); ++s) {
      claims_[s] = 0;
      slots_[s].reset();
    }
  }
  return out;
}

}  // namespace mp::ptg
