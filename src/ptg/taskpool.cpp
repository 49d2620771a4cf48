#include "ptg/taskpool.h"

#include "support/error.h"

namespace mp::ptg {

const DataBuf& TaskCtx::input(int slot) const {
  MP_REQUIRE(slot >= 0 && static_cast<size_t>(slot) < num_inputs_,
             "TaskCtx::input: bad slot");
  MP_REQUIRE(inputs_[static_cast<size_t>(slot)] != nullptr,
             "TaskCtx::input: slot was never deposited");
  return inputs_[static_cast<size_t>(slot)];
}

DataBuf TaskCtx::take_input(int slot) {
  MP_REQUIRE(slot >= 0 && static_cast<size_t>(slot) < num_inputs_,
             "TaskCtx::take_input: bad slot");
  return std::move(inputs_[static_cast<size_t>(slot)]);
}

void TaskCtx::set_output(int slot, DataBuf buf) {
  MP_REQUIRE(slot >= 0 && slot < 128, "TaskCtx::set_output: bad slot");
  // The vector is the worker's, cleared after each task: once it has grown
  // to a class's output count, resizing allocates nothing.
  if (outputs_->size() <= static_cast<size_t>(slot)) {
    outputs_->resize(static_cast<size_t>(slot) + 1);
  }
  (*outputs_)[static_cast<size_t>(slot)] = std::move(buf);
}

int16_t Taskpool::add_class(TaskClass tc) {
  tc.cls = static_cast<int16_t>(classes_.size());
  classes_.push_back(std::move(tc));
  return classes_.back().cls;
}

const TaskClass& Taskpool::cls(int16_t id) const {
  MP_REQUIRE(id >= 0 && static_cast<size_t>(id) < classes_.size(),
             "Taskpool::cls: bad class id");
  return classes_[static_cast<size_t>(id)];
}

int16_t Taskpool::find(const std::string& name) const {
  for (const auto& c : classes_) {
    if (c.name == name) return c.cls;
  }
  return -1;
}

void Taskpool::validate() const {
  for (const auto& c : classes_) {
    MP_REQUIRE(!c.name.empty(), "Taskpool: class with empty name");
    MP_REQUIRE(static_cast<bool>(c.rank_of),
               "Taskpool: class '" + c.name + "' missing rank_of");
    MP_REQUIRE(static_cast<bool>(c.num_task_inputs),
               "Taskpool: class '" + c.name + "' missing num_task_inputs");
    MP_REQUIRE(static_cast<bool>(c.enumerate_rank),
               "Taskpool: class '" + c.name + "' missing enumerate_rank");
    MP_REQUIRE(static_cast<bool>(c.body),
               "Taskpool: class '" + c.name + "' missing body");
  }
}

}  // namespace mp::ptg
